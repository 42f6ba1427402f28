"""Instance pivot subgraphs: hop-limited node discovery around a pivot,
pivot-relative feature normalization, and top-u edge wiring.

Subgraphs are built a block of pivots at a time. A node of the block is
keyed by (owner, id) as owner * N + id in int64, where owner is its pivot's
position in the block, so one sort or lookup serves every pivot of the
block. Each subgraph keeps its edges as a list; the dense adjacency is built
only on request.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from linkgcn.dataset import FeatureSet
from linkgcn.knn import NeighborTable


@dataclass(frozen=True)
class IpsConfig:
    h: int                # hop count
    k_per_hop: tuple      # neighbors picked at each hop, length h
    u: int                # global neighbors considered per node when wiring edges

    def __post_init__(self):
        if self.h < 1:
            raise ValueError("h must be >= 1")
        ks = tuple(int(k) for k in self.k_per_hop)
        if len(ks) != self.h:
            raise ValueError(f"k_per_hop has {len(ks)} entries, expected h={self.h}")
        if any(k < 1 for k in ks):
            raise ValueError("every k_per_hop entry must be >= 1")
        if self.u < 1:
            raise ValueError("u must be >= 1")
        object.__setattr__(self, "k_per_hop", ks)

    @property
    def table_k(self) -> int:
        """Neighbor-table width that discovery and edge wiring read."""
        return max(max(self.k_per_hop), self.u)


def regime_config(k1: int, k2: int, u: int, hops: int) -> IpsConfig:
    """A (k1, k2, u) regime over `hops` hops: k1 neighbors at hop 1, k2 at
    every later hop."""
    return IpsConfig(h=hops, k_per_hop=(k1,) + (k2,) * (hops - 1), u=u)


# Candidate ids one block of pivots may hold: 16 pivots of the test regime's
# largest subgraph (80 + 80 * 5 nodes, 5 wiring candidates each). On
# perfbench's cluster_test input (D = 64) a 16-pivot block held at most
# 1.3 MiB of subgraphs and peaked at 2.2 MiB while it was built (tracemalloc);
# 64 pivots held 4.8 MiB and peaked at 8.0 MiB, for no speed gain.
BLOCK_CANDIDATES = 16 * (80 + 80 * 5) * 5


@dataclass(frozen=True)
class InstancePivotSubgraph:
    pivot: int
    nodes: np.ndarray       # int32 instance ids, hop-major discovery order, pivot excluded
    hop_of: np.ndarray      # minimum hop at which each node was discovered
    features: np.ndarray    # node features minus the pivot feature (float32)
    edges: np.ndarray       # (2, m) node positions: both directions of every edge,
                            # sorted row-major as np.nonzero gives them, no self loops

    @property
    def size(self) -> int:
        return self.nodes.shape[0]

    @property
    def hop1_count(self) -> int:
        return int(np.count_nonzero(self.hop_of == 1))

    @property
    def adjacency(self) -> np.ndarray:
        """Dense symmetric 0/1 float32 adjacency with a zero diagonal. The package
        reads only `edges`; this is the tests' dense reference and perfbench's
        subgraph counters."""
        adj = np.zeros((self.size, self.size), dtype=np.float32)
        adj[self.edges[0], self.edges[1]] = 1.0
        return adj


def pivot_blocks(n: int, cfg: IpsConfig) -> list:
    """Pivot id ranges covering 0..n-1, one per block. A block holds as many
    pivots as keep the candidates of the regime's largest possible subgraphs
    within BLOCK_CANDIDATES, and at least one: 16 in the test regime (80, 5, 5)
    once N > 480, one in the train regime (200, 10, 10) once N > 1,921."""
    largest, reach = 0, 1
    for k in cfg.k_per_hop:
        reach *= k
        largest += reach
    largest = max(1, min(largest, n - 1))
    width = max((cfg.u,) + cfg.k_per_hop[1:])
    step = max(1, BLOCK_CANDIDATES // (largest * width))
    return [range(lo, min(lo + step, n)) for lo in range(0, n, step)]


def _discover(pivots: np.ndarray, nbrs: NeighborTable, cfg: IpsConfig):
    """Subgraph nodes of a block of pivots as (owner, node, hop) arrays,
    grouped by owner (the pivot's position in `pivots`). Within an owner the
    order is the one-pivot walk's: hop by hop, each hop taking the frontier's
    neighbor lists in frontier order and keeping first sightings. Owners are
    int64, so every owner * N + id key is; node ids are the table's int32.
    Each hop reads nbrs.width(k) neighbors."""
    n = nbrs.n
    owner = np.arange(pivots.size, dtype=np.int64)
    ids = pivots
    seen = owner * n + ids
    found = []
    for t, k in enumerate(map(nbrs.width, cfg.k_per_hop), 1):
        # owner-major, since the frontier is; each owner's part in walk order
        cand = nbrs.indices[ids, :k].ravel()
        cand_owner = np.repeat(owner, k)
        keys = cand_owner * n + cand
        first = np.sort(np.unique(keys, return_index=True)[1])
        first = first[~np.isin(keys[first], seen, assume_unique=True)]
        owner, ids = cand_owner[first], cand[first]
        seen = np.concatenate([seen, keys[first]])
        found.append((owner, ids, np.full(ids.size, t)))
    owner, ids, hops = (np.concatenate(parts) for parts in zip(*found))
    order = np.argsort(owner, kind="stable")
    return owner[order], ids[order], hops[order]


def _wire(owner: np.ndarray, nodes: np.ndarray, nbrs: NeighborTable, u: int):
    """Edges of every subgraph of a block: (q, r) when r is among q's top-u
    neighbors in the whole collection and both are nodes of the same
    subgraph; symmetrized. Neighbor lists exclude their own row, so there
    are no self loops. Returns (rows, cols) positions in `nodes`, both
    directions of each edge, sorted row-major. q's neighbors are the first
    nbrs.width(u) of its row."""
    n, total = nbrs.n, nodes.size
    keys = owner * n + nodes
    cand = (owner * n)[:, None] + nbrs.indices[nodes, :nbrs.width(u)]
    sorter = np.argsort(keys)
    # position of each candidate among the block's nodes; misses fail the check below
    p = sorter[np.minimum(np.searchsorted(keys[sorter], cand), total - 1)]
    hit = keys[p] == cand
    q, p = np.nonzero(hit)[0], p[hit]
    pairs = np.sort(np.concatenate([q * total + p, p * total + q]))
    first = np.ones(pairs.size, dtype=bool)
    first[1:] = pairs[1:] != pairs[:-1]
    pairs = pairs[first]
    rows = pairs // total
    return rows, pairs - rows * total


def normalize_node_features(fs: FeatureSet, pivot, nodes: np.ndarray) -> np.ndarray:
    """Node features re-expressed relative to the pivot: row q is x_q - x_p.
    `pivot` is one id, or one id per node."""
    if len(nodes) == 0:
        raise ValueError("empty node set")
    return fs.features[nodes] - fs.features[pivot]


def build_block(pivots, fs: FeatureSet, nbrs: NeighborTable, cfg: IpsConfig) -> list:
    """The subgraphs of a block of distinct pivots, in pivot order: discovery,
    pivot normalization and edges, each done once for the whole block.
    ValueError on one instance, where a pivot has no neighbor."""
    if nbrs.n < 2:
        raise ValueError(f"a subgraph needs at least 2 instances, got N={nbrs.n}")
    pivots = np.asarray(pivots, dtype=np.int64)
    owner, nodes, hops = _discover(pivots, nbrs, cfg)
    feats = normalize_node_features(fs, pivots[owner], nodes)
    rows, cols = _wire(owner, nodes, nbrs, cfg.u)
    counts = np.bincount(owner, minlength=pivots.size)
    start = np.cumsum(counts) - counts
    edges = np.stack([rows, cols]) - start[owner[rows]]
    edge_start = np.searchsorted(rows, start).tolist() + [rows.size]
    return [InstancePivotSubgraph(pivot=pivot, nodes=nodes[a:a + c], hop_of=hops[a:a + c],
                                  features=feats[a:a + c], edges=edges[:, e0:e1])
            for pivot, a, c, e0, e1 in zip(pivots.tolist(), start.tolist(), counts.tolist(),
                                           edge_start[:-1], edge_start[1:])]

