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


# Pivots in a scoring block, as many as a default training batch builds. On
# perfbench's cluster_test input (D = 64) 16 test-regime pivots held at most
# 1.3 MiB and peaked at 2.2 MiB while built (tracemalloc); 64 held 4.8 MiB,
# peaked at 8.0 MiB and ran no faster.
BLOCK_PIVOTS = 16


@dataclass(frozen=True)
class InstancePivotSubgraph:
    pivot: int
    nodes: np.ndarray       # int32 instance ids, hop-major discovery order, pivot excluded
    hop1_count: int         # the first hop1_count nodes are the pivot's 1-hop nodes
    features: np.ndarray    # node features minus the pivot feature (float32)
    edges: np.ndarray       # (2, m) node positions: both directions of every edge,
                            # sorted row-major as np.nonzero gives them, no self loops

    @property
    def size(self) -> int:
        return self.nodes.shape[0]

    @property
    def adjacency(self) -> np.ndarray:
        """Dense symmetric 0/1 float32 adjacency with a zero diagonal. The package
        reads only `edges`; this is the tests' dense reference and perfbench's
        subgraph counters."""
        adj = np.zeros((self.size, self.size), dtype=np.float32)
        adj[self.edges[0], self.edges[1]] = 1.0
        return adj


def _discover(pivots: np.ndarray, nbrs: NeighborTable, cfg: IpsConfig):
    """Subgraph nodes of a block of pivots as (owner, node) arrays, grouped by
    owner (the pivot's position in `pivots`), and each owner's count of 1-hop
    nodes, those a pivot's row gave that were not the pivot. Within an owner the
    order is the one-pivot walk's: hop by hop, each hop taking the frontier's
    neighbor lists in frontier order and keeping first sightings. Owners are
    int64, so every owner * N + id key is; node ids are the table's int32.
    Each hop reads nbrs.width(k) neighbors."""
    n = nbrs.n
    owner = np.arange(pivots.size, dtype=np.int64)
    ids = pivots
    seen = owner * n + ids
    found = []
    for k in map(nbrs.width, cfg.k_per_hop):
        # owner-major, since the frontier is; each owner's part in walk order
        cand = nbrs.indices[ids, :k].ravel()
        cand_owner = np.repeat(owner, k)
        keys = cand_owner * n + cand
        first = np.sort(np.unique(keys, return_index=True)[1])
        first = first[~np.isin(keys[first], seen, assume_unique=True)]
        owner, ids = cand_owner[first], cand[first]
        seen = np.concatenate([seen, keys[first]])
        found.append((owner, ids))
    hop1_counts = np.bincount(found[0][0], minlength=pivots.size)
    owner, ids = (np.concatenate(parts) for parts in zip(*found))
    order = np.argsort(owner, kind="stable")
    return owner[order], ids[order], hop1_counts


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
    # sort and mask, not np.unique: 0.6 ms against 3.6 ms on 33k int64 keys (numpy 2.4.6)
    pairs = np.sort(np.concatenate([q * total + p, p * total + q]))
    first = np.ones(pairs.size, dtype=bool)
    first[1:] = pairs[1:] != pairs[:-1]
    pairs = pairs[first]
    rows = pairs // total
    return rows, pairs - rows * total


def normalize_node_features(fs: FeatureSet, pivot, nodes: np.ndarray) -> np.ndarray:
    """Node features re-expressed relative to the pivot: row q is x_q - x_p,
    subtracted in place from the gathered rows. `pivot` is one id, or one id per node."""
    if len(nodes) == 0:
        raise ValueError("empty node set")
    out = fs.features[nodes]
    return np.subtract(out, fs.features[pivot], out=out)


def build_block(pivots, fs: FeatureSet, nbrs: NeighborTable, cfg: IpsConfig) -> list:
    """The subgraphs of a block of distinct pivots, in pivot order: discovery,
    pivot normalization and edges, each done once for the whole block.
    ValueError on one instance, where a pivot has no neighbor."""
    if nbrs.n < 2:
        raise ValueError(f"a subgraph needs at least 2 instances, got N={nbrs.n}")
    pivots = np.asarray(pivots, dtype=np.int64)
    owner, nodes, hop1_counts = _discover(pivots, nbrs, cfg)
    feats = normalize_node_features(fs, pivots[owner], nodes)
    rows, cols = _wire(owner, nodes, nbrs, cfg.u)
    counts = np.bincount(owner, minlength=pivots.size)
    start = np.cumsum(counts) - counts
    edges = np.stack([rows, cols]) - start[owner[rows]]
    edge_start = np.searchsorted(rows, start).tolist() + [rows.size]
    return [InstancePivotSubgraph(pivot=pivot, nodes=nodes[a:a + c], hop1_count=h1,
                                  features=feats[a:a + c], edges=edges[:, e0:e1])
            for pivot, a, c, h1, e0, e1 in zip(pivots.tolist(), start.tolist(), counts.tolist(),
                                               hop1_counts.tolist(), edge_start, edge_start[1:])]

