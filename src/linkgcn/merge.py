"""Turn per-pivot linkage likelihoods into a global partition."""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from linkgcn.config import PipelineConfig
from linkgcn.dataset import FeatureSet, FormatError
from linkgcn.knn import NeighborTable


@dataclass(frozen=True)
class WeightedEdgeSet:
    """Unique undirected edges (i < j) weighted by linkage likelihood, held
    as int32 ids and float32 weights (12 bytes an edge), the likelihoods'
    own dtype. A float64 weight is checked, then rounded to the nearest
    float32, so a hand-written 0.7 is stored just below 0.7. Threshold
    readers compare through float32_threshold, so a stored weight clears
    tau exactly when its float64 value does."""

    i: np.ndarray
    j: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        i = np.ascontiguousarray(self.i, dtype=np.int32)
        j = np.ascontiguousarray(self.j, dtype=np.int32)
        w = np.asarray(self.w)
        if not (i.shape == j.shape == w.shape):
            raise ValueError("edge arrays must share a shape")
        if np.any(i >= j):
            raise ValueError("edges must be canonical with i < j")
        if not np.all((w >= 0.0) & (w <= 1.0)):  # NaN fails both
            raise ValueError("edge weights must be finite and lie in [0, 1]")
        w = np.ascontiguousarray(w, dtype=np.float32)
        keys = i.astype(np.int64)  # i * (max j + 1) passes 2^31 once N > 46,341
        keys *= int(j.max()) + 1 if j.size else 1
        keys += j
        # pool_edges output is already strictly increasing: no sort needed
        if not np.all(keys[1:] > keys[:-1]):
            keys.sort()
            if np.any(keys[1:] == keys[:-1]):
                raise ValueError("duplicate edge")
        for arr in (i, j, w):
            arr.setflags(write=False)
        object.__setattr__(self, "i", i)
        object.__setattr__(self, "j", j)
        object.__setattr__(self, "w", w)

    def __len__(self):
        return self.i.shape[0]


def canonical_labels(assignment: np.ndarray) -> np.ndarray:
    """Relabel clusters densely, ordered by each cluster's smallest member."""
    assignment = np.asarray(assignment)
    _, first, inverse = np.unique(assignment, return_index=True, return_inverse=True)
    order = np.argsort(np.argsort(first))  # rank of each cluster's first occurrence
    # first occurrence order equals smallest-member order for a total assignment
    return order[inverse].astype(np.int64)


def pool_edges(hop1_nodes, likelihoods) -> WeightedEdgeSet:
    """Pool pivot->neighbor likelihoods into one undirected edge set; row p of
    the two (P, k) tables holds pivot p's neighbor ids and likelihoods. The
    id table is read as int32, without a copy when it is one, such as a
    slice of NeighborTable.indices. One sort by the int64 key min * n + max
    (n above every id), then likelihood descending, keeps each pair's larger
    likelihood, in at most 25 bytes a link beyond the tables: the keys, the
    sort order and the sorted keys, then the kept order beside them. The
    edges hold int32 ids and the likelihoods' own float32 values. ValueError names the first pivot with a non-finite
    likelihood."""
    hop1_nodes = np.asarray(hop1_nodes, dtype=np.int32)
    likelihoods = np.asarray(likelihoods)
    bad = ~np.isfinite(likelihoods).all(axis=1)
    if bad.any():
        raise ValueError(f"pivot {int(np.argmax(bad))} has a non-finite link likelihood")
    n = max(len(hop1_nodes), int(hop1_nodes.max(initial=-1)) + 1)
    pivots = np.arange(len(hop1_nodes), dtype=np.int64)[:, None]
    key = np.minimum(pivots, hop1_nodes).ravel()  # int64, as pivots are
    key *= n
    key += np.maximum(pivots, hop1_nodes).ravel()
    order = np.lexsort((-likelihoods.ravel(), key))
    key = key[order]
    first = np.ones(key.size, dtype=bool)
    first[1:] = key[1:] != key[:-1]
    order = order[first]  # one at a time: the full-length order goes before key[first]
    key = key[first]
    del first
    w = likelihoods.ravel()[order]
    del order  # before the edge set's arrays, to keep the peak down
    i, j = np.divmod(key, n, out=(np.empty(key.size, np.int32), np.empty(key.size, np.int32)),
                     casting="unsafe")
    del key  # before the edge set's duplicate check builds its own keys
    return WeightedEdgeSet(i=i, j=j, w=w)


# Fewest edges a merge reads at a time. A chunk holds at least N edges
# too, since joining a chunk flattens the whole forest (O(N)): a merge pass
# then costs O(E + N), and its working memory is O(N) plus one chunk's
# temporaries, 4.4 MB measured at 2^17 edges with every edge kept.
EDGE_CHUNK = 1 << 17


def _edge_chunk(n: int) -> int:
    """Edges a merge reads at a time over n instances."""
    return max(EDGE_CHUNK, n)


def _components(n: int, kept_edges, count: int, chunk: int) -> np.ndarray:
    """Connected-component labels, components numbered by smallest member.

    kept_edges(lo, hi) returns, as (src, dst), the edges that items lo..hi-1
    of the caller's `count` items keep; an item is an edge or a row of edges.
    They are read `chunk` items at a time, and each chunk is joined before the
    next is read, by vectorized min-label hooking: every root hooks onto the
    smallest lower root it shares an edge with, then pointer jumping flattens
    the forest, until none of the chunk's edges joins two roots. Trees only
    merge, so an edge joined stays joined. A root is always its tree's
    smallest member.
    """
    parent = np.arange(n)
    for lo in range(0, count, chunk):
        src, dst = kept_edges(lo, min(lo + chunk, count))
        while True:
            src, dst = parent[src], parent[dst]  # parent is flat: these are roots
            cross = src != dst
            if not cross.any():
                break
            src, dst = src[cross], dst[cross]
            np.minimum.at(parent, np.maximum(src, dst), np.minimum(src, dst))
            while True:
                jumped = parent[parent]
                if np.array_equal(jumped, parent):
                    break
                parent = jumped
    return np.unique(parent, return_inverse=True)[1]


def float32_threshold(tau: float) -> np.float32:
    """The smallest float32 at or above tau: a float32 value clears it exactly
    when its float64 value clears tau. NumPy compares a float32 array with a
    Python float in float32, where tau's nearest float32 may lie below tau
    (0.7, 0.35), so a bare `w >= tau` would keep weights under tau."""
    if tau > float(np.finfo(np.float32).max):
        return np.float32(np.inf)
    threshold = np.float32(tau)
    if float(threshold) < tau:
        threshold = np.nextafter(threshold, np.float32(np.inf))
    return threshold


def _edge_components(edges: WeightedEdgeSet, n: int, tau: float) -> np.ndarray:
    """Components of the edges with weight >= tau, read in chunks."""
    threshold = float32_threshold(tau)

    def kept_edges(lo, hi):
        kept = edges.w[lo:hi] >= threshold
        return edges.i[lo:hi][kept], edges.j[lo:hi][kept]
    return _components(n, kept_edges, len(edges), _edge_chunk(n))


def table_components(n: int, indices: np.ndarray, keep) -> np.ndarray:
    """Components of the links from each row r of an (n, k) kNN table to its
    listed neighbors, kept where keep(lo, hi) is true, an (hi - lo, k) mask
    over rows lo..hi-1; read in blocks of about _edge_chunk(n) links."""
    def kept_edges(lo, hi):
        rows, cols = np.nonzero(keep(lo, hi))
        return rows + lo, indices[lo:hi][rows, cols]
    return _components(n, kept_edges, n, max(1, _edge_chunk(n) // max(1, indices.shape[1])))


STRATEGIES = ("propagate", "bfs")

MAX_ROUNDS = 10_000  # most rounds a propagation schedule may need; each takes ms


def check_merge(merge="propagate", *, tau=None, tau0=None, dtau=None, max_size=None) -> None:
    """Raise ValueError naming the first bad merge setting; None skips a setting."""
    if merge not in STRATEGIES:
        raise ValueError(f"merge must be one of {', '.join(STRATEGIES)}, got {merge!r}")
    if tau is not None and not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must lie in [0, 1], got {tau}")
    if tau0 is not None and not 0.0 <= tau0 < 1.0:
        raise ValueError(f"tau0 must lie in [0, 1), got {tau0}")
    if dtau is not None and not 0.0 < dtau < np.inf:
        raise ValueError(f"dtau must be finite and > 0, got {dtau}")
    if tau0 is not None and dtau is not None and (1.0 - tau0) / dtau > MAX_ROUNDS - 2:
        rounds = np.ceil((1.0 - tau0) / dtau) + 2
        raise ValueError(f"dtau {dtau} from tau0 {tau0} needs up to {rounds:.0f} "
                         f"propagation rounds, more than {MAX_ROUNDS}")
    if max_size is not None and max_size < 1:
        raise ValueError(f"max_size must be >= 1, got {max_size}")


def bfs_cluster(edges: WeightedEdgeSet, tau: float, n: int) -> np.ndarray:
    """Components of the graph keeping edges with weight >= tau."""
    check_merge("bfs", tau=tau)
    return _edge_components(edges, n, tau)


def propagate_cluster(edges: WeightedEdgeSet, n: int, tau0: float = PipelineConfig.tau0,
                      dtau: float = PipelineConfig.dtau,
                      max_size: int = PipelineConfig.max_size) -> np.ndarray:
    """Iterative pseudo-label propagation.

    Round t cuts the whole graph at tau0 + t * dtau, as bfs_cluster does;
    queued components no larger than max_size are finalized, larger ones
    stay queued. Past tau = 1 every component is a singleton, so at most
    ceil((1 - tau0) / dtau) + 2 <= MAX_ROUNDS rounds run. A round keeps
    O(N) arrays and reads the edges in chunks, copying none whole.
    """
    check_merge(tau0=tau0, dtau=dtau, max_size=max_size)
    assignment = np.full(n, -1, dtype=np.int64)
    t = 0
    # Thresholds never fall, so each cut refines the last, and components are
    # finalized or re-queued whole: the queue is a union of whole components
    # of every later cut, and cutting the whole graph gives queued nodes the
    # components and sizes that cutting only their edges would. Weights lie
    # in [0, 1], so past tau = 1 every node is a singleton, which max_size >= 1 accepts.
    while (queued := assignment < 0).any():
        comp = _edge_components(edges, n, tau0 + t * dtau)
        done = queued & (np.bincount(comp)[comp] <= max_size)
        # component ids are < n, so an offset of n per round keeps labels
        # distinct across rounds; canonical_labels renumbers them at the end
        assignment[done] = t * n + comp[done]
        t += 1
    return canonical_labels(assignment)


def filter_singletons(assignment: np.ndarray):
    """Mask out size-1 clusters; returns (keep mask, fraction removed)."""
    assignment = np.asarray(assignment)
    _, which, sizes = np.unique(assignment, return_inverse=True, return_counts=True)
    mask = sizes[which] > 1
    return mask, float(np.sum(~mask)) / assignment.shape[0]


def check_tau_sim(tau_sim: float) -> None:
    """Raise ValueError unless tau_sim is a cosine similarity, in [-1, 1]."""
    if not (-1.0 <= tau_sim <= 1.0):
        raise ValueError(f"tau_sim={tau_sim} outside [-1, 1]")


def threshold_baseline(fs: FeatureSet, nbrs: NeighborTable, tau_sim: float) -> np.ndarray:
    """Non-learned comparator: link kNN pairs whose raw cosine similarity
    clears a global threshold, then take components."""
    check_tau_sim(tau_sim)
    threshold = float32_threshold(tau_sim)
    return table_components(fs.n, nbrs.indices,
                            lambda lo, hi: nbrs.similarities[lo:hi] >= threshold)


# ---------------------------------------------------------------------------
# text IO

# an optional minus and at most 18 ASCII digits, so every value fits int64
_INT64_TOKEN = re.compile(rb"-?[0-9]{1,18}")


def save_partition(assignment: np.ndarray, path) -> None:
    with open(path, "w") as fh:
        for i, c in enumerate(assignment):
            fh.write(f"{i}\t{int(c)}\n")


def load_partition(path) -> np.ndarray:
    """Read `id<TAB>cluster` lines of ASCII decimal integers; ids must be
    exactly 0..N-1 in any order, N >= 1, and cluster labels non-negative."""
    ids, clusters = [], []
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            fields = line.split(b"\t")
            if len(fields) != 2 or not all(_INT64_TOKEN.fullmatch(tok) for tok in fields):
                raise FormatError(f"{path}:{lineno}: expected two tab-separated "
                                  f"integers, got {line[:40]!r}")
            ids.append(int(fields[0]))
            clusters.append(int(fields[1]))
    if not ids:
        raise FormatError(f"{path}: no partition lines")
    ids = np.asarray(ids, dtype=np.int64)
    clusters = np.asarray(clusters, dtype=np.int64)
    n = ids.shape[0]
    if ids.min() < 0 or ids.max() >= n:
        raise FormatError(f"{path}: instance ids must lie in [0, {n - 1}] for {n} lines")
    if np.unique(ids).size != n:
        raise FormatError(f"{path}: duplicate instance id")
    if clusters.min() < 0:
        raise FormatError(f"{path}: negative cluster label")
    out = np.empty(n, dtype=np.int64)
    out[ids] = clusters
    return out


def save_edges(edges: WeightedEdgeSet, path) -> None:
    with open(path, "w") as fh:
        for a, b, w in zip(edges.i, edges.j, edges.w):
            fh.write(f"{int(a)}\t{int(b)}\t{w:.6f}\n")
