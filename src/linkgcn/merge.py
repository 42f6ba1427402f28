"""Turn per-pivot linkage likelihoods into a global partition."""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from linkgcn.dataset import FeatureSet, FormatError
from linkgcn.knn import NeighborTable


@dataclass(frozen=True)
class WeightedEdgeSet:
    """Unique undirected edges (i < j) weighted by linkage likelihood."""

    i: np.ndarray
    j: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        i = np.ascontiguousarray(self.i, dtype=np.int64)
        j = np.ascontiguousarray(self.j, dtype=np.int64)
        w = np.ascontiguousarray(self.w, dtype=np.float64)
        if not (i.shape == j.shape == w.shape):
            raise ValueError("edge arrays must share a shape")
        if np.any(i >= j):
            raise ValueError("edges must be canonical with i < j")
        if not np.all((w >= 0.0) & (w <= 1.0)):  # NaN fails both
            raise ValueError("edge weights must be finite and lie in [0, 1]")
        keys = i * (j.max() + 1 if j.size else 1)
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
    the two (P, k) tables holds pivot p's neighbor ids and likelihoods. One
    sort by key min * n + max (n above every id), then likelihood descending,
    keeps each pair's larger likelihood in at most ~42 bytes a link beyond the
    tables. ValueError names the first pivot with a non-finite likelihood."""
    hop1_nodes, likelihoods = np.asarray(hop1_nodes, dtype=np.int64), np.asarray(likelihoods)
    bad = ~np.isfinite(likelihoods).all(axis=1)
    if bad.any():
        raise ValueError(f"pivot {int(np.argmax(bad))} has a non-finite link likelihood")
    n = max(len(hop1_nodes), int(hop1_nodes.max(initial=-1)) + 1)
    pivots = np.arange(len(hop1_nodes))[:, None]
    key = np.minimum(pivots, hop1_nodes).ravel()
    key *= n
    key += np.maximum(pivots, hop1_nodes).ravel()
    order = np.lexsort((-likelihoods.ravel(), key))
    key = key[order]
    first = np.ones(key.size, dtype=bool)
    first[1:] = key[1:] != key[:-1]
    order, key = order[first], key[first]
    w = likelihoods.ravel()[order].astype(np.float64)
    del order  # before the edge set's arrays, to keep the peak down
    j = key % n
    key //= n
    return WeightedEdgeSet(i=key, j=j, w=w)


def _components(n: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Connected-component labels, components numbered by smallest member.

    Vectorized min-label hooking: each root hooks onto the smallest lower
    root it shares an edge with, then pointer jumping flattens the forest;
    this repeats until no edge joins two roots. A root is always its tree's
    smallest member.
    """
    parent = np.arange(n)
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    while True:
        ps, pd = parent[src], parent[dst]
        cross = ps != pd
        if not cross.any():
            break
        ps, pd = ps[cross], pd[cross]
        np.minimum.at(parent, np.maximum(ps, pd), np.minimum(ps, pd))
        while True:
            jumped = parent[parent]
            if np.array_equal(jumped, parent):
                break
            parent = jumped
    return np.unique(parent, return_inverse=True)[1]


def bfs_cluster(edges: WeightedEdgeSet, tau: float, n: int) -> np.ndarray:
    """Components of the graph keeping edges with weight >= tau."""
    if not (0.0 <= tau <= 1.0):
        raise ValueError(f"tau={tau} outside [0, 1]")
    keep = edges.w >= tau
    return _components(n, edges.i[keep], edges.j[keep])


def propagate_cluster(edges: WeightedEdgeSet, n: int, tau0: float = 0.5,
                      dtau: float = 0.05, max_size: int = 600) -> np.ndarray:
    """Iterative pseudo-label propagation.

    Each round cuts edges below a threshold that rises by dtau; components
    no larger than max_size are finalized, larger ones are re-queued. Once
    the threshold passes 1 every component is a singleton, so the loop
    terminates within ceil((1 - tau0) / dtau) + 2 rounds.
    """
    if not (0.0 <= tau0 < 1.0):
        raise ValueError(f"tau0={tau0} outside [0, 1)")
    if not 0.0 < dtau < np.inf:
        raise ValueError(f"dtau={dtau} must be finite and positive")
    if max_size < 1:
        raise ValueError(f"max_size={max_size} must be >= 1")

    assignment = np.full(n, -1, dtype=np.int64)
    queued = np.ones(n, dtype=bool)
    t = 0
    while queued.any():
        tau = tau0 + t * dtau
        keep = (edges.w >= tau) & queued[edges.i] & queued[edges.j]
        comp = _components(n, edges.i[keep], edges.j[keep])
        sizes = np.bincount(comp[queued], minlength=n)
        done = queued & ((sizes[comp] <= max_size) | (tau > 1.0))
        # component ids are < n, so an offset of n per round keeps labels
        # distinct across rounds; canonical_labels renumbers them at the end
        assignment[done] = t * n + comp[done]
        queued &= ~done
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
    keep = nbrs.similarities.astype(np.float64) >= tau_sim
    src = np.repeat(np.arange(fs.n), nbrs.k)[keep.ravel()]
    dst = nbrs.indices.ravel()[keep.ravel()]
    return _components(fs.n, src, dst)


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
