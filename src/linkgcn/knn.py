"""Exact brute-force k-nearest-neighbor search under cosine similarity, and
the thread rule and thread loop of every stage that splits its work."""

from __future__ import annotations

import os
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from linkgcn.dataset import FeatureSet


@dataclass(frozen=True)
class NeighborTable:
    """Per-instance top-k neighbor ids and cosine similarities.

    Rows are sorted by descending similarity; exact ties are broken by
    ascending instance id. An instance never lists itself. Ids are held as
    int32 (4 bytes a link rather than 8), so N stays below 2^31; a key that
    combines two ids, such as owner * N + id, must be computed in int64.
    """

    indices: np.ndarray       # N x k int32
    similarities: np.ndarray  # N x k float32

    def __post_init__(self):
        idx = np.ascontiguousarray(self.indices, dtype=np.int32)
        sim = np.ascontiguousarray(self.similarities, dtype=np.float32)
        if idx.ndim != 2 or idx.shape != sim.shape:
            raise ValueError("indices and similarities must share an N x k shape")
        if idx.shape[1] > idx.shape[0] - 1:
            raise ValueError(f"k={idx.shape[1]} must be <= N-1={idx.shape[0] - 1}")
        idx.setflags(write=False)
        sim.setflags(write=False)
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "similarities", sim)

    @property
    def n(self) -> int:
        return self.indices.shape[0]

    @property
    def k(self) -> int:
        return self.indices.shape[1]

    def width(self, k: int) -> int:
        """Columns a reader of k neighbors per instance takes: min(k, N-1), as no
        instance has more. ValueError when the table is narrower than that."""
        if min(k, self.n - 1) > self.k:
            raise ValueError(f"k={k} exceeds neighbor table k={self.k}")
        return min(k, self.n - 1)


# The variables OpenBLAS reads its thread count from at start-up, first match wins.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def thread_count(workers: int) -> int:
    """Threads for a `workers` setting: as given, or for 0 usable cores //
    BLAS pool size, which is 1 when BLAS already fills the cores; never more
    than the usable cores. As at OpenBLAS start-up, the pool is the first
    positive integer among BLAS_THREAD_VARS, capped at the cores, or all cores
    if none is set."""
    if workers < 0:
        raise ValueError(f"workers must be >= 0 (0 derives the count), got {workers}")
    cores = len(os.sched_getaffinity(0))
    if workers == 0:
        workers = 1
        for var in BLAS_THREAD_VARS:
            value = os.environ.get(var, "").strip()
            if value.isdecimal() and int(value) > 0:
                workers = cores // min(int(value), cores)
                break
    return min(workers, cores)


def run_threads(fn, items, threads: int) -> None:
    """Call fn on every item on min(threads, len(items)) threads, this one among
    them, all taking items from one iterator. Returns once every helper has
    finished; the first exception stops new items and reaches the caller."""
    todo, lock, failed = iter(items), threading.Lock(), threading.Event()

    def take():
        with lock:
            return todo if failed.is_set() else next(todo, todo)  # todo: none left

    def drain():
        try:
            for item in iter(take, todo):
                fn(item)
        except BaseException:
            failed.set()
            raise

    if (helpers := min(threads, len(items)) - 1) < 1:
        return drain()
    with ThreadPoolExecutor(max_workers=helpers) as pool:
        results = pool.map(lambda _: drain(), range(helpers))
        drain()
    list(results)


def build_knn(fs: FeatureSet, k: int, workers: int = 0) -> NeighborTable:
    """Exact top-k neighbors of every instance; O(N^2 D) brute force.

    Ordering is by cosine similarity whether or not the rows were
    pre-normalized, with ties broken by ascending instance id. Rows are
    divided by their own norms and kept only as one C-contiguous (D, N)
    float64 array, from which topk_cosine's matmuls read. Row blocks are
    spread over thread_count(workers) threads, each computing a block's
    similarities and its top-k in one block of block_rows(N) rows: 128 up to
    N = 16,384, ~16 MiB beyond. Worker-count invariant.

    No instance has more than N-1 neighbors, so a k >= N is clamped to N-1
    with one warning, and every reader takes NeighborTable.width(k) columns.
    One instance has none: its table is (1, 0), and no search runs.
    """
    threads = thread_count(workers)
    if k < 1:
        raise ValueError("k must be >= 1")
    if fs.n == 1:
        return NeighborTable(indices=np.empty((1, 0)), similarities=np.empty((1, 0)))
    if k >= fs.n:
        warnings.warn(f"kNN width clamped to N-1={fs.n - 1}: k {k} -> {fs.n - 1}")
        k = fs.n - 1
    unit = fs.features.astype(np.float64)
    norms = np.linalg.norm(unit, axis=1)
    if np.any(norms == 0.0):
        raise ValueError("zero-norm row; cosine ordering undefined")
    unit_t = np.divide(unit.T, norms, out=np.empty(unit.shape[::-1]))
    del unit
    idx, sim = topk_cosine(unit_t.T, k, workers=threads)
    return NeighborTable(indices=idx, similarities=sim)


def block_rows(n: int) -> int:
    """Rows in one of topk_cosine's similarity blocks over n instances: n up
    to N = 128, 128 up to N = 16,384, and 2,097,152 / n (~16 MiB) beyond.
    Depends only on n, so results do not depend on the thread count."""
    return max(1, min(n, 128, (16 << 20) // (8 * n)))


def topk_cosine(unit: np.ndarray, k: int, workers: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Exact top-k neighbor ids (int32) and similarities (float32) per row
    of the (N, D) `unit`, self excluded, ordered by (similarity desc, id
    asc) of the float64 similarities. Rows are assumed unit-normalized.
    Selection works on int64 partition indices; only the kept ids are
    narrowed to int32 as they are stored.

    The rows are read as one C-contiguous (D, N) float64 array, the
    transpose of `unit`: no copy when `unit` is such an array's .T view, as
    build_knn passes. run_threads hands whole row blocks of block_rows(N)
    rows to `workers` threads. Each thread computes a block's similarities
    with one float64 matmul of the block's columns, transposed, against the
    whole array, which BLAS packs from contiguous memory, into its own
    buffer, allocated once and reused. It then selects the block's rows in
    chunks of ~1 MiB of partition indices (_select_rows) while the block is
    still in cache. Scratch memory is, per thread, one block plus about
    1 MiB: 1,024 bytes per instance up to N = 16,384, ~17 MiB beyond.
    """
    unit_t = np.ascontiguousarray(unit.T, dtype=np.float64)
    n = unit_t.shape[1]
    out_idx = np.empty((n, k), dtype=np.int32)
    out_sim = np.empty((n, k), dtype=np.float32)
    block = block_rows(n)
    chunk = max(1, min(block, (1 << 20) // (8 * n)))  # ~1 MiB of int64 indices
    scratch = threading.local()

    def run_block(start):
        buf = getattr(scratch, "buf", None)
        if buf is None:
            buf = scratch.buf = np.empty((block, n), dtype=np.float64)
        stop = min(start + block, n)
        sims = np.matmul(unit_t[:, start:stop].T, unit_t, out=buf[:stop - start])
        sims[np.arange(stop - start), np.arange(start, stop)] = -np.inf  # self excluded
        for lo in range(start, stop, chunk):
            hi = min(lo + chunk, stop)
            _select_rows(sims[lo - start:hi - start], k, out_idx[lo:hi], out_sim[lo:hi])

    run_threads(run_block, range(0, n, block), workers)
    return out_idx, out_sim


def _select_rows(sims: np.ndarray, k: int, out_idx: np.ndarray, out_sim: np.ndarray) -> None:
    """Write the top-k columns of each row of sims, by (similarity desc, id
    asc), into out_idx and their similarities into out_sim, which rounds
    them to its own dtype.

    One partition finds each row's k + 1 largest entries, which are sorted.
    Where the (k+1)-th value is below the k-th, every column left out is below
    the k-th too, so the first k are exact. Where the two tie, more columns
    outside may tie as well, so every column at or above the k-th value is a
    candidate, and the candidates are sorted."""
    n = sims.shape[1]
    rows = np.arange(len(sims))[:, None]
    top = np.argpartition(sims, n - k - 1, axis=1)[:, n - k - 1:]
    vals = sims[rows, top]
    order = np.lexsort((top, -vals), axis=1)
    top, vals = top[rows, order], vals[rows, order]
    out_idx[:] = top[:, :k]
    out_sim[:] = vals[:, :k]
    for r in np.flatnonzero(vals[:, k] == vals[:, k - 1]):
        s = sims[r]
        cand = np.flatnonzero(s >= vals[r, k - 1])
        best = cand[np.lexsort((cand, -s[cand]))[:k]]
        out_idx[r] = best
        out_sim[r] = s[best]
