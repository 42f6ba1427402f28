"""Exact cosine top-k, the kNN stage's hot kernel.

Dot products accumulate in float64 and similarity ties break by ascending
instance id, so results are deterministic. The top-k selects by a partition
of chunks of rows, not a full sort.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

# There are no compiled kernels; perfbench/bench.py still records this flag.
HAS_NUMBA = False


def topk_cosine(unit: np.ndarray, k: int, workers: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Exact top-k neighbor ids and similarities per row, self excluded,
    ordered by (similarity desc, id asc). Rows are assumed unit-normalized.

    Similarities are one float64 matmul per row block, into one block of at
    most ~64 MiB allocated once and reused. Each block's rows are selected in
    chunks of ~1 MiB of partition indices (_select_rows), which `workers`
    threads split (never more threads than a block has chunks); the result
    does not depend on the thread count. Scratch memory is the block plus
    about 1 MiB per thread.
    """
    unit = np.ascontiguousarray(unit, dtype=np.float64)
    n = unit.shape[0]
    out_idx = np.empty((n, k), dtype=np.int64)
    out_sim = np.empty((n, k), dtype=np.float64)
    block = max(1, min(n, (64 << 20) // (8 * n)))  # cap scratch at ~64MB
    chunk = max(1, min(block, (1 << 20) // (8 * n)))  # ~1 MiB of int64 indices
    buf = np.empty((block, n), dtype=np.float64)
    threads = max(1, min(workers, -(-block // chunk)))
    # an executor starts no thread until work is submitted, so one thread is serial
    with ThreadPoolExecutor(max_workers=threads) as pool:
        mapper = pool.map if threads > 1 else map
        for start in range(0, n, block):
            stop = min(start + block, n)
            sims = np.matmul(unit[start:stop], unit.T, out=buf[:stop - start])
            sims[np.arange(stop - start), np.arange(start, stop)] = -np.inf  # self excluded

            def select(lo):
                hi = min(lo + chunk, stop)
                _select_rows(sims[lo - start:hi - start], k, out_idx[lo:hi], out_sim[lo:hi])

            list(mapper(select, range(start, stop, chunk)))
    return out_idx, out_sim


def _select_rows(sims: np.ndarray, k: int, out_idx: np.ndarray, out_sim: np.ndarray) -> None:
    """Write the top-k columns of each row of sims, by (similarity desc, id
    asc), into out_idx and out_sim.

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
