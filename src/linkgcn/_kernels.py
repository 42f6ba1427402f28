"""Exact cosine top-k, the kNN stage's hot kernel.

Dot products accumulate in float64 and similarity ties break by ascending
instance id, so results are deterministic. The top-k selects by per-row
partition, not a full sort.
"""

from __future__ import annotations

import numpy as np

# There are no compiled kernels; perfbench/bench.py still records this flag.
HAS_NUMBA = False


def topk_cosine(unit: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact top-k neighbor ids and similarities per row, self excluded.
    Rows are assumed unit-normalized.

    Each row is partitioned on its own at the k-th largest similarity; every
    column at or above that value is a candidate, so all ties at the boundary
    are kept, and only the candidates are sorted by (similarity desc, id asc).
    Scratch memory is one similarity block of at most ~64 MiB plus one row.
    """
    unit = np.ascontiguousarray(unit, dtype=np.float64)
    n = unit.shape[0]
    out_idx = np.empty((n, k), dtype=np.int64)
    out_sim = np.empty((n, k), dtype=np.float64)
    block = max(1, min(n, (64 << 20) // (8 * n)))  # cap scratch at ~64MB
    for start in range(0, n, block):
        stop = min(start + block, n)
        sims = unit[start:stop] @ unit.T
        sims[np.arange(stop - start), np.arange(start, stop)] = -np.inf  # self excluded
        # one row at a time: a block-wide partition would copy the whole block
        for r, s in enumerate(sims):
            kth = np.partition(s, n - k)[n - k]
            cand = np.flatnonzero(s >= kth)
            # primary key: similarity descending; ties by ascending id
            order = cand[np.lexsort((cand, -s[cand]))[:k]]
            out_idx[start + r] = order
            out_sim[start + r] = s[order]
    return out_idx, out_sim

