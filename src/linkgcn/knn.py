"""Exact brute-force k-nearest-neighbor search under cosine similarity."""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from linkgcn import _kernels
from linkgcn.dataset import FeatureSet


@dataclass(frozen=True)
class NeighborTable:
    """Per-instance top-k neighbor ids and cosine similarities.

    Rows are sorted by descending similarity; exact ties are broken by
    ascending instance id. An instance never lists itself.
    """

    indices: np.ndarray       # N x k int64
    similarities: np.ndarray  # N x k float32

    def __post_init__(self):
        idx = np.ascontiguousarray(self.indices, dtype=np.int64)
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


# The variables OpenBLAS reads its thread count from at start-up, first match wins.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def idle_core_workers(cores: int) -> int:
    """Worker threads that fill the cores the BLAS pool leaves idle: cores //
    pool size. As at OpenBLAS start-up, the pool is the first positive integer
    among BLAS_THREAD_VARS, capped at cores, or all cores if none is set."""
    for var in BLAS_THREAD_VARS:
        value = os.environ.get(var, "").strip()
        if value.isdecimal() and int(value) > 0:
            return cores // min(int(value), cores)
    return 1


def thread_count(workers: int) -> int:
    """Threads for a `workers` setting: as given, or for 0 as many as the BLAS
    pool leaves cores idle (idle_core_workers), which is 1 when BLAS already
    fills the cores; never more than the usable cores."""
    if workers < 0:
        raise ValueError(f"workers must be >= 0 (0 derives the count), got {workers}")
    cores = len(os.sched_getaffinity(0))
    return min(workers or idle_core_workers(cores), cores)


def build_knn(fs: FeatureSet, k: int, workers: int = 0) -> NeighborTable:
    """Exact top-k neighbors of every instance; O(N^2 D) brute force.

    Ordering is by cosine similarity whether or not the rows were
    pre-normalized, with ties broken by ascending instance id. Each row
    block's top-k is selected on thread_count(workers) threads. Worker-count
    invariant.
    """
    threads = thread_count(workers)
    if k < 1:
        raise ValueError("k must be >= 1")
    if k >= fs.n:
        raise ValueError(f"k={k} must be < N={fs.n}")
    unit = fs.features.astype(np.float64)
    norms = np.linalg.norm(unit, axis=1)
    if np.any(norms == 0.0):
        raise ValueError("zero-norm row; cosine ordering undefined")
    unit /= norms[:, None]
    idx, sim = _kernels.topk_cosine(unit, k, workers=threads)
    return NeighborTable(indices=idx, similarities=sim.astype(np.float32))

