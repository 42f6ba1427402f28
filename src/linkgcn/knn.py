"""Exact brute-force k-nearest-neighbor search under cosine similarity."""

from __future__ import annotations

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


def build_knn(fs: FeatureSet, k: int) -> NeighborTable:
    """Exact top-k neighbors of every instance; O(N^2 D) brute force.

    Ordering is by cosine similarity whether or not the rows were
    pre-normalized, with ties broken by ascending instance id.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if k >= fs.n:
        raise ValueError(f"k={k} must be < N={fs.n}")
    unit = fs.features.astype(np.float64)
    norms = np.linalg.norm(unit, axis=1)
    if np.any(norms == 0.0):
        raise ValueError("zero-norm row; cosine ordering undefined")
    unit /= norms[:, None]
    idx, sim = _kernels.topk_cosine(unit, k)
    return NeighborTable(indices=idx, similarities=sim.astype(np.float32))

