"""Exact brute-force k-nearest-neighbor search under cosine similarity."""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from linkgcn import _kernels
from linkgcn.dataset import FeatureSet, FormatError

NBRT_MAGIC = b"NBRT"
NBRT_VERSION = 1


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


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """dot(a, b) / (|a| |b|) with float64 accumulation."""
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        raise ValueError("cosine similarity undefined for a zero vector")
    return float(a @ b / (na * nb))


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


def save_neighbors(table: NeighborTable, path) -> None:
    with open(path, "wb") as fh:
        fh.write(NBRT_MAGIC)
        fh.write(struct.pack("<IQI", NBRT_VERSION, table.n, table.k))
        fh.write(table.indices.astype("<u8").tobytes())
        fh.write(table.similarities.astype("<f4").tobytes())


def load_neighbors(path) -> NeighborTable:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != NBRT_MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r}")
        version, n, k = struct.unpack("<IQI", fh.read(16))
        if version != NBRT_VERSION:
            raise FormatError(f"{path}: unsupported version {version}")
        idx = np.frombuffer(fh.read(n * k * 8), dtype="<u8")
        sim = np.frombuffer(fh.read(n * k * 4), dtype="<f4")
    if idx.size != n * k or sim.size != n * k:
        raise FormatError(f"{path}: truncated payload")
    return NeighborTable(indices=idx.astype(np.int64).reshape(n, k),
                         similarities=sim.reshape(n, k))
