"""Feature collections: binary file IO, synthesis and row normalization."""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from linkgcn.config import seed_stream

FMAT_MAGIC = b"FMAT"
LBLS_MAGIC = b"LBLS"
FORMAT_VERSION = 1


class FormatError(ValueError):
    """Raised when a binary feature/label file is malformed."""


def check_labels(labels: np.ndarray) -> None:
    """Raise ValueError naming the first label below -1, the distractor label.
    A clean array costs one min(), which allocates nothing."""
    if labels.size and labels.min() < -1:
        first = int(np.argmax(labels < -1))
        raise ValueError(f"label {labels[first]} at index {first} is below -1")


@dataclass(frozen=True)
class FeatureSet:
    """An N x D matrix of float32 embeddings with optional identity labels.

    Label -1 marks a distractor (no valid identity); no label may lie below
    it. Immutable after construction; the arrays are marked read-only.
    """

    features: np.ndarray
    labels: np.ndarray | None = None
    normalized: bool = False

    def __post_init__(self):
        feats = np.ascontiguousarray(self.features, dtype=np.float32)
        if feats.ndim != 2 or feats.shape[0] < 1 or feats.shape[1] < 1:
            raise ValueError(f"features must be a non-empty 2-D matrix, got shape {feats.shape}")
        if not np.all(np.isfinite(feats)):
            raise ValueError("features contain NaN/Inf entries")
        object.__setattr__(self, "features", feats)
        if self.labels is not None:
            labels = np.ascontiguousarray(self.labels, dtype=np.int64)
            if labels.shape != (feats.shape[0],):
                raise ValueError(f"labels length {labels.shape} does not match N={feats.shape[0]}")
            check_labels(labels)
            labels.setflags(write=False)
            object.__setattr__(self, "labels", labels)
        if self.normalized:
            norms = np.linalg.norm(feats.astype(np.float64), axis=1)
            if np.max(np.abs(norms - 1.0)) > 1e-5:
                raise ValueError("normalized flag set but rows are not unit-norm")
        feats.setflags(write=False)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for a synthetic mixture with per-identity density variation."""

    num_identities: int
    samples_per_identity: tuple  # inclusive (lo, hi)
    dim: int
    center_spread: float = 1.0
    noise_scale: tuple = (0.1, 0.1)  # inclusive (lo, hi), drawn log-uniform
    outlier_fraction: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.num_identities < 1 or self.dim < 1:
            raise ValueError("num_identities and dim must be positive")
        lo, hi = self.samples_per_identity
        if not (1 <= lo <= hi):
            raise ValueError(f"empty samples_per_identity range {self.samples_per_identity}")
        nlo, nhi = self.noise_scale
        if not (0 < nlo <= nhi):
            raise ValueError(f"invalid noise_scale range {self.noise_scale}")
        if self.center_spread <= 0:
            raise ValueError("center_spread must be positive")
        if not (0 <= self.outlier_fraction < 1):
            raise ValueError("outlier_fraction must be in [0, 1)")


def read_struct(fh, path, fmt: str, what: str) -> tuple:
    """One packed value or tuple of the struct format fmt."""
    raw = fh.read(struct.calcsize(fmt))
    if len(raw) < struct.calcsize(fmt):
        raise FormatError(f"{path}: truncated {what}")
    return struct.unpack(fmt, raw)


def read_header(fh, path, magic: bytes, version: int, fmt: str) -> tuple:
    """Check the magic, then the uint32 format version, and return the header
    fields that follow, unpacked with fmt."""
    got = fh.read(len(magic))
    if got != magic:
        raise FormatError(f"{path}: bad magic {got!r}, expected {magic!r}")
    (got_version,) = read_struct(fh, path, "<I", "header")
    if got_version != version:
        raise FormatError(f"{path}: unsupported version {got_version}")
    return read_struct(fh, path, fmt, "header")


def read_array(fh, path, dtype, shape: tuple, what: str) -> np.ndarray:
    """A C-ordered array read straight into its own buffer, once its size is
    checked against the bytes left in the file."""
    nbytes = math.prod(shape) * np.dtype(dtype).itemsize
    have = os.fstat(fh.fileno()).st_size - fh.tell()
    if have < nbytes:
        raise FormatError(f"{path}: truncated {what}, expected {nbytes} bytes got {have}")
    out = np.empty(shape, dtype=dtype)
    if fh.readinto(memoryview(out).cast("B")) != nbytes:
        raise FormatError(f"{path}: truncated {what}")
    return out


def check_end(fh, path) -> None:
    """Reject anything after the last field of the file."""
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if left:
        raise FormatError(f"{path}: {left} trailing bytes after the payload")


def save_features(fs: FeatureSet, path) -> None:
    with open(path, "wb") as fh:
        fh.write(FMAT_MAGIC)
        fh.write(struct.pack("<IQI", FORMAT_VERSION, fs.n, fs.dim))
        fh.write(fs.features.astype("<f4").tobytes())


def load_features(path) -> FeatureSet:
    with open(path, "rb") as fh:
        n, d = read_header(fh, path, FMAT_MAGIC, FORMAT_VERSION, "<QI")
        if n == 0:
            raise FormatError(f"{path}: header declares N=0")
        if d == 0:
            raise FormatError(f"{path}: header declares D=0")
        feats = read_array(fh, path, "<f4", (n, d), "payload")
        check_end(fh, path)
    try:
        return FeatureSet(features=feats, normalized=False)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from None


def save_labels(labels: np.ndarray, path) -> None:
    """Write identity labels; ValueError, before the file is opened, if one
    lies below -1, which load_labels would reject."""
    labels = np.asarray(labels, dtype=np.int64)
    check_labels(labels)
    with open(path, "wb") as fh:
        fh.write(LBLS_MAGIC)
        fh.write(struct.pack("<IQ", FORMAT_VERSION, labels.shape[0]))
        fh.write(labels.astype("<i8").tobytes())


def load_labels(path) -> np.ndarray:
    """Identity labels; -1 marks a distractor, and nothing may lie below it."""
    with open(path, "rb") as fh:
        (n,) = read_header(fh, path, LBLS_MAGIC, FORMAT_VERSION, "<Q")
        labels = read_array(fh, path, "<i8", (n,), "payload")
        check_end(fh, path)
    try:
        check_labels(labels)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from None
    return labels


def normalize_rows(fs: FeatureSet) -> FeatureSet:
    """Scale every row to unit Euclidean norm. Labels carry over."""
    feats = fs.features.astype(np.float64)
    norms = np.linalg.norm(feats, axis=1)
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise ValueError(f"cannot normalize zero-norm row at index {zero[0]}")
    feats /= norms[:, None]
    return FeatureSet(features=feats.astype(np.float32), labels=fs.labels, normalized=True)


def synth_generate(spec: SynthSpec) -> FeatureSet:
    """Draw a labeled Gaussian mixture with density variation and outliers.

    Identity centers are uniform in a ball of radius center_spread; each
    identity gets its own isotropic noise scale drawn log-uniform from the
    configured range. floor(outlier_fraction * n_inliers) extra points with
    label -1 come from the same center distribution. Deterministic in seed.
    """
    rng = seed_stream(spec.seed, "data")
    k, d = spec.num_identities, spec.dim

    def ball(count):
        dirs = rng.standard_normal((count, d))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        radii = spec.center_spread * rng.random(count) ** (1.0 / d)
        return dirs * radii[:, None]

    centers = ball(k)
    lo, hi = spec.samples_per_identity
    counts = rng.integers(lo, hi + 1, size=k)
    nlo, nhi = spec.noise_scale
    scales = np.exp(rng.uniform(np.log(nlo), np.log(nhi), size=k))

    blocks, labels = [], []
    for i in range(k):
        blocks.append(centers[i] + scales[i] * rng.standard_normal((counts[i], d)))
        labels.append(np.full(counts[i], i, dtype=np.int64))

    n_inliers = int(counts.sum())
    n_out = int(np.floor(spec.outlier_fraction * n_inliers))
    if n_out:
        blocks.append(ball(n_out))
        labels.append(np.full(n_out, -1, dtype=np.int64))

    feats = np.concatenate(blocks).astype(np.float32)
    return FeatureSet(features=feats, labels=np.concatenate(labels), normalized=False)

