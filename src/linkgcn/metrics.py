"""Partition quality: NMI, BCubed precision/recall/F, and the same-identity
kNN linking upper bound."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from linkgcn.dataset import FeatureSet, check_labels
from linkgcn.knn import NeighborTable
from linkgcn.merge import table_components


@dataclass(frozen=True)
class EvalReport:
    nmi: float
    bcubed_precision: float
    bcubed_recall: float
    bcubed_f: float
    n_evaluated: int

    def as_table(self) -> str:
        return ("metric     value\n"
                f"NMI        {self.nmi:.4f}\n"
                f"BCubed P   {self.bcubed_precision:.4f}\n"
                f"BCubed R   {self.bcubed_recall:.4f}\n"
                f"BCubed F   {self.bcubed_f:.4f}\n"
                f"evaluated  {self.n_evaluated}")


def _contingency(truth: np.ndarray, pred: np.ndarray):
    """The non-zero cells of the classes x clusters table, in row-major order.

    Classes and clusters are relabelled densely; returns each cell's class
    and cluster index and its count, and the class and cluster sizes, the
    counts and sizes as exact float64 integers. Memory is O(N), whatever
    the number of classes and clusters.
    """
    truth = np.asarray(truth)
    pred = np.asarray(pred)
    if truth.shape != pred.shape:
        raise ValueError(f"length mismatch: {truth.shape} vs {pred.shape}")
    if truth.size == 0:
        raise ValueError("nothing to evaluate")
    _, ti = np.unique(truth, return_inverse=True)
    clusters, pi = np.unique(pred, return_inverse=True)
    cells, counts = np.unique(ti * clusters.size + pi, return_counts=True)
    rows, cols = np.divmod(cells, clusters.size)
    counts = counts.astype(np.float64)
    class_sizes = np.bincount(rows, weights=counts)
    cluster_sizes = np.bincount(cols, weights=counts)
    return rows, cols, counts, class_sizes, cluster_sizes


def nmi(truth: np.ndarray, pred: np.ndarray) -> float:
    """Mutual information normalized by the geometric mean of the entropies.

    Conventions for degenerate partitions: if both sides are a single
    cluster (necessarily identical) the score is 1; if exactly one side has
    zero entropy the score is 0.
    """
    rows, cols, counts, class_sizes, cluster_sizes = _contingency(truth, pred)
    n = counts.sum()
    pt = class_sizes / n
    pp = cluster_sizes / n
    h_t = -np.sum(pt * np.log(pt))
    h_p = -np.sum(pp * np.log(pp))
    if h_t == 0.0 and h_p == 0.0:
        return 1.0
    if h_t == 0.0 or h_p == 0.0:
        return 0.0
    joint = counts / n
    mi = np.sum(joint * np.log(joint / (pt[rows] * pp[cols])))
    return float(mi / np.sqrt(h_t * h_p))


def bcubed(truth: np.ndarray, pred: np.ndarray):
    """Per-instance precision/recall over co-cluster and co-label pairs,
    self-pairs included; F is their harmonic mean."""
    rows, cols, counts, class_sizes, cluster_sizes = _contingency(truth, pred)
    n = counts.sum()
    precision = float(np.sum(counts ** 2 / cluster_sizes[cols]) / n)
    recall = float(np.sum(counts ** 2 / class_sizes[rows]) / n)
    f = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return precision, recall, f


def evaluate(truth: np.ndarray, pred: np.ndarray,
             distractors: str = "keep") -> EvalReport:
    """Full report. `distractors` controls instances with truth label -1:
    "keep" leaves them as one shared class, "ignore" masks them out, and
    "unique" treats each as its own singleton identity. A truth label below
    -1 is a ValueError, as it is in a label file."""
    truth = np.asarray(truth, dtype=np.int64)
    pred = np.asarray(pred, dtype=np.int64)
    if truth.shape != pred.shape:
        raise ValueError(f"length mismatch: {truth.shape} vs {pred.shape}")
    check_labels(truth)
    if distractors == "ignore":
        mask = truth >= 0
        truth, pred = truth[mask], pred[mask]
    elif distractors == "unique":
        truth = truth.copy()
        neg = np.flatnonzero(truth < 0)
        truth[neg] = truth.max() + 1 + np.arange(neg.size)
    elif distractors != "keep":
        raise ValueError(f"unknown distractor mode {distractors!r}")
    if truth.size == 0:
        raise ValueError("nothing left to evaluate")
    p, r, f = bcubed(truth, pred)
    return EvalReport(nmi=nmi(truth, pred), bcubed_precision=p, bcubed_recall=r,
                      bcubed_f=f, n_evaluated=truth.size)


def knn_upper_bound(fs: FeatureSet, nbrs: NeighborTable, k_list) -> list:
    """Clustering score when every same-identity kNN pair is linked.

    Returns [(k, EvalReport)] for each requested k. The linked edge set
    grows with k, so F is non-decreasing.
    """
    if fs.labels is None:
        raise ValueError("upper bound needs identity labels")
    out = []
    labels = fs.labels
    for k in k_list:
        if k < 1:
            raise ValueError(f"k={k} must be >= 1")
        if k > nbrs.k:
            raise ValueError(f"k={k} exceeds neighbor table k={nbrs.k}")
        indices = nbrs.indices[:, :k]

        def same_identity(lo, hi):
            own = labels[lo:hi, None]
            return (own == labels[indices[lo:hi]]) & (own >= 0)

        pred = table_components(fs.n, indices, same_identity)
        out.append((int(k), evaluate(labels, pred, distractors="unique")))
    return out
