"""Training loop: per-pivot subgraph examples held as edge lists, mini-batches
scored one subgraph at a time, SGD with momentum, and the 2-D embedding
trace used for visualization."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from linkgcn.config import seed_stream
from linkgcn.dataset import FeatureSet
from linkgcn.gcn import GcnModel, init_model, loss_and_grads_edges, _forward_edges
from linkgcn.ips import (IpsConfig, InstancePivotSubgraph, build_block, clamp_config,
                         normalize_node_features, pivot_blocks)
from linkgcn.knn import NeighborTable, build_knn


@dataclass
class TrainConfig:
    aggregator: str = "mean"
    hidden_dims: tuple = (256, 256, 128, 64)
    attention_hidden: int = 64
    mean_row_normalized: bool = False
    ips: IpsConfig = field(default_factory=lambda: IpsConfig(h=2, k_per_hop=(200, 10), u=10))
    epochs: int = 40
    batch_size: int = 16
    lr: float = 0.01
    momentum: float = 0.9
    lr_decay: float = 0.1
    decay_at: tuple = (0.5, 0.75)
    seed: int = 0
    dtype: type = np.float32

    def __post_init__(self):
        for name in ("epochs", "batch_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 0.0 < self.lr < np.inf:
            raise ValueError(f"lr must be finite and > 0, got {self.lr}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must lie in [0, 1), got {self.momentum}")
        if not 0.0 < self.lr_decay <= 1.0:
            raise ValueError(f"lr_decay must lie in (0, 1], got {self.lr_decay}")


def subgraph_labels(ips: InstancePivotSubgraph, labels: np.ndarray) -> np.ndarray:
    """1 for each 1-hop node sharing the pivot's identity; distractors (-1)
    never match anything, including other distractors."""
    n1 = ips.hop1_count
    pivot_label = labels[ips.pivot]
    if pivot_label < 0:
        return np.zeros(n1, dtype=np.int64)
    return (labels[ips.nodes[:n1]] == pivot_label).astype(np.int64)


class Example(NamedTuple):
    """One pivot's subgraph as training needs it. Features are not kept:
    they are gathered again, relative to the pivot, at each step."""
    pivot: int
    nodes: np.ndarray    # instance ids, hop-major, the hop-1 nodes first
    edges: np.ndarray    # (2, m) int32 node positions, sorted row-major
    labels: np.ndarray   # 0/1 for each hop-1 node


def build_examples(fs: FeatureSet, nbrs: NeighborTable, cfg: IpsConfig) -> list:
    """An Example for every pivot with at least one hop-1 node, in pivot order."""
    return [Example(ips.pivot, ips.nodes, ips.edges.astype(np.int32),
                    subgraph_labels(ips, fs.labels))
            for pivots in pivot_blocks(fs.n, cfg)
            for ips in build_block(pivots, fs, nbrs, cfg) if ips.hop1_count > 0]


def batch_loss_and_grads(model: GcnModel, fs: FeatureSet, batch) -> tuple:
    """Mean cross-entropy over the hop-1 nodes of a batch of Examples and its
    gradients, taken one subgraph at a time on its edge list."""
    total = sum(ex.labels.size for ex in batch)
    loss, grads = 0.0, None
    for ex in batch:
        X = normalize_node_features(fs, ex.pivot, ex.nodes)
        part, part_grads = loss_and_grads_edges(model, X, ex.edges, ex.labels, total)
        loss += part
        if grads is None:
            grads = part_grads
        else:
            for g, dg in zip(grads, part_grads):
                g += dg
    return loss, grads


def _sgd_step(params, grads, velocities, lr, momentum):
    for p, g, v in zip(params, grads, velocities):
        v *= momentum
        v -= lr * g
        p += v


def train(fs: FeatureSet, cfg: TrainConfig, nbrs: NeighborTable | None = None):
    """Fit a link predictor on a labeled collection.

    Returns the trained model and the per-epoch mean loss curve. A batch
    loss that is not finite stops training with ValueError.
    """
    if fs.labels is None:
        raise ValueError("training needs identity labels")
    identities = np.unique(fs.labels[fs.labels >= 0])
    if identities.size < 2:
        raise ValueError(f"training needs >= 2 identities, got {identities.size}")

    ips_cfg = clamp_config(cfg.ips, fs.n)
    if nbrs is None:
        nbrs = build_knn(fs, ips_cfg.table_k)

    # subgraphs are static across epochs; build once
    examples = build_examples(fs, nbrs, ips_cfg)

    rng_init = seed_stream(cfg.seed, "init")
    model = init_model([fs.dim, *cfg.hidden_dims], cfg.aggregator, rng_init,
                       attention_hidden=cfg.attention_hidden, dtype=cfg.dtype,
                       mean_row_normalized=cfg.mean_row_normalized)
    params = model.parameters()
    velocities = [np.zeros_like(p) for p in params]

    rng_shuffle = seed_stream(cfg.seed, "shuffle")
    decay_epochs = {int(frac * cfg.epochs) for frac in cfg.decay_at}
    lr = cfg.lr
    curve = []
    for epoch in range(cfg.epochs):
        if epoch in decay_epochs and epoch > 0:
            lr *= cfg.lr_decay
        order = rng_shuffle.permutation(len(examples))
        losses = []
        for start in range(0, len(order), cfg.batch_size):
            batch = [examples[i] for i in order[start:start + cfg.batch_size]]
            loss, grads = batch_loss_and_grads(model, fs, batch)
            if not np.isfinite(loss):
                raise ValueError(f"training diverged: non-finite loss in epoch {epoch} "
                                 f"at lr={lr:g}")
            _sgd_step(params, grads, velocities, lr, cfg.momentum)
            losses.append(loss)
        curve.append(float(np.mean(losses)))
    return model, curve


def toy2d_trace(fs: FeatureSet, ips: InstancePivotSubgraph, steps: int,
                seed: int = 0, lr: float = 0.1):
    """Train a tiny 2-layer model on one 2-D subgraph and record the 2-D node
    embeddings after each layer at every iteration.

    Returns a list of (iteration, layer, node, x, y) rows,
    steps * 2 * |nodes| of them.
    """
    if fs.dim != 2:
        raise ValueError(f"toy trace needs 2-D features, got D={fs.dim}")
    if fs.labels is None:
        raise ValueError("toy trace needs identity labels")
    rng = seed_stream(seed, "init")
    model = init_model([2, 2, 2], "mean", rng, dtype=np.float64)
    params = model.parameters()
    velocities = [np.zeros_like(p) for p in params]

    hop1_labels = subgraph_labels(ips, fs.labels)
    rows = []
    for it in range(steps):
        _, _, caches = _forward_edges(model, ips.features, *ips.edges)
        for layer, (_, _, _, Z, _) in enumerate(caches):
            Y = np.maximum(Z, 0)
            for node in range(ips.size):
                rows.append((it, layer, int(ips.nodes[node]), float(Y[node, 0]),
                             float(Y[node, 1])))
        _, grads = loss_and_grads_edges(model, ips.features, ips.edges, hop1_labels)
        _sgd_step(params, grads, velocities, lr, 0.9)
    return rows
