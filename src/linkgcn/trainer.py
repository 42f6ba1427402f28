"""Training loop: per-pivot subgraph examples, block-diagonal mini-batches,
SGD with momentum, and the 2-D embedding trace used for visualization."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from linkgcn.config import seed_stream
from linkgcn.dataset import FeatureSet
from linkgcn.gcn import GcnModel, init_model, loss_and_grads, loss_and_grads_arrays, _forward_full
from linkgcn.ips import IpsConfig, InstancePivotSubgraph, build_ips, clamp_config
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


def subgraph_labels(ips: InstancePivotSubgraph, labels: np.ndarray) -> np.ndarray:
    """1 for each 1-hop node sharing the pivot's identity; distractors (-1)
    never match anything, including other distractors."""
    n1 = ips.hop1_count
    pivot_label = labels[ips.pivot]
    if pivot_label < 0:
        return np.zeros(n1, dtype=np.int64)
    return (labels[ips.nodes[:n1]] == pivot_label).astype(np.int64)


def block_diagonal_batch(examples):
    """Stack (features, adjacency, labels, hop1_count) tuples into one graph
    with no cross-subgraph edges."""
    sizes = [ex[0].shape[0] for ex in examples]
    total = sum(sizes)
    d = examples[0][0].shape[1]
    X = np.zeros((total, d), dtype=examples[0][0].dtype)
    A = np.zeros((total, total), dtype=np.float32)
    labels = np.zeros(total, dtype=np.int64)
    mask = np.zeros(total, dtype=bool)
    offset = 0
    for feats, adj, labs, n1 in examples:
        n = feats.shape[0]
        X[offset:offset + n] = feats
        A[offset:offset + n, offset:offset + n] = adj
        labels[offset:offset + n1] = labs
        mask[offset:offset + n1] = True
        offset += n
    return X, A, labels, mask


def _sgd_step(params, grads, velocities, lr, momentum):
    for p, g, v in zip(params, grads, velocities):
        v *= momentum
        v -= lr * g
        p += v


def train(fs: FeatureSet, cfg: TrainConfig, nbrs: NeighborTable | None = None):
    """Fit a link predictor on a labeled collection.

    Returns the trained model and the per-epoch mean loss curve.
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
    examples = []
    for pivot in range(fs.n):
        ips = build_ips(pivot, fs, nbrs, ips_cfg)
        if ips.hop1_count == 0:
            continue
        examples.append((ips.features.astype(cfg.dtype), ips.adjacency,
                         subgraph_labels(ips, fs.labels), ips.hop1_count))

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
            X, A, labels, mask = block_diagonal_batch(batch)
            loss, grads = loss_and_grads_arrays(model, X, A, labels, mask)
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
        _, _, caches = _forward_full(model, ips.features, ips.adjacency)
        for layer, (_, _, _, Z, _) in enumerate(caches):
            Y = np.maximum(Z, 0)
            for node in range(ips.size):
                rows.append((it, layer, int(ips.nodes[node]), float(Y[node, 0]),
                             float(Y[node, 1])))
        _, grads = loss_and_grads(model, ips, hop1_labels)
        _sgd_step(params, grads, velocities, lr, 0.9)
    return rows
