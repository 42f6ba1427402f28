"""Training loop: each mini-batch's pivot subgraphs built when the batch is
reached and scored one subgraph at a time on their edge lists, SGD with
momentum, and the 2-D embedding trace used for visualization."""

from __future__ import annotations

import numpy as np

from linkgcn.config import PipelineConfig, seed_stream
from linkgcn.dataset import FeatureSet
from linkgcn.gcn import GcnModel, init_model, loss_and_grads_edges, _forward_edges
from linkgcn.ips import IpsConfig, InstancePivotSubgraph, build_block, regime_config
from linkgcn.knn import build_knn

# fractions of the epochs after which the learning rate is multiplied by lr_decay
DECAY_AT = (0.5, 0.75)


def TrainConfig(*, aggregator: str, hidden_dims, ips: IpsConfig, epochs: int,
                batch_size: int, seed: int) -> PipelineConfig:
    """The PipelineConfig with these settings, its train regime taken from a
    (k1, k2, ..., k2) ips; ValueError for any other ips. The benchmark builds
    its training configs through this; it goes once the benchmark builds a
    PipelineConfig itself (ROADMAP items 1 and 8)."""
    k1 = ips.k_per_hop[0]
    k2 = ips.k_per_hop[1] if ips.h > 1 else PipelineConfig.train_k2  # one hop reads no k2
    if regime_config(k1, k2, ips.u, ips.h) != ips:
        raise ValueError(f"ips k_per_hop {ips.k_per_hop} is not (k1, k2, ..., k2)")
    return PipelineConfig(aggregator=aggregator, hidden_dims=hidden_dims, epochs=epochs,
                          batch_size=batch_size, seed=seed, train_k1=k1, train_k2=k2,
                          train_u=ips.u, hops=ips.h)


def subgraph_labels(ips: InstancePivotSubgraph, labels: np.ndarray) -> np.ndarray:
    """1 for each 1-hop node sharing the pivot's identity; distractors (-1)
    never match anything, including other distractors."""
    n1 = ips.hop1_count
    pivot_label = labels[ips.pivot]
    if pivot_label < 0:
        return np.zeros(n1, dtype=np.int64)
    return (labels[ips.nodes[:n1]] == pivot_label).astype(np.int64)


def batch_loss_and_grads(model: GcnModel, fs: FeatureSet, batch) -> tuple:
    """Mean cross-entropy over the hop-1 nodes of a batch of subgraphs and its
    gradients, taken one subgraph at a time on its edge list."""
    labels = [subgraph_labels(ips, fs.labels) for ips in batch]
    total = sum(lab.size for lab in labels)
    loss, grads = 0.0, None
    for ips, lab in zip(batch, labels):
        part, part_grads = loss_and_grads_edges(model, ips.features, ips.edges, lab, total)
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


def train(fs: FeatureSet, cfg: PipelineConfig):
    """Fit a link predictor on a labeled collection with cfg's model,
    optimizer, seed and train regime.

    Each batch's subgraphs are built when the batch is reached and dropped
    after its step, so no per-pivot state outlives its batch. Returns the
    trained model and the per-epoch mean loss curve. A batch loss or a final
    parameter that is not finite stops training with ValueError.
    """
    if fs.labels is None:
        raise ValueError("training needs identity labels")
    identities = np.unique(fs.labels[fs.labels >= 0])
    if identities.size < 2:
        raise ValueError(f"training needs >= 2 identities, got {identities.size}")

    ips_cfg = regime_config(cfg.train_k1, cfg.train_k2, cfg.train_u, cfg.hops)
    nbrs = build_knn(fs, ips_cfg.table_k, workers=cfg.workers)

    rng_init = seed_stream(cfg.seed, "init")
    model = init_model([fs.dim, *cfg.hidden_dims], cfg.aggregator, rng_init,
                       attention_hidden=cfg.attention_hidden,
                       mean_row_normalized=cfg.mean_row_normalize)
    params = model.parameters()
    velocities = [np.zeros_like(p) for p in params]

    rng_shuffle = seed_stream(cfg.seed, "shuffle")
    decay_epochs = {int(frac * cfg.epochs) for frac in DECAY_AT}
    lr = cfg.lr
    curve = []
    # a diverging run is reported by the checks below, not by numpy's overflow warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            if epoch in decay_epochs and epoch > 0:
                lr *= cfg.lr_decay
            order = rng_shuffle.permutation(fs.n)
            losses = []
            for start in range(0, fs.n, cfg.batch_size):
                batch = build_block(order[start:start + cfg.batch_size], fs, nbrs, ips_cfg)
                loss, grads = batch_loss_and_grads(model, fs, batch)
                if not np.isfinite(loss):
                    raise ValueError(f"training diverged: non-finite loss in epoch {epoch} "
                                     f"at lr={lr:g}")
                _sgd_step(params, grads, velocities, lr, cfg.momentum)
                losses.append(loss)
            curve.append(float(np.mean(losses)))
    if not all(np.isfinite(p).all() for p in params):
        raise ValueError(f"training diverged: non-finite parameters after epoch {epoch} "
                         f"at lr={lr:g}")
    return model, curve


def toy2d_trace(fs: FeatureSet, ips: InstancePivotSubgraph, steps: int, seed: int = 0):
    """Train a tiny 2-layer model on one 2-D subgraph (SGD at lr 0.1, momentum
    0.9) and record the 2-D node embeddings after each layer at every iteration.

    Returns steps * 2 * |nodes| rows of (iteration, layer, node, x, y).
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
        caches = []
        _forward_edges(model, ips.features, *ips.edges, caches=caches)
        for layer, (_, _, _, Y, _) in enumerate(caches):
            for node in range(ips.size):
                rows.append((it, layer, int(ips.nodes[node]), float(Y[node, 0]),
                             float(Y[node, 1])))
        _, grads = loss_and_grads_edges(model, ips.features, ips.edges, hop1_labels)
        _sgd_step(params, grads, velocities, 0.1, 0.9)
    return rows
