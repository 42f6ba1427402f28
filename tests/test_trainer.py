import numpy as np
import pytest

import conftest
from linkgcn import gcn, knn, trainer
from linkgcn.config import seed_stream
from linkgcn.dataset import FeatureSet, SynthSpec, normalize_rows, synth_generate
from linkgcn.ips import IpsConfig, build_block, clamp_config
from linkgcn.knn import build_knn
from linkgcn.merge import bfs_cluster, pool_edges
from linkgcn.metrics import evaluate
from linkgcn.pipeline import predict_links
from linkgcn.trainer import (TrainConfig, _sgd_step, batch_loss_and_grads, subgraph_labels,
                             toy2d_trace, train)
from oracle_utils import block_diagonal_batch, masked_loss_and_grads

SMALL = TrainConfig(hidden_dims=(16, 16, 8, 8), epochs=4,
                    ips=IpsConfig(h=2, k_per_hop=(20, 3), u=3))


# -------------------------------------------------------- subgraph_labels

def test_subgraph_labels_match_pivot(easy_two_identity_set, request):
    fs = easy_two_identity_set
    nbrs = build_knn(fs, 20)
    ips = build_block([0], fs, nbrs, IpsConfig(h=1, k_per_hop=(20,), u=3))[0]
    labs = subgraph_labels(ips, fs.labels)
    expect = (fs.labels[ips.nodes[:20]] == fs.labels[0]).astype(np.int64)
    np.testing.assert_array_equal(labs, expect)


def test_subgraph_labels_distractor_pivot(easy_two_identity_set):
    fs = easy_two_identity_set
    labels = fs.labels.copy()
    labels[0] = -1
    fs2 = FeatureSet(features=fs.features, labels=labels)
    nbrs = build_knn(fs2, 10)
    ips = build_block([0], fs2, nbrs, IpsConfig(h=1, k_per_hop=(10,), u=3))[0]
    assert not subgraph_labels(ips, labels).any()


def test_subgraph_labels_distractor_neighbors_negative(easy_two_identity_set):
    fs = easy_two_identity_set
    labels = fs.labels.copy()
    labels[1:] = -1
    fs2 = FeatureSet(features=fs.features, labels=labels)
    nbrs = build_knn(fs2, 10)
    ips = build_block([0], fs2, nbrs, IpsConfig(h=1, k_per_hop=(10,), u=3))[0]
    assert not subgraph_labels(ips, labels).any()


# -------------------------------------------------------- batch subgraphs

def examples_set():
    spec = SynthSpec(num_identities=5, samples_per_identity=(12, 12), dim=8,
                     center_spread=1.0, noise_scale=(0.1, 0.3), seed=3)
    return normalize_rows(synth_generate(spec))


# ------------------------------------- one step, against the dense batch

def dense_batch(fs, batch, dtype):
    """The reference batch: the block-diagonal graph of the subgraphs."""
    parts = []
    for ips in batch:
        labels = subgraph_labels(ips, fs.labels)
        parts.append((ips.features.astype(dtype), ips.adjacency, labels, labels.size))
    return block_diagonal_batch(parts)


def relative_errors(loss, grads, loss_ref, grads_ref):
    worst = abs(loss - loss_ref) / abs(loss_ref)
    for g, ref in zip(grads, grads_ref, strict=True):
        assert g.shape == ref.shape and g.dtype == ref.dtype
        scale = float(np.max(np.abs(ref)))
        worst = max(worst, float(np.max(np.abs(g - ref))) / scale if scale else
                    float(np.max(np.abs(g))))
    return worst


@pytest.mark.parametrize("aggregator, row_normalized", [
    ("mean", False), ("mean", True), ("weighted", False), ("attention", False)])
@pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-10), (np.float32, 1e-5)])
@pytest.mark.parametrize("batch_kind", ["single", "mixed"])
def test_step_matches_block_diagonal_batch(aggregator, row_normalized, dtype, tol, batch_kind):
    fs = examples_set()
    nbrs = build_knn(fs, 10)
    wide = build_block(range(fs.n), fs, nbrs, IpsConfig(h=2, k_per_hop=(10, 3), u=3))
    one_hop1 = build_block(range(fs.n), fs, nbrs, IpsConfig(h=2, k_per_hop=(1, 4), u=3))
    assert all(ips.hop1_count == 1 for ips in one_hop1)
    if batch_kind == "single":
        batch = [wide[7]]
    else:  # subgraphs with a single hop-1 node among larger ones
        batch = [wide[3], one_hop1[5], wide[20], wide[41], one_hop1[59]]
    model = gcn.init_model([fs.dim, 6, 5, 4], aggregator, seed_stream(5, "init"),
                           attention_hidden=4, dtype=dtype, mean_row_normalized=row_normalized)
    loss, grads = batch_loss_and_grads(model, fs, batch)
    loss_ref, grads_ref = masked_loss_and_grads(model, *dense_batch(fs, batch, dtype))
    assert relative_errors(loss, grads, loss_ref, grads_ref) < tol


# ------------------------------- per-batch subgraphs, against a built-once set

def train_on_prebuilt(fs, cfg):
    """train's loop over subgraphs built once for every pivot up front,
    stepping in the same shuffled order."""
    ips_cfg = clamp_config(cfg.ips, fs.n)
    subgraphs = build_block(range(fs.n), fs, build_knn(fs, ips_cfg.table_k), ips_cfg)
    model = gcn.init_model([fs.dim, *cfg.hidden_dims], cfg.aggregator,
                           seed_stream(cfg.seed, "init"))
    params = model.parameters()
    velocities = [np.zeros_like(p) for p in params]
    rng = seed_stream(cfg.seed, "shuffle")
    lr = cfg.lr
    for epoch in range(cfg.epochs):
        if epoch > 0 and epoch in {int(0.5 * cfg.epochs), int(0.75 * cfg.epochs)}:
            lr *= cfg.lr_decay
        order = rng.permutation(fs.n)
        for start in range(0, fs.n, cfg.batch_size):
            batch = [subgraphs[i] for i in order[start:start + cfg.batch_size]]
            _, grads = batch_loss_and_grads(model, fs, batch)
            _sgd_step(params, grads, velocities, lr, cfg.momentum)
    return model


@pytest.mark.parametrize("epochs", [1, 3])
def test_train_matches_prebuilt_subgraphs(epochs):
    # batch 7 leaves a ragged last batch; three epochs cross both lr decays
    fs = examples_set()
    cfg = TrainConfig(hidden_dims=(6, 5, 4), epochs=epochs, batch_size=7, seed=2,
                      ips=IpsConfig(h=2, k_per_hop=(10, 3), u=3))
    model, _ = train(fs, cfg)
    expect = train_on_prebuilt(fs, cfg)
    for p, q in zip(model.parameters(), expect.parameters(), strict=True):
        assert p.tobytes() == q.tobytes()


# ------------------------------------------------------- memory regression

def one_capped_epoch(n_identities):
    """One default-regime epoch over n_identities identities of 10 instances
    with small subgraph overlap: at N = 1,000 the mean subgraph has about 650
    nodes, so dense s x s adjacencies of every pivot would take about 1.7 GB."""
    spec = SynthSpec(num_identities=n_identities, samples_per_identity=(10, 10), dim=16,
                     center_spread=1.0, noise_scale=(0.2, 0.4), seed=11)
    fs = normalize_rows(synth_generate(spec))
    cfg = TrainConfig(hidden_dims=(8, 8, 8, 8), epochs=1,
                      ips=IpsConfig(h=2, k_per_hop=(200, 10), u=10))
    return train(fs, cfg)[1]


def test_one_epoch_fits_in_one_gib():
    peaks = {}
    for n in (1000, 2000):
        curve, peaks[n] = conftest.run_with_address_limit(2**30, one_capped_epoch, n // 10)
        assert len(curve) == 1 and np.isfinite(curve[0])
    # Training keeps nothing per pivot beyond its batch, so from N = 1,000 to
    # 2,000 the peak may grow only by what the kNN stage needs: a float64
    # similarity block of knn.block_rows(N) rows (1 MiB more at N = 2,000;
    # the slack covers one more per extra kNN thread) and the (N, 200)
    # neighbor table of int32 ids and float32 similarities. The growth
    # measured 3.8-5.2 MiB on 2 cores. Caching every pivot's edges would add
    # about 60 KiB a pivot.
    knn_block = 8 * (knn.block_rows(2000) * 2000 - knn.block_rows(1000) * 1000)
    table = (4 + 4) * 200 * (2000 - 1000)
    slack = 16 * 2**20
    assert peaks[2000] - peaks[1000] <= knn_block + table + slack, peaks


# ------------------------------------------------------------------ train

def test_train_requires_labels(small_random_set):
    with pytest.raises(ValueError, match="labels"):
        train(small_random_set, SMALL)


def test_train_requires_two_identities(small_random_set):
    fs = FeatureSet(features=small_random_set.features,
                    labels=np.zeros(small_random_set.n, np.int64))
    with pytest.raises(ValueError, match="identities"):
        train(fs, SMALL)


def test_train_loss_decreases(easy_two_identity_set):
    cfg = TrainConfig(hidden_dims=(16, 16, 8, 8), epochs=10,
                      ips=IpsConfig(h=2, k_per_hop=(30, 3), u=3))
    _, curve = train(easy_two_identity_set, cfg)
    assert len(curve) == 10
    assert curve[-1] < curve[0]
    assert curve[-1] < 0.3


def test_train_deterministic(easy_two_identity_set):
    m1, c1 = train(easy_two_identity_set, SMALL)
    m2, c2 = train(easy_two_identity_set, SMALL)
    assert c1 == c2
    for p1, p2 in zip(m1.parameters(), m2.parameters()):
        assert p1.tobytes() == p2.tobytes()


def test_train_seed_changes_result(easy_two_identity_set):
    import dataclasses
    _, c1 = train(easy_two_identity_set, SMALL)
    _, c2 = train(easy_two_identity_set, dataclasses.replace(SMALL, seed=1))
    assert c1 != c2


def test_train_batch_size_changes_curve_not_validity(easy_two_identity_set):
    import dataclasses
    _, c1 = train(easy_two_identity_set, dataclasses.replace(SMALL, batch_size=1))
    _, c4 = train(easy_two_identity_set, dataclasses.replace(SMALL, batch_size=4))
    assert all(np.isfinite(c1)) and all(np.isfinite(c4))
    # different batching visits different SGD trajectories
    assert c1 != c4


@pytest.mark.parametrize("aggregator", ["mean", "weighted", "attention"])
def test_train_all_aggregators_learn(easy_two_identity_set, aggregator):
    cfg = TrainConfig(aggregator=aggregator, hidden_dims=(16, 16, 8, 8),
                      attention_hidden=8, epochs=8,
                      ips=IpsConfig(h=2, k_per_hop=(30, 3), u=3))
    model, curve = train(easy_two_identity_set, cfg)
    assert curve[-1] < curve[0]
    assert model.aggregator == aggregator


def test_trained_model_separates_easy_set(easy_two_identity_set):
    fs = easy_two_identity_set
    cfg = TrainConfig(hidden_dims=(32, 32, 16, 8), epochs=15,
                      ips=IpsConfig(h=2, k_per_hop=(30, 3), u=3))
    model, _ = train(fs, cfg)
    test_ips = IpsConfig(h=2, k_per_hop=(30, 3), u=3)
    nbrs = build_knn(fs, 30)
    edges = predict_links(fs, nbrs, model, test_ips)
    assignment = bfs_cluster(edges, 0.5, fs.n)
    report = evaluate(fs.labels, assignment)
    assert report.bcubed_f > 0.95


# ------------------------------------------------------------ toy2d_trace

def toy_fs_and_ips(seed=0):
    spec = SynthSpec(num_identities=3, samples_per_identity=(8, 8), dim=2,
                     center_spread=1.0, noise_scale=(0.15, 0.15), seed=seed)
    fs = synth_generate(spec)
    nbrs = build_knn(fs, 8)
    cfg = IpsConfig(h=2, k_per_hop=(8, 2), u=3)
    return fs, build_block([0], fs, nbrs, cfg)[0]


def test_toy2d_row_count():
    fs, ips = toy_fs_and_ips()
    rows = toy2d_trace(fs, ips, steps=5)
    assert len(rows) == 5 * 2 * ips.size
    its = {r[0] for r in rows}
    layers = {r[1] for r in rows}
    assert its == set(range(5))
    assert layers == {0, 1}


def test_toy2d_requires_2d(easy_two_identity_set):
    fs = easy_two_identity_set
    nbrs = build_knn(fs, 8)
    ips = build_block([0], fs, nbrs, IpsConfig(h=1, k_per_hop=(8,), u=3))[0]
    with pytest.raises(ValueError, match="2-D"):
        toy2d_trace(fs, ips, steps=2)


def test_toy2d_nodes_are_global_ids():
    fs, ips = toy_fs_and_ips()
    rows = toy2d_trace(fs, ips, steps=1)
    assert {r[2] for r in rows} == set(int(v) for v in ips.nodes)


def test_toy2d_matches_dense_reference():
    # the same loop on the dense adjacency, with the last layer on every row
    fs, ips = toy_fs_and_ips()
    rows = toy2d_trace(fs, ips, steps=8, seed=2)
    model = gcn.init_model([2, 2, 2], "mean", seed_stream(2, "init"), dtype=np.float64)
    params = model.parameters()
    velocities = [np.zeros_like(p) for p in params]
    labels = np.zeros(ips.size, np.int64)
    labels[:ips.hop1_count] = subgraph_labels(ips, fs.labels)
    mask = np.arange(ips.size) < ips.hop1_count
    expect = []
    for it in range(8):
        caches = []
        gcn._forward_edges(model, ips.features, *ips.edges, caches=caches)
        for layer, (_, _, _, Z, _) in enumerate(caches):
            Y = np.maximum(Z, 0)
            expect += [(it, layer, int(ips.nodes[q]), Y[q, 0], Y[q, 1]) for q in range(ips.size)]
        _, grads = masked_loss_and_grads(model, ips.features, ips.adjacency, labels, mask)
        _sgd_step(params, grads, velocities, 0.1, 0.9)
    assert [r[:3] for r in rows] == [r[:3] for r in expect]
    np.testing.assert_allclose([r[3:] for r in rows], [r[3:] for r in expect],
                               rtol=0, atol=1e-12)


def test_toy2d_deterministic():
    fs, ips = toy_fs_and_ips()
    assert toy2d_trace(fs, ips, steps=3, seed=4) == toy2d_trace(fs, ips, steps=3, seed=4)


@pytest.mark.parametrize("field", ["epochs", "batch_size"])
def test_train_config_rejects_nonpositive(field):
    with pytest.raises(ValueError, match=f"{field} must be >= 1"):
        TrainConfig(**{field: 0})


@pytest.mark.parametrize("field, value", [
    ("hidden_dims", (8, 0)), ("hidden_dims", ()), ("aggregator", "foo"), ("attention_hidden", 0)])
def test_train_config_rejects_bad_model_settings(field, value):
    # checked when the config is made, with PipelineConfig's messages, so a
    # zero-width layer never trains and an unknown aggregator never reaches kNN
    with pytest.raises(ValueError, match=f"^{field} "):
        TrainConfig(**{field: value})


def test_train_stops_at_non_finite_loss(easy_two_identity_set, monkeypatch):
    # a NaN batch loss stands in for a diverged run, without the overflow
    # warnings a huge learning rate would raise first
    calls = []
    real = trainer.batch_loss_and_grads

    def diverged(*args):
        calls.append(1)
        loss, grads = real(*args)
        return (float("nan") if len(calls) == 3 else loss), grads

    monkeypatch.setattr(trainer, "batch_loss_and_grads", diverged)
    with pytest.raises(ValueError, match="non-finite loss in epoch 0"):
        train(easy_two_identity_set, SMALL)
    assert len(calls) == 3


def test_train_rejects_non_finite_parameters_after_last_step(easy_two_identity_set,
                                                             monkeypatch):
    # every loss is finite (a non-finite one raises another error), but the
    # last step leaves an infinite weight
    steps = -(-easy_two_identity_set.n // SMALL.batch_size) * SMALL.epochs
    calls = []
    real_step = trainer._sgd_step

    def overflowing(params, *args):
        calls.append(1)
        real_step(params, *args)
        if len(calls) == steps:
            params[0][0, 0] = np.inf

    monkeypatch.setattr(trainer, "_sgd_step", overflowing)
    with pytest.raises(ValueError, match=f"non-finite parameters after epoch {SMALL.epochs - 1}"):
        train(easy_two_identity_set, SMALL)
    assert len(calls) == steps
