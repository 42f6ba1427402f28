import numpy as np
import pytest

from linkgcn.dataset import FeatureSet, SynthSpec, normalize_rows, synth_generate
from linkgcn.ips import IpsConfig, build_ips
from linkgcn.knn import build_knn
from linkgcn.merge import bfs_cluster, pool_edges
from linkgcn.metrics import evaluate
from linkgcn.pipeline import predict_links
from linkgcn.trainer import (TrainConfig, block_diagonal_batch, subgraph_labels,
                             toy2d_trace, train)

SMALL = TrainConfig(hidden_dims=(16, 16, 8, 8), epochs=4,
                    ips=IpsConfig(h=2, k_per_hop=(20, 3), u=3))


# -------------------------------------------------------- subgraph_labels

def test_subgraph_labels_match_pivot(easy_two_identity_set, request):
    fs = easy_two_identity_set
    nbrs = build_knn(fs, 20)
    ips = build_ips(0, fs, nbrs, IpsConfig(h=1, k_per_hop=(20,), u=3))
    labs = subgraph_labels(ips, fs.labels)
    expect = (fs.labels[ips.nodes[:20]] == fs.labels[0]).astype(np.int64)
    np.testing.assert_array_equal(labs, expect)


def test_subgraph_labels_distractor_pivot(easy_two_identity_set):
    fs = easy_two_identity_set
    labels = fs.labels.copy()
    labels[0] = -1
    fs2 = FeatureSet(features=fs.features, labels=labels)
    nbrs = build_knn(fs2, 10)
    ips = build_ips(0, fs2, nbrs, IpsConfig(h=1, k_per_hop=(10,), u=3))
    assert not subgraph_labels(ips, labels).any()


def test_subgraph_labels_distractor_neighbors_negative(easy_two_identity_set):
    fs = easy_two_identity_set
    labels = fs.labels.copy()
    labels[1:] = -1
    fs2 = FeatureSet(features=fs.features, labels=labels)
    nbrs = build_knn(fs2, 10)
    ips = build_ips(0, fs2, nbrs, IpsConfig(h=1, k_per_hop=(10,), u=3))
    assert not subgraph_labels(ips, labels).any()


# --------------------------------------------------- block_diagonal_batch

def test_block_diagonal_shapes_and_mask():
    rng = np.random.default_rng(0)
    ex1 = (rng.standard_normal((3, 4)).astype(np.float32), np.eye(3, dtype=np.float32) * 0,
           np.array([1, 0]), 2)
    ex2 = (rng.standard_normal((2, 4)).astype(np.float32), np.zeros((2, 2), np.float32),
           np.array([1]), 1)
    X, A, labels, mask = block_diagonal_batch([ex1, ex2])
    assert X.shape == (5, 4)
    assert A.shape == (5, 5)
    np.testing.assert_array_equal(mask, [True, True, False, True, False])
    np.testing.assert_array_equal(labels[:2], [1, 0])
    assert labels[3] == 1


def test_block_diagonal_no_cross_edges():
    a1 = np.ones((3, 3), np.float32) - np.eye(3, dtype=np.float32)
    a2 = np.ones((2, 2), np.float32) - np.eye(2, dtype=np.float32)
    ex1 = (np.zeros((3, 2), np.float32), a1, np.array([0]), 1)
    ex2 = (np.zeros((2, 2), np.float32), a2, np.array([0]), 1)
    _, A, _, _ = block_diagonal_batch([ex1, ex2])
    assert not A[:3, 3:].any()
    assert not A[3:, :3].any()
    np.testing.assert_array_equal(A[:3, :3], a1)
    np.testing.assert_array_equal(A[3:, 3:], a2)


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
    return fs, build_ips(0, fs, nbrs, cfg)


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
    ips = build_ips(0, fs, nbrs, IpsConfig(h=1, k_per_hop=(8,), u=3))
    with pytest.raises(ValueError, match="2-D"):
        toy2d_trace(fs, ips, steps=2)


def test_toy2d_nodes_are_global_ids():
    fs, ips = toy_fs_and_ips()
    rows = toy2d_trace(fs, ips, steps=1)
    assert {r[2] for r in rows} == set(int(v) for v in ips.nodes)


def test_toy2d_deterministic():
    fs, ips = toy_fs_and_ips()
    assert toy2d_trace(fs, ips, steps=3, seed=4) == toy2d_trace(fs, ips, steps=3, seed=4)


@pytest.mark.parametrize("field", ["epochs", "batch_size"])
def test_train_config_rejects_nonpositive(field):
    with pytest.raises(ValueError, match=f"{field} must be >= 1"):
        TrainConfig(**{field: 0})
