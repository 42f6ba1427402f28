"""Acceptance gate: one test per criterion, each printing a pass/fail line.

The hard synthetic set (criteria 4 and 8) pushes anisotropy at the cosine
metric: identities are generated with a x10 density spread plus 10%
distractors, then mapped through a shared ill-conditioned linear map before
re-normalization. A learned link predictor can adapt to the distortion; a
single global similarity threshold cannot.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

import conftest

from linkgcn import gcn, merge
from linkgcn.cli import main as cli_main
from linkgcn.config import seed_stream
from linkgcn.dataset import (FeatureSet, SynthSpec, normalize_rows,
                             synth_generate)
from linkgcn.gcn import init_model
from linkgcn.ips import IpsConfig
from linkgcn.knn import build_knn
from linkgcn.merge import (WeightedEdgeSet, bfs_cluster, filter_singletons,
                           propagate_cluster, threshold_baseline)
from linkgcn.metrics import evaluate, knn_upper_bound
from linkgcn.pipeline import predict_links
from linkgcn.trainer import TrainConfig, train
from oracle_utils import (bcubed_pair_oracle, finite_difference_grads,
                          max_relative_error, nmi_contingency_oracle,
                          random_instance)


def report(criterion, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)  # echoed in the terminal summary
    assert ok, detail


# ------------------------------------------------------------ hard set

HARD_IPS = IpsConfig(h=2, k_per_hop=(80, 5), u=5)
DISTRACTOR_FRACTION = 0.1 / 1.1  # 10% outliers added on top of inliers


def hard_set(seed):
    """Anisotropic identities with a x10 density spread and 10% distractors."""
    spec = SynthSpec(num_identities=20, samples_per_identity=(30, 60), dim=16,
                     center_spread=1.0, noise_scale=(0.02, 0.2),
                     outlier_fraction=0.1, seed=seed)
    fs = synth_generate(spec)
    rng = seed_stream(999, "distort")
    q, _ = np.linalg.qr(rng.standard_normal((16, 16)))
    c = math.sqrt(300.0)  # condition number 300
    s = np.exp(np.linspace(math.log(c), math.log(1 / c), 16))
    m = ((q * s) @ q.T).astype(np.float32)
    return normalize_rows(FeatureSet(features=fs.features @ m, labels=fs.labels))


@pytest.fixture(scope="module")
def hard_run():
    """Train on one hard draw, predict links on another; shared by 4 and 8."""
    train_fs = hard_set(101)
    test_fs = hard_set(202)
    cfg = TrainConfig(epochs=15, hidden_dims=(64, 64, 32, 16), ips=HARD_IPS)
    model, _ = train(train_fs, cfg)
    nbrs = build_knn(test_fs, 85)
    edges = predict_links(test_fs, nbrs, model, HARD_IPS)
    return test_fs, nbrs, edges


# ---------------------------------------------------------- criterion 1

@pytest.mark.parametrize("aggregator", ["mean", "weighted", "attention"])
def test_criterion_1_gradient_oracle(aggregator):
    worst = 0.0
    for seed in range(20):
        model, X, A, labels, mask = random_instance(aggregator, seed)
        edges, hop1_labels = np.stack(np.nonzero(A)), labels[mask]
        _, grads = gcn.loss_and_grads_edges(model, X, edges, hop1_labels)
        fd = finite_difference_grads(model, X, edges, hop1_labels)
        worst = max(worst, max_relative_error(grads, fd))
    report(f"1 ({aggregator})", worst < 1e-5,
           f"20 instances, worst relative gradient error {worst:.2e} < 1e-5")


# ---------------------------------------------------------- criterion 2

def test_criterion_2_metric_oracles():
    rng = np.random.default_rng(0)
    worst = 0.0
    from linkgcn.metrics import bcubed, nmi
    for _ in range(100):
        n = int(rng.integers(2, 51))
        truth = rng.integers(0, 8, n)
        pred = rng.integers(0, 8, n)
        worst = max(worst, abs(nmi(truth, pred)
                               - nmi_contingency_oracle(list(truth), list(pred))))
        for a, b in zip(bcubed(truth, pred),
                        bcubed_pair_oracle(list(truth), list(pred))):
            worst = max(worst, abs(a - b))
    report(2, worst <= 1e-9, f"100 random pairs, worst deviation {worst:.2e} <= 1e-9")


# ---------------------------------------------------------- criterion 3

def test_criterion_3_upper_bound_shape():
    spec = SynthSpec(num_identities=50, samples_per_identity=(20, 100), dim=32,
                     center_spread=1.0, noise_scale=(0.02, 0.2), seed=0)
    fs = normalize_rows(synth_generate(spec))
    nbrs = build_knn(fs, 32)
    results = knn_upper_bound(fs, nbrs, [1, 2, 4, 8, 16, 32])
    fvals = [rep.bcubed_f for _, rep in results]
    monotone = all(b >= a - 1e-12 for a, b in zip(fvals, fvals[1:]))
    report(3, monotone and fvals[-1] > 0.95,
           f"F non-decreasing over k, F(k=32)={fvals[-1]:.4f} > 0.95")


# ---------------------------------------------------------- criterion 4

GCN_TAUS = np.concatenate([np.arange(0.05, 0.95, 0.05),
                           1.0 - np.logspace(-1.3, -5, 12)])
BASELINE_TAUS = np.minimum(np.arange(-1.0, 1.0001, 0.05), 1.0)  # the last step lands 1.8e-15 above 1


def test_criterion_4_learning_benefit(hard_run):
    test_fs, nbrs, edges = hard_run
    best_gcn = max(evaluate(test_fs.labels, bfs_cluster(edges, float(t), test_fs.n),
                            distractors="ignore").bcubed_f for t in GCN_TAUS)
    best_base = max(evaluate(test_fs.labels,
                             threshold_baseline(test_fs, nbrs, float(t)),
                             distractors="ignore").bcubed_f for t in BASELINE_TAUS)
    report(4, best_gcn >= best_base + 0.05,
           f"best GCN F {best_gcn:.4f} vs best baseline F {best_base:.4f} "
           f"(margin {best_gcn - best_base:+.4f} >= 0.05)")


# ---------------------------------------------------------- criterion 5

def test_criterion_5_easy_set():
    spec = SynthSpec(num_identities=2, samples_per_identity=(50, 50), dim=16,
                     center_spread=1.0, noise_scale=(0.05, 0.05), seed=7)
    fs = normalize_rows(synth_generate(spec))
    ips = IpsConfig(h=2, k_per_hop=(40, 5), u=5)
    cfg = TrainConfig(epochs=40, hidden_dims=(32, 32, 16, 8), ips=ips)
    model, curve = train(fs, cfg)
    nbrs = build_knn(fs, 40)
    edges = predict_links(fs, nbrs, model, ips)
    f = evaluate(fs.labels, bfs_cluster(edges, 0.5, fs.n)).bcubed_f
    report(5, f >= 0.95 and curve[-1] < 0.1,
           f"pipeline F {f:.4f} >= 0.95, final loss {curve[-1]:.4f} < 0.1")


# ---------------------------------------------------------- criterion 6

def first_layer_g(model, X, A):
    """The G that the model's first layer mixes the graph of a dense adjacency with."""
    caches = []
    gcn._forward_edges(model, X, *np.nonzero(A), caches=caches)
    return caches[0][1]


def test_criterion_6_aggregator_row_sums():
    rng = np.random.default_rng(3)
    worst = 0.0
    for draw in range(1000):
        n = int(rng.integers(2, 9))
        X = rng.standard_normal((n, 4))
        A = np.zeros((n, n))
        for _ in range(n):
            a, b = rng.integers(0, n, 2)
            if a != b:
                A[a, b] = A[b, a] = 1.0
        model = init_model([4, 3], "attention", seed_stream(draw, "init"),
                           attention_hidden=3, dtype=np.float64)
        weighted = dataclasses.replace(model, aggregator="weighted", attention_mlp=None)
        # each model's first-layer G
        G, Ga = (first_layer_g(m, X, A) for m in (weighted, model))
        for g in (G, Ga):
            rows = np.flatnonzero(A.sum(axis=1) > 0)
            if rows.size:
                worst = max(worst, float(np.max(np.abs(g[rows].sum(axis=1) - 1.0))))
    report(6, worst < 1e-6, f"1000 draws, worst row-sum deviation {worst:.2e} < 1e-6")


# ---------------------------------------------------------- criterion 7

def test_criterion_7_merge_correctness(monkeypatch):
    rng = np.random.default_rng(4)
    calls = [0]
    orig = merge._components

    def counting(*args, **kwargs):
        calls[0] += 1
        return orig(*args, **kwargs)

    monkeypatch.setattr(merge, "_components", counting)
    ok = True
    for _ in range(100):
        n = int(rng.integers(10, 501))
        triples = {}
        for _ in range(3 * n):
            a, b = rng.integers(0, n, 2)
            if a != b:
                triples[(min(a, b), max(a, b))] = float(rng.random())
        items = sorted(triples.items())
        edges = WeightedEdgeSet(
            i=np.array([k[0] for k, _ in items], np.int64),
            j=np.array([k[1] for k, _ in items], np.int64),
            w=np.array([v for _, v in items], np.float64))
        tau0, dtau = 0.3, 0.1
        max_size = int(rng.integers(1, 40))
        calls[0] = 0
        out = propagate_cluster(edges, n, tau0=tau0, dtau=dtau, max_size=max_size)
        bound = math.ceil((1.0 - tau0) / dtau) + 2
        ok &= calls[0] <= bound
        ok &= out.shape == (n,) and out.min() >= 0
        ok &= len(np.unique(out)) == out.max() + 1
        # bfs refinement monotonicity on the same graph
        prev = None
        for tau in np.linspace(0.0, 1.0, 6):
            cur = bfs_cluster(edges, float(tau), n)
            if prev is not None:
                for c in np.unique(cur):
                    members = np.flatnonzero(cur == c)
                    ok &= len(np.unique(prev[members])) == 1
            prev = cur
    report(7, ok, "100 random graphs: propagation within iteration bound, "
                  "total duplicate-free assignments, bfs sweep only refines")


# ---------------------------------------------------------- criterion 8

def test_criterion_8_singleton_filtering(hard_run):
    # operating points are the pipeline's merge strategy swept over its
    # threshold schedule and size cap
    test_fs, _, edges = hard_run
    checked = 0
    ok = True
    for tau0 in (0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9):
        for max_size in (60, 120):
            pred = propagate_cluster(edges, test_fs.n, tau0=tau0, dtau=0.05,
                                     max_size=max_size)
            mask, removed = filter_singletons(pred)
            if removed < DISTRACTOR_FRACTION or not mask.any():
                continue
            unfiltered = evaluate(test_fs.labels, pred,
                                  distractors="unique").bcubed_f
            filtered = evaluate(test_fs.labels[mask], pred[mask],
                                distractors="unique").bcubed_f
            ok &= filtered >= unfiltered - 1e-12
            checked += 1
    report(8, ok and checked > 0,
           f"{checked} operating points with removal >= distractor fraction, "
           "filtered F >= unfiltered F at each")


# ---------------------------------------------------------- criterion 9

def test_criterion_9_link_prediction_scaling():
    ips = IpsConfig(h=2, k_per_hop=(20, 3), u=3)
    model = init_model([16, 16, 16, 8, 8], "mean", seed_stream(0, "init"))
    sizes = [2000, 4000, 8000, 16000]
    inputs = []
    for n in sizes:
        spec = SynthSpec(num_identities=n // 40, samples_per_identity=(40, 40),
                         dim=16, center_spread=1.0, noise_scale=(0.05, 0.05),
                         seed=1)
        fs = normalize_rows(synth_generate(spec))
        inputs.append((fs, build_knn(fs, 20)))
    # best of 3 per size, taken in rounds over all sizes, so one slow spell
    # of a shared machine slows every size alike and sets no slope
    times = [math.inf] * len(sizes)
    for _ in range(3):
        for s, (fs, nbrs) in enumerate(inputs):
            t0 = time.perf_counter()
            predict_links(fs, nbrs, model, ips)
            times[s] = min(times[s], time.perf_counter() - t0)
    exponent = float(np.polyfit(np.log(sizes), np.log(times), 1)[0])
    report(9, exponent <= 1.2,
           f"link-prediction wall times {['%.2fs' % t for t in times]} over "
           f"N={sizes}, power-law exponent {exponent:.3f} <= 1.2")


# --------------------------------------------------------- criterion 10

def test_criterion_10_determinism(tmp_path, capsys, monkeypatch):
    data = tmp_path / "data"
    assert cli_main(["synth", "--ids", "6", "--per-id", "15:15", "--dim", "8",
                     "--noise", "0.05:0.05", "--seed", "0",
                     "--out-dir", str(data)]) == 0
    run = tmp_path / "run"
    assert cli_main(["train", "--features", str(data / "features.fmat"),
                     "--labels", str(data / "labels.lbls"), "--epochs", "3",
                     "--train-k1", "12", "--train-k2", "2", "--train-u", "3",
                     "--out-dir", str(run)]) == 0
    # the last run passes no --workers: one BLAS thread leaves every usable
    # core to a pivot thread
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    blobs = []
    for tag, workers in (("a", ("--workers", "1")), ("b", ("--workers", "1")),
                         ("c", ("--workers", "4")), ("d", ())):
        out = tmp_path / tag
        assert cli_main(["cluster", "--features", str(data / "features.fmat"),
                         "--checkpoint", str(run / "model.gcnm"),
                         "--test-k1", "12", "--test-k2", "2", "--test-u", "3",
                         *workers, "--out-dir", str(out)]) == 0
        blobs.append((out / "partition.tsv").read_bytes())
    capsys.readouterr()
    ok = blobs[0] == blobs[1] == blobs[2] == blobs[3]
    report(10, ok, "partition files byte-identical across two runs and "
                   "worker counts {1, 4, derived}")
