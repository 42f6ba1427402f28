import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linkgcn.dataset import FeatureSet, SynthSpec, normalize_rows, synth_generate
from linkgcn.knn import build_knn
from linkgcn.metrics import bcubed, evaluate, knn_upper_bound, nmi
from oracle_utils import bcubed_pair_oracle, nmi_contingency_oracle


def test_nmi_identical_partitions():
    truth = np.array([0, 0, 1, 1, 2])
    assert nmi(truth, truth) == pytest.approx(1.0, abs=1e-12)


def test_nmi_single_cluster_prediction():
    truth = np.array([0, 0, 1, 1])
    pred = np.zeros(4, np.int64)
    assert nmi(truth, pred) == 0.0


def test_nmi_both_trivial():
    assert nmi(np.zeros(5, np.int64), np.full(5, 7)) == 1.0


def test_nmi_small_oracle_value():
    truth = np.array([0, 0, 1])
    pred = np.array([0, 1, 2])
    expect = nmi_contingency_oracle(list(truth), list(pred))
    assert nmi(truth, pred) == pytest.approx(expect, abs=1e-12)


def test_nmi_length_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        nmi(np.array([0, 1]), np.array([0, 1, 2]))


def test_nmi_symmetry_random():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = rng.integers(0, 5, 30)
        b = rng.integers(0, 4, 30)
        assert nmi(a, b) == pytest.approx(nmi(b, a), abs=1e-12)


def test_bcubed_perfect():
    truth = np.array([0, 0, 1, 1])
    assert bcubed(truth, truth) == (1.0, 1.0, 1.0)


def test_bcubed_quoted_values():
    # two classes merged into one cluster; verified by the pair oracle
    truth = np.array([0, 0, 1])
    pred = np.zeros(3, np.int64)
    p, r, f = bcubed(truth, pred)
    op, og, of = bcubed_pair_oracle(list(truth), list(pred))
    assert (p, r, f) == pytest.approx((op, og, of), abs=1e-12)
    assert p == pytest.approx(5 / 9)
    assert r == pytest.approx(1.0)
    assert f == pytest.approx(5 / 7)


def test_bcubed_all_singletons():
    truth = np.array([0, 0, 0, 1, 1])
    pred = np.arange(5)
    p, r, _ = bcubed(truth, pred)
    assert p == 1.0
    assert r == pytest.approx(np.mean([1 / 3] * 3 + [1 / 2] * 2))


def test_bcubed_swap_duality():
    rng = np.random.default_rng(1)
    for _ in range(20):
        a = rng.integers(0, 6, 40)
        b = rng.integers(0, 3, 40)
        p1, r1, _ = bcubed(a, b)
        p2, r2, _ = bcubed(b, a)
        assert p1 == pytest.approx(r2, abs=1e-12)
        assert r1 == pytest.approx(p2, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 6), min_size=2, max_size=50).flatmap(
    lambda t: st.tuples(st.just(t), st.lists(st.integers(0, 6), min_size=len(t),
                                             max_size=len(t)))))
def test_metrics_match_oracles(pair):
    truth, pred = (np.asarray(x) for x in pair)
    assert nmi(truth, pred) == pytest.approx(nmi_contingency_oracle(list(truth), list(pred)),
                                             abs=1e-9)
    assert bcubed(truth, pred) == pytest.approx(bcubed_pair_oracle(list(truth), list(pred)),
                                                abs=1e-9)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 5), min_size=2, max_size=40),
       st.integers(0, 2 ** 31))
def test_metrics_relabel_invariance(labels, seed):
    rng = np.random.default_rng(seed)
    truth = np.asarray(labels)
    pred = rng.integers(0, 4, len(labels))
    shuffle = rng.permutation(10)
    assert nmi(shuffle[truth], pred) == pytest.approx(nmi(truth, pred), abs=1e-12)
    assert bcubed(truth, shuffle[pred]) == pytest.approx(bcubed(truth, pred), abs=1e-12)


def test_evaluate_distractor_modes():
    truth = np.array([0, 0, 1, -1, -1])
    pred = np.array([0, 0, 1, 1, 2])
    kept = evaluate(truth, pred, distractors="keep")
    assert kept.n_evaluated == 5
    ignored = evaluate(truth, pred, distractors="ignore")
    assert ignored.n_evaluated == 3
    assert ignored.bcubed_f == pytest.approx(1.0)
    unique = evaluate(truth, pred, distractors="unique")
    assert unique.n_evaluated == 5
    # under "unique", the distractor merged into cluster 1 hurts precision
    assert unique.bcubed_precision < 1.0


@pytest.mark.parametrize("distractors", ["keep", "ignore", "unique"])
def test_evaluate_refuses_labels_below_distractor(distractors):
    # "keep" would score -1 and -2 as two classes of distractors
    truth = np.array([0, 0, 1, -1, -2])
    with pytest.raises(ValueError, match="^label -2 at index 4 is below -1$"):
        evaluate(truth, np.array([0, 0, 1, 2, 2]), distractors=distractors)


def oracle_view(truth, pred, distractors):
    """What evaluate scores in each distractor mode, built without its code:
    "ignore" drops label -1, "unique" gives each such instance its own label."""
    truth, pred = np.asarray(truth).tolist(), np.asarray(pred).tolist()
    if distractors == "ignore":
        keep = [i for i, t in enumerate(truth) if t >= 0]
        return [truth[i] for i in keep], [pred[i] for i in keep]
    if distractors == "unique":
        truth = [t if t >= 0 else ("distractor", i) for i, t in enumerate(truth)]
    return truth, pred


@pytest.mark.parametrize("distractors", ["keep", "ignore", "unique"])
@pytest.mark.parametrize("seed", range(4))
def test_evaluate_sparse_partitions_match_oracles(seed, distractors):
    # mostly singleton clusters and labels far above N: most cells of the
    # classes x clusters table are empty
    rng = np.random.default_rng(seed)
    n = 240
    truth = rng.integers(0, 30, n) * 10**12 + 7
    truth[rng.random(n) < 0.2] = -1
    pred = rng.integers(0, 40, n) * 3 * 10**15
    singles = rng.random(n) < 0.6
    pred[singles] = 5 * 10**17 + rng.permutation(n)[:singles.sum()]
    rep = evaluate(truth, pred, distractors=distractors)
    t, p = oracle_view(truth, pred, distractors)
    assert rep.n_evaluated == len(t)
    assert rep.nmi == pytest.approx(nmi_contingency_oracle(t, p), abs=1e-12)
    assert (rep.bcubed_precision, rep.bcubed_recall, rep.bcubed_f) == pytest.approx(
        bcubed_pair_oracle(t, p), abs=1e-12)


def test_evaluate_memory_does_not_grow_with_classes_times_clusters():
    # 1,600 classes with distractors unique x 5,500 clusters: a dense table
    # takes 67 MiB, its non-zero cells are at most 8,000
    rng = np.random.default_rng(0)
    n = 8000
    truth = np.repeat(np.arange(800), 9)[:n - 800]
    truth = np.concatenate([truth, np.full(800, -1)])
    pred = rng.permutation(np.arange(n) % 5500) * 1000
    tracemalloc.start()
    try:
        evaluate(truth, pred, distractors="unique")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20, peak / 2**20


def test_metrics_reject_empty_input():
    with pytest.raises(ValueError, match="nothing"):
        nmi(np.array([], np.int64), np.array([], np.int64))
    with pytest.raises(ValueError, match="nothing"):
        bcubed(np.array([], np.int64), np.array([], np.int64))


def test_evaluate_f_consistency():
    rng = np.random.default_rng(2)
    truth = rng.integers(0, 5, 60)
    pred = rng.integers(0, 5, 60)
    rep = evaluate(truth, pred)
    expect = 2 * rep.bcubed_precision * rep.bcubed_recall / (
        rep.bcubed_precision + rep.bcubed_recall)
    assert rep.bcubed_f == pytest.approx(expect, abs=1e-12)


def test_upper_bound_perfect_at_k1():
    # 2 samples per identity: each instance's 1-NN is its same-identity
    # partner, so every identity is connected at k=1
    spec = SynthSpec(num_identities=2, samples_per_identity=(2, 2), dim=8,
                     center_spread=1.0, noise_scale=(0.01, 0.01), seed=5)
    fs = normalize_rows(synth_generate(spec))
    nbrs = build_knn(fs, 2)
    (k, report), = knn_upper_bound(fs, nbrs, [1])
    assert k == 1
    assert report.bcubed_f == pytest.approx(1.0)
    assert report.nmi == pytest.approx(1.0)


def test_upper_bound_monotone_in_k(synth_1k_set, synth_1k_nbrs):
    results = knn_upper_bound(synth_1k_set, synth_1k_nbrs, [1, 2, 4, 8, 16])
    fs = [rep.bcubed_f for _, rep in results]
    assert all(b >= a - 1e-12 for a, b in zip(fs, fs[1:]))


def test_upper_bound_k_exceeds_table(synth_1k_set, synth_1k_nbrs):
    with pytest.raises(ValueError, match="exceeds"):
        knn_upper_bound(synth_1k_set, synth_1k_nbrs, [synth_1k_nbrs.k + 1])


@pytest.mark.parametrize("k", [0, -1, -7])
def test_upper_bound_rejects_k_below_one(synth_1k_set, synth_1k_nbrs, k):
    # a negative k would slice from the table's end: k = -1 scored k = width - 1
    with pytest.raises(ValueError, match=f"k={k} must be >= 1"):
        knn_upper_bound(synth_1k_set, synth_1k_nbrs, [1, k])
