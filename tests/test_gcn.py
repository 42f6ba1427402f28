import numpy as np
import pytest

from linkgcn import gcn
from linkgcn.config import seed_stream
from linkgcn.dataset import FeatureSet, FormatError, normalize_rows
from linkgcn.gcn import init_model, load_model, save_model
from linkgcn.ips import InstancePivotSubgraph, IpsConfig, build_block
from linkgcn.knn import build_knn
from oracle_utils import (dense_mean_oracle, finite_difference_grads, masked_loss_and_grads,
                          max_relative_error, random_instance, weighted_dense_oracle)


def random_graph(rng, n, symmetric=True):
    A = np.zeros((n, n))
    for _ in range(2 * n):
        i, j = rng.integers(0, n, 2)
        if i != j:
            A[i, j] = A[j, i] = 1.0
    return A


def first_g(aggregator, A, X, mlp=None, row_normalized=False):
    """The G that a one-layer `aggregator` model mixes the graph of a dense
    adjacency with, in X's dtype; mlp = (w1, w2) scores `attention` edges."""
    d, dt = X.shape[1], X.dtype
    model = gcn.GcnModel(aggregator, [np.zeros((2 * d, 1), dt)], np.zeros((1, 2), dt),
                         np.zeros(2, dt), None if mlp is None else [mlp], row_normalized)
    caches = []
    gcn._forward_edges(model, X, *np.nonzero(A), caches=caches)
    return caches[0][1]


def mean_of(A, row_normalized=False):
    """The `mean` mixing matrix of a dense adjacency's edges, in its dtype."""
    return first_g("mean", A, np.zeros((len(A), 1), A.dtype), row_normalized=row_normalized)


def softmax_of(A, X, mlp=None):
    """The `weighted` mixing matrix of a dense adjacency's edges, or the
    `attention` one for mlp = (w1, w2)."""
    return first_g("weighted" if mlp is None else "attention", A, X, mlp)


def forward_dense(model, X, A):
    """Every layer and the head on every row of the graph of a dense adjacency."""
    return gcn._forward_edges(model, X, *np.nonzero(A))


# --------------------------------------------------------------------- mean

def test_mean_two_node_swap():
    A = np.array([[0.0, 1.0], [1.0, 0.0]])
    G = mean_of(A)
    np.testing.assert_array_equal(G, A)
    X = np.array([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(G @ X, X[::-1])


def test_mean_path_graph():
    A = np.zeros((3, 3))
    A[0, 1] = A[1, 0] = 1.0
    A[1, 2] = A[2, 1] = 1.0
    G = mean_of(A)
    # degrees 1, 2, 1 -> off-diagonal entries 1/sqrt(2)
    assert G[0, 1] == pytest.approx(1 / np.sqrt(2))
    assert G[1, 0] == pytest.approx(1 / np.sqrt(2))
    assert G[1, 2] == pytest.approx(1 / np.sqrt(2))
    assert G[0, 2] == 0.0
    # oracle: dense product with explicit diagonal scaling
    deg = A.sum(1)
    expect = np.diag(deg ** -0.5) @ A @ np.diag(deg ** -0.5)
    np.testing.assert_allclose(G, expect, atol=1e-12)


def test_mean_isolated_node_zero_row():
    A = np.zeros((3, 3))
    A[0, 1] = A[1, 0] = 1.0
    G = mean_of(A)
    np.testing.assert_array_equal(G[2], 0.0)
    np.testing.assert_array_equal(G[:, 2], 0.0)


def test_mean_row_normalized_variant():
    A = np.zeros((3, 3))
    A[0, 1] = A[1, 0] = 1.0
    A[1, 2] = A[2, 1] = 1.0
    G = mean_of(A, row_normalized=True)
    np.testing.assert_allclose(G.sum(axis=1), [1.0, 1.0, 1.0])
    assert G[1, 0] == pytest.approx(0.5)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("row_normalized", [False, True])
def test_mean_bitwise_equals_dense_formula(dtype, row_normalized):
    rng = np.random.default_rng(6)
    for _ in range(100):
        n = int(rng.integers(1, 40))
        A = random_graph(rng, n).astype(dtype)
        A[rng.integers(0, n)] = 0.0       # an isolated node
        A[:, A.sum(axis=1) == 0] = 0.0
        G = mean_of(A, row_normalized)
        expect = dense_mean_oracle(A, row_normalized)
        assert G.dtype == expect.dtype and G.tobytes() == expect.tobytes()


# ----------------------------------------------------------------- weighted

def test_weighted_single_neighbor():
    A = np.array([[0.0, 1.0], [1.0, 0.0]])
    X = np.array([[1.0, 0.0], [0.3, -2.0]])
    G = softmax_of(A, X)
    assert G[0, 1] == pytest.approx(1.0)
    assert G[1, 0] == pytest.approx(1.0)


def test_weighted_equal_similarities():
    A = np.zeros((3, 3))
    A[0, 1] = A[1, 0] = A[0, 2] = A[2, 0] = 1.0
    X = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])  # both sims are 0
    G = softmax_of(A, X)
    assert G[0, 1] == pytest.approx(0.5)
    assert G[0, 2] == pytest.approx(0.5)


def test_weighted_softmax_values():
    # neighbors at cosine similarity 0.9 and 0.1 from the scalar oracle
    s1, s2 = 0.9, 0.1
    X = np.array([[1.0, 0.0],
                  [s1, np.sqrt(1 - s1 ** 2)],
                  [s2, np.sqrt(1 - s2 ** 2)]])
    A = np.zeros((3, 3))
    A[0, 1] = A[1, 0] = A[0, 2] = A[2, 0] = 1.0
    G = softmax_of(A, X)
    z = np.exp(s1) + np.exp(s2)
    assert G[0, 1] == pytest.approx(np.exp(s1) / z, abs=1e-9)
    assert G[0, 2] == pytest.approx(np.exp(s2) / z, abs=1e-9)


def test_weighted_matches_dense_reference():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 15))
        A = random_graph(rng, n)
        A[rng.integers(0, n)] = 0.0       # at least one isolated node
        A[:, A.sum(axis=1) == 0] = 0.0
        X = rng.standard_normal((n, 4))
        X[rng.random(n) < 0.25] = 0.0     # zero feature rows
        G = softmax_of(A, X)
        worst = max(worst, float(np.max(np.abs(G - weighted_dense_oracle(A, X)))))
    assert worst < 1e-12


def test_weighted_zero_feature_row():
    A = np.array([[0.0, 1.0], [1.0, 0.0]])
    X = np.array([[0.0, 0.0], [1.0, 1.0]])
    G = softmax_of(A, X)  # similarity substituted with 0
    assert G[0, 1] == pytest.approx(1.0)  # softmax over a singleton


# ---------------------------------------------------------------- attention

def test_attention_zero_mlp_uniform():
    rng = np.random.default_rng(0)
    A = random_graph(rng, 5)
    X = rng.standard_normal((5, 3))
    w1 = np.zeros((6, 4))
    w2 = np.zeros((4, 1))
    G = softmax_of(A, X, (w1, w2))
    deg = A.sum(1)
    for i in range(5):
        if deg[i]:
            np.testing.assert_allclose(G[i][A[i] > 0], 1.0 / deg[i], atol=1e-12)


def test_attention_single_neighbor_weight_one():
    rng = np.random.default_rng(1)
    A = np.array([[0.0, 1.0], [1.0, 0.0]])
    X = rng.standard_normal((2, 3))
    w1 = rng.standard_normal((6, 4))
    w2 = rng.standard_normal((4, 1))
    G = softmax_of(A, X, (w1, w2))
    assert G[0, 1] == pytest.approx(1.0)


def test_attention_rows_sum_to_one():
    rng = np.random.default_rng(2)
    A = random_graph(rng, 4)
    X = rng.standard_normal((4, 3))
    w1 = rng.standard_normal((6, 5))
    w2 = rng.standard_normal((5, 1))
    G = softmax_of(A, X, (w1, w2))
    deg = A.sum(1)
    sums = G.sum(axis=1)
    np.testing.assert_allclose(sums[deg > 0], 1.0, atol=1e-6)
    np.testing.assert_allclose(sums[deg == 0], 0.0)


def test_row_stochasticity_many_draws():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(2, 12))
        A = random_graph(rng, n)
        X = rng.standard_normal((n, 4))
        for G in (softmax_of(A, X),
                  softmax_of(A, X, (rng.standard_normal((8, 3)),
                                      rng.standard_normal((3, 1))))):
            deg = A.sum(1)
            sums = G.sum(axis=1)
            np.testing.assert_allclose(sums[deg > 0], 1.0, atol=1e-6)
            np.testing.assert_allclose(sums[deg == 0], 0.0)


# ------------------------------------------------------------ layer forward
# One-layer `mean` models: the layer's output relu([X | G X] W) is the
# second value forward_dense returns, with G the normalized adjacency.

def one_layer(W):
    model = init_model([W.shape[0] // 2, W.shape[1]], "mean", seed_stream(0, "init"),
                       dtype=np.float64)
    model.layer_weights[0][:] = W
    return model


def test_gconv_isolated_identity_selection():
    X = np.array([[1.0, -2.0], [3.0, -4.0]])
    A = np.zeros((2, 2))                  # isolated nodes: G = 0
    W = np.vstack([np.eye(2), np.zeros((2, 2))])
    _, Y = forward_dense(one_layer(W), X, A)
    np.testing.assert_array_equal(Y, np.maximum(X, 0))


def test_gconv_swap_graph_hand_product():
    X = np.array([[1.0, 0.0], [0.0, 2.0]])
    A = np.array([[0.0, 1.0], [1.0, 0.0]])  # degree 1: G = A
    W = np.array([[1.0], [0.0], [0.0], [0.0]])
    _, Y = forward_dense(one_layer(W), X, A)
    np.testing.assert_array_equal(Y, [[1.0], [0.0]])


def test_gconv_matches_dense_oracle():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((6, 3))
    A = rng.random((6, 6))
    A = (A + A.T > 1.0).astype(float)     # 0/1, symmetric, two self loops
    deg = A.sum(axis=1)
    G = np.diag(deg ** -0.5) @ A @ np.diag(deg ** -0.5)
    W = rng.standard_normal((6, 2))
    expect = np.maximum(np.hstack([X, G @ X]) @ W, 0)
    _, Y = forward_dense(one_layer(W), X, A)
    np.testing.assert_allclose(Y, expect, atol=1e-12)


def test_gconv_shape_mismatch():
    with pytest.raises(ValueError):
        forward_dense(one_layer(np.ones((4, 2))), np.ones((2, 3)), np.zeros((2, 2)))


# ------------------------------------------------------------ full forward

def make_ips(fs, pivot=0, k1=10, k2=3, u=3):
    nbrs = build_knn(fs, max(k1, u) + 2)
    return build_block([pivot], fs, nbrs, IpsConfig(h=2, k_per_hop=(k1, k2), u=u))[0]


def test_forward_zero_weight_model(small_random_set):
    ips = make_ips(small_random_set)
    model = init_model([8, 4, 4, 4, 4], "mean", seed_stream(0, "init"), dtype=np.float64)
    for W in model.layer_weights:
        W[:] = 0.0
    model.head_weight[:] = 0.0
    model.head_bias[:] = [0.3, -0.2]
    probs = gcn.forward(model, ips)
    expect = np.exp(-0.2) / (np.exp(0.3) + np.exp(-0.2))
    np.testing.assert_allclose(probs, expect, atol=1e-12)


def test_forward_single_node_ips(small_random_set):
    nbrs = build_knn(small_random_set, 2)
    ips = build_block([0], small_random_set, nbrs, IpsConfig(h=1, k_per_hop=(1,), u=1))[0]
    model = init_model([8, 4, 4, 4, 4], "mean", seed_stream(1, "init"))
    probs = gcn.forward(model, ips)
    assert probs.shape == (1,)
    assert 0.0 <= probs[0] <= 1.0


def test_forward_deterministic(small_random_set):
    ips = make_ips(small_random_set)
    model = init_model([8, 4, 4, 4, 4], "weighted", seed_stream(2, "init"))
    a = gcn.forward(model, ips)
    b = gcn.forward(model, ips)
    assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("aggregator, row_normalized", [
    ("mean", False), ("mean", True), ("weighted", False), ("attention", False)])
def test_forward_matches_dense_full_forward(synth_1k_set, synth_1k_nbrs, aggregator,
                                            row_normalized):
    # forward runs on the edge list and its last layer on hop-1 rows only
    model = init_model([16, 32, 32, 16, 8], aggregator, seed_stream(7, "init"),
                       attention_hidden=8, mean_row_normalized=row_normalized)
    cfg = IpsConfig(h=2, k_per_hop=(80, 5), u=5)
    worst = 0.0
    for pivot in (0, 333, 999):
        ips = build_block([pivot], synth_1k_set, synth_1k_nbrs, cfg)[0]
        logits, _ = gcn._forward_edges(model, ips.features, *ips.edges)
        expect = gcn._softmax(logits)[: ips.hop1_count, 1]
        probs = gcn.forward(model, ips)
        assert probs.shape == expect.shape
        worst = max(worst, float(np.max(np.abs(probs - expect))))
    assert worst < 1e-6


def test_forward_probs_sum_to_one(small_random_set):
    ips = make_ips(small_random_set)
    model = init_model([8, 4, 4, 4, 4], "mean", seed_stream(3, "init"), dtype=np.float64)
    logits, _ = gcn._forward_edges(model, ips.features, *ips.edges)
    p = gcn._softmax(logits)
    np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-6)


# ------------------------------------------------------------------- loss

def test_loss_half_half_prediction(small_random_set):
    ips = make_ips(small_random_set)
    model = init_model([8, 4, 4, 4, 4], "mean", seed_stream(4, "init"), dtype=np.float64)
    for W in model.layer_weights:
        W[:] = 0.0
    model.head_weight[:] = 0.0
    model.head_bias[:] = 0.0  # exact (0.5, 0.5) everywhere
    labels = np.zeros(ips.hop1_count, dtype=np.int64)
    loss, _ = gcn.loss_and_grads_edges(model, ips.features, ips.edges, labels)
    assert loss == pytest.approx(np.log(2), abs=1e-12)


def test_loss_saturated_correct(small_random_set):
    ips = make_ips(small_random_set)
    model = init_model([8, 4, 4, 4, 4], "mean", seed_stream(5, "init"), dtype=np.float64)
    for W in model.layer_weights:
        W[:] = 0.0
    model.head_weight[:] = 0.0
    model.head_bias[:] = [-30.0, 30.0]  # saturated positive
    labels = np.ones(ips.hop1_count, dtype=np.int64)
    loss, grads = gcn.loss_and_grads_edges(model, ips.features, ips.edges, labels)
    assert loss < 1e-9
    assert max(float(np.max(np.abs(g))) for g in grads) < 1e-9


def test_loss_requires_hop1_nodes():
    model = init_model([2, 2, 2], "mean", seed_stream(0, "init"))
    with pytest.raises(ValueError, match="1-hop|loss"):
        gcn.loss_and_grads_edges(model, np.ones((3, 2)), np.zeros((2, 0), np.int64),
                                 np.zeros(0, np.int64))


@pytest.mark.parametrize("aggregator, row_normalized", [
    ("mean", False), ("mean", True), ("weighted", False), ("attention", False)])
def test_hop1_rows_backward_matches_full_rows(synth_1k_set, synth_1k_nbrs, aggregator,
                                              row_normalized):
    # last layer and head on the hop-1 rows only, against every row under a
    # hop-1 loss mask
    model = init_model([16, 12, 8, 6], aggregator, seed_stream(8, "init"), attention_hidden=5,
                       dtype=np.float64, mean_row_normalized=row_normalized)
    ips = build_block([333], synth_1k_set, synth_1k_nbrs, IpsConfig(h=2, k_per_hop=(30, 4), u=5))[0]
    n1 = ips.hop1_count
    assert ips.size > n1
    labels = (np.arange(n1) % 3 == 0).astype(np.int64)
    loss, grads = gcn.loss_and_grads_edges(model, ips.features, ips.edges, labels)
    full_labels = np.zeros(ips.size, np.int64)
    full_labels[:n1] = labels
    loss_ref, grads_ref = masked_loss_and_grads(model, ips.features, ips.adjacency,
                                                full_labels, np.arange(ips.size) < n1)
    assert loss == pytest.approx(loss_ref, rel=1e-12)
    for g, ref in zip(grads, grads_ref, strict=True):
        np.testing.assert_allclose(g, ref, rtol=0, atol=1e-10 * float(np.max(np.abs(ref))))


@pytest.mark.parametrize("aggregator", gcn.AGGREGATORS)
def test_gradients_match_finite_differences(aggregator):
    # three random graphs, then one without edges: every G is zero and the
    # edge softmax runs on empty segments
    for seed, edgeless in [(0, False), (1, False), (2, False), (3, True)]:
        model, X, A, labels, mask = random_instance(aggregator, seed, edgeless=edgeless)
        edges, hop1_labels = np.stack(np.nonzero(A)), labels[mask]
        loss, analytic = gcn.loss_and_grads_edges(model, X, edges, hop1_labels)
        numeric = finite_difference_grads(model, X, edges, hop1_labels)
        assert np.isfinite(loss)
        assert max_relative_error(analytic, numeric) < 1e-5


@pytest.mark.parametrize("aggregator", gcn.AGGREGATORS)
def test_permutation_equivariance(aggregator):
    model, X, A, labels, mask = random_instance(aggregator, seed=12)
    loss, _ = masked_loss_and_grads(model, X, A, labels, mask)
    logits, _ = forward_dense(model, X, A)
    rng = np.random.default_rng(0)
    perm = rng.permutation(X.shape[0])
    loss_p, _ = masked_loss_and_grads(model, X[perm], A[np.ix_(perm, perm)],
                                      labels[perm], mask[perm])
    logits_p, _ = forward_dense(model, X[perm], A[np.ix_(perm, perm)])
    assert loss_p == pytest.approx(loss, abs=1e-6)
    np.testing.assert_allclose(logits_p, logits[perm], atol=1e-6)


# ------------------------------------------------------------- checkpoints

@pytest.mark.parametrize("aggregator", gcn.AGGREGATORS)
def test_checkpoint_roundtrip(tmp_path, aggregator):
    model = init_model([8, 4, 4, 4, 4], aggregator, seed_stream(9, "init"),
                       attention_hidden=5)
    path = tmp_path / "m.gcnm"
    save_model(model, path)
    back = load_model(path)
    assert back.aggregator == aggregator
    assert back.layer_dims == model.layer_dims
    for a, b in zip(model.parameters(), back.parameters()):
        np.testing.assert_array_equal(a.astype(np.float32), b)


def _patch(data: bytes, offset: int, value: bytes) -> bytes:
    return data[:offset] + value + data[offset + len(value):]


def _saved_bytes(tmp_path, model) -> bytes:
    save_model(model, tmp_path / "src.gcnm")
    return (tmp_path / "src.gcnm").read_bytes()


def _model_with(model, **changes):
    fields = dict(aggregator=model.aggregator, layer_weights=model.layer_weights,
                  head_weight=model.head_weight, head_bias=model.head_bias,
                  attention_mlp=model.attention_mlp)
    fields.update(changes)
    return gcn.GcnModel(**fields)


# header: magic[0:4] version[4:8] aggregator[8] row_norm[9] n_layers[10:14] n_tensors[14:18]
@pytest.mark.parametrize("case, match", [
    ("bad_tag", "unknown aggregator tag 7"),
    ("short_header", "truncated header"),
    ("short_shape", "truncated tensor shape"),
    ("short_payload", "truncated tensor payload"),
    ("layer_count", "tensors for 3 mean layers, expected 5"),
    ("trailing", "1 trailing bytes"),
    ("unchained", "tensor 1 shape"),
    ("head", "tensor 2 shape"),
    ("attention", "tensor 5 shape"),
    ("nonfinite", "non-finite"),
])
def test_load_model_rejects_malformed(tmp_path, case, match):
    mean = init_model([4, 3, 2], "mean", seed_stream(0, "init"))
    attn = init_model([4, 3, 2], "attention", seed_stream(0, "init"), attention_hidden=2)
    data = _saved_bytes(tmp_path, mean)
    if case == "bad_tag":
        data = _patch(data, 8, b"\x07")
    elif case == "short_header":
        data = data[:12]
    elif case == "short_shape":
        data = data[:26]             # mid-way through the first tensor's shape
    elif case == "short_payload":
        data = data[:-1]
    elif case == "layer_count":
        data = _patch(data, 10, (3).to_bytes(4, "little"))
    elif case == "trailing":
        data += b"\0"
    elif case == "unchained":
        data = _saved_bytes(tmp_path, _model_with(mean, layer_weights=[
            mean.layer_weights[0], np.zeros((4, 2), np.float32)]))
    elif case == "head":
        data = _saved_bytes(tmp_path, _model_with(mean, head_weight=np.zeros((3, 2), np.float32)))
    elif case == "attention":
        w1, w2 = attn.attention_mlp[0]
        data = _saved_bytes(tmp_path, _model_with(attn, attention_mlp=[
            (w1, np.zeros((3, 1), np.float32)), attn.attention_mlp[1]]))
    elif case == "nonfinite":
        mean.head_bias[0] = np.inf   # after construction, so save_model writes it
        data = _saved_bytes(tmp_path, mean)
    path = tmp_path / "bad.gcnm"
    path.write_bytes(data)
    with pytest.raises(FormatError, match=match) as exc:
        load_model(path)
    assert "\n" not in str(exc.value)


def test_model_rejects_nonfinite():
    model = init_model([4, 2, 2], "mean", seed_stream(0, "init"))
    model.layer_weights[0][0, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        gcn.GcnModel(aggregator="mean", layer_weights=model.layer_weights,
                     head_weight=model.head_weight, head_bias=model.head_bias)


@pytest.mark.parametrize("aggregator", ["mean", "weighted"])
def test_model_rejects_attention_mlp_without_attention(aggregator):
    # a weighted model would otherwise score with the MLPs, save a file that
    # load_model rejects, and a mean model would fail in the backward pass
    attn = init_model([4, 3, 3], "attention", seed_stream(0, "init"), attention_hidden=2)
    with pytest.raises(ValueError, match=f"^{aggregator} aggregator takes no attention MLP$"):
        _model_with(attn, aggregator=aggregator)
    plain = _model_with(attn, aggregator=aggregator, attention_mlp=None)
    assert len(plain.parameters()) == 2 + 2
