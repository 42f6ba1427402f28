import warnings

import numpy as np
import pytest

from linkgcn.dataset import FeatureSet, normalize_rows
from linkgcn.ips import (BLOCK_PIVOTS, IpsConfig, _wire, build_block, normalize_node_features,
                         regime_config)
from linkgcn.knn import build_knn
from oracle_utils import discover_nodes_loop, subgraph_adjacency_oracle


def sorted_neighbor_oracle(feats):
    """Exhaustive-sort neighbor lists in float64, ties by id."""
    X = feats.astype(np.float64)
    X = X / np.linalg.norm(X, axis=1, keepdims=True)
    n = X.shape[0]
    out = []
    for i in range(n):
        out.append([j for _, j in sorted(((-float(X[i] @ X[j]), j)
                                          for j in range(n) if j != i))])
    return out


def wire(nodes, nbrs, u):
    """The (2, m) edge array of one subgraph on an arbitrary node set."""
    nodes = np.asarray(nodes, dtype=np.int64)
    return np.stack(_wire(np.zeros_like(nodes), nodes, nbrs, u))


def discover(pivot, fs, nbrs, cfg):
    """(nodes, hops) of one pivot's subgraph."""
    ips = build_block([pivot], fs, nbrs, cfg)[0]
    return ips.nodes, ips.hop_of


def dense(edges, n):
    """The 0/1 adjacency of an edge array."""
    adj = np.zeros((n, n))
    adj[edges[0], edges[1]] = 1.0
    return adj


def test_config_validation():
    with pytest.raises(ValueError, match="k_per_hop"):
        IpsConfig(h=2, k_per_hop=(3,), u=1)
    with pytest.raises(ValueError, match="h must"):
        IpsConfig(h=0, k_per_hop=(), u=1)
    with pytest.raises(ValueError):
        IpsConfig(h=1, k_per_hop=(0,), u=1)


def test_oversize_regime_is_one_knn_warning(small_random_set):
    # N = 50: the table is clamped to N - 1 once, and subgraphs built on it
    # warn no more; every pivot's 1-hop nodes are the N - 1 others
    fs = small_random_set
    cfg = IpsConfig(h=2, k_per_hop=(200, 10), u=10)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        subgraphs = build_block(range(fs.n), fs, build_knn(fs, cfg.table_k), cfg)
    assert [str(w.message) for w in caught] == ["kNN width clamped to N-1=49: k 200 -> 49"]
    assert [ips.hop1_count for ips in subgraphs] == [fs.n - 1] * fs.n


def test_build_block_refuses_one_instance():
    # one instance has no neighbor: an empty table without a warning, then one error
    fs = FeatureSet(features=np.ones((1, 4), np.float32))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        nbrs = build_knn(fs, 8)
        with pytest.raises(ValueError, match="^a subgraph needs at least 2 instances, got N=1$"):
            build_block([0], fs, nbrs, IpsConfig(h=2, k_per_hop=(8, 2), u=3))


@pytest.mark.parametrize("hops, k_per_hop", [
    (1, (80,)), (2, (80, 5)), (3, (80, 5, 5)), (4, (80, 5, 5, 5))])
def test_regime_config_hops(hops, k_per_hop):
    cfg = regime_config(80, 5, 7, hops)
    assert cfg == IpsConfig(h=hops, k_per_hop=k_per_hop, u=7)
    assert cfg.table_k == 80


def test_regime_config_rejects_zero_hops():
    with pytest.raises(ValueError, match="h must"):
        regime_config(80, 5, 5, 0)


def test_table_k_covers_u():
    assert IpsConfig(h=2, k_per_hop=(3, 2), u=9).table_k == 9


def test_discover_single_hop(small_random_set):
    nbrs = build_knn(small_random_set, 10)
    nodes, hops = discover(3, small_random_set, nbrs, IpsConfig(h=1, k_per_hop=(3,), u=1))
    np.testing.assert_array_equal(nodes, nbrs.indices[3, :3])
    np.testing.assert_array_equal(hops, [1, 1, 1])


def test_discover_dedup_absorbs_second_hop():
    # 5 points on a line of decreasing similarity to point 0; pivot's 2
    # neighbors share their own top-2 with the hop-1 set, so hop 2 adds some
    # nodes but never re-adds hop-1 members, and hop_of keeps the minimum.
    feats = np.array([[1, 0], [0.95, 0.31], [0.9, 0.44], [0.0, 1.0], [-1, 0.0]],
                     dtype=np.float32)
    fs = normalize_rows(FeatureSet(features=feats))
    nbrs = build_knn(fs, 4)
    oracle = sorted_neighbor_oracle(fs.features)
    cfg = IpsConfig(h=2, k_per_hop=(2, 2), u=2)
    nodes, hops = discover(0, fs, nbrs, cfg)
    # hand-run expansion with the oracle
    hop1 = oracle[0][:2]
    seen = {0, *hop1}
    expect_nodes = list(hop1)
    expect_hops = [1, 1]
    for q in hop1:
        for r in oracle[q][:2]:
            if r not in seen:
                seen.add(r)
                expect_nodes.append(r)
                expect_hops.append(2)
    assert list(nodes) == expect_nodes
    assert list(hops) == expect_hops
    assert 0 not in nodes


def test_discover_node_count_bound():
    rng = np.random.default_rng(21)
    fs = normalize_rows(FeatureSet(features=rng.standard_normal((100, 6)).astype(np.float32)))
    nbrs = build_knn(fs, 10)
    cfg = IpsConfig(h=2, k_per_hop=(10, 2), u=3)
    for pivot in range(0, 100, 7):
        nodes, hops = discover(pivot, fs, nbrs, cfg)
        assert 10 <= len(nodes) <= 10 + 10 * 2
        assert int(np.sum(hops == 1)) == 10


def test_discover_k_exceeds_table(small_random_set):
    nbrs = build_knn(small_random_set, 5)
    with pytest.raises(ValueError, match="exceeds"):
        discover(0, small_random_set, nbrs, IpsConfig(h=1, k_per_hop=(6,), u=1))


def test_normalize_node_features_subtracts_pivot():
    feats = np.array([[1, 1], [3, 2], [1, 1]], dtype=np.float32)
    fs = FeatureSet(features=feats)
    out = normalize_node_features(fs, 0, np.array([1, 2]))
    np.testing.assert_array_equal(out, [[2, 1], [0, 0]])


@pytest.mark.parametrize("per_node", [False, True])
def test_normalize_node_features_leaves_its_input(per_node):
    # one pivot, or one per node as build_block passes
    rng = np.random.default_rng(4)
    fs = FeatureSet(features=rng.standard_normal((30, 5)).astype(np.float32))
    before = fs.features.copy()
    nodes = np.array([3, 1, 7, 3, 29])
    pivot = np.array([0, 0, 2, 5, 5]) if per_node else 0
    out = normalize_node_features(fs, pivot, nodes)
    assert out.tobytes() == (before[nodes] - before[pivot]).tobytes()
    assert fs.features.tobytes() == before.tobytes()
    assert not np.shares_memory(out, fs.features)


def test_normalize_node_features_mean_oracle():
    rng = np.random.default_rng(3)
    fs = FeatureSet(features=rng.standard_normal((30, 5)).astype(np.float32))
    nodes = np.arange(1, 20)
    out = normalize_node_features(fs, 0, nodes)
    lhs = out.astype(np.float64).mean(axis=0)
    rhs = fs.features[nodes].astype(np.float64).mean(axis=0) - fs.features[0]
    np.testing.assert_allclose(lhs, rhs, atol=1e-6)


def test_add_edges_symmetrizes_one_direction():
    # a's global 1-NN is b, b's global 1-NN is outside the node set
    feats = np.array([[1.0, 0.0], [0.9, 0.436], [0.85, 0.527]], dtype=np.float32)
    fs = normalize_rows(FeatureSet(features=feats))
    nbrs = build_knn(fs, 2)
    # nodes {0, 2}: 0's 1-NN is 1 (outside), 2's 1-NN is 1 (outside)
    adj = dense(wire(np.array([0, 2]), nbrs, 1), 2)
    np.testing.assert_array_equal(adj, np.zeros((2, 2)))
    # nodes {1, 2}: 2's 1-NN is 1 -> symmetric edge even though 1's 1-NN is 0
    adj = dense(wire(np.array([1, 2]), nbrs, 1), 2)
    np.testing.assert_array_equal(adj, [[0, 1], [1, 0]])


def test_add_edges_rank_oracle():
    rng = np.random.default_rng(8)
    fs = normalize_rows(FeatureSet(features=rng.standard_normal((260, 8)).astype(np.float32)))
    nbrs = build_knn(fs, 200)
    oracle_lists = sorted_neighbor_oracle(fs.features)
    cases = [(np.array(sorted(rng.choice(fs.n, size=12, replace=False))), 3),
             (np.array([int(rng.integers(fs.n))]), 5)]           # one-node subgraph
    # hop-major discovery order, in the paper's test and train regimes
    for cfg in (IpsConfig(h=2, k_per_hop=(80, 5), u=5),
                IpsConfig(h=2, k_per_hop=(200, 10), u=10)):
        for pivot in (0, 131):
            cases.append((discover(pivot, fs, nbrs, cfg)[0], cfg.u))
    for nodes, u in cases:
        adj = dense(wire(nodes, nbrs, u), len(nodes))
        node_set = set(int(v) for v in nodes)
        expect = np.zeros((len(nodes), len(nodes)))
        pos = {int(v): i for i, v in enumerate(nodes)}
        for q in nodes:
            for r in oracle_lists[q][:u]:
                if r in node_set:
                    expect[pos[int(q)], pos[r]] = 1
                    expect[pos[r], pos[int(q)]] = 1
        np.testing.assert_array_equal(adj, expect)


def test_add_edges_u_exceeds_table(small_random_set):
    nbrs = build_knn(small_random_set, 4)
    with pytest.raises(ValueError, match="exceeds"):
        wire(np.array([0, 1]), nbrs, 5)


def test_build_ips_smallest_case(small_random_set):
    nbrs = build_knn(small_random_set, 3)
    ips = build_block([0], small_random_set, nbrs, IpsConfig(h=1, k_per_hop=(1,), u=1))[0]
    assert ips.size == 1
    assert ips.adjacency.shape == (1, 1) and ips.adjacency[0, 0] == 0


def test_build_ips_invariants(synth_1k_set, synth_1k_nbrs):
    cfg = IpsConfig(h=2, k_per_hop=(80, 5), u=5)
    rng = np.random.default_rng(0)
    for pivot in rng.choice(synth_1k_set.n, size=40, replace=False):
        ips = build_block([int(pivot)], synth_1k_set, synth_1k_nbrs, cfg)[0]
        assert ips.pivot not in ips.nodes
        assert len(np.unique(ips.nodes)) == ips.size
        assert ips.hop1_count == min(80, synth_1k_set.n - 1)
        np.testing.assert_array_equal(ips.adjacency, ips.adjacency.T)
        assert np.all(np.diag(ips.adjacency) == 0)
        assert ips.features.shape == (ips.size, synth_1k_set.dim)
        # every hop-2 node is within the top-k2 lists of some hop-1 node
        hop1 = set(int(v) for v in ips.nodes[ips.hop_of == 1])
        for node in ips.nodes[ips.hop_of == 2]:
            parents = [q for q in hop1
                       if int(node) in synth_1k_nbrs.indices[q, :5]]
            assert parents


def test_build_ips_deterministic(synth_1k_set, synth_1k_nbrs):
    cfg = IpsConfig(h=2, k_per_hop=(10, 3), u=4)
    a = build_block([17], synth_1k_set, synth_1k_nbrs, cfg)[0]
    b = build_block([17], synth_1k_set, synth_1k_nbrs, cfg)[0]
    np.testing.assert_array_equal(a.nodes, b.nodes)
    assert a.features.tobytes() == b.features.tobytes()
    assert a.adjacency.tobytes() == b.adjacency.tobytes()


def test_build_ips_min_hop_recorded(synth_1k_set, synth_1k_nbrs):
    cfg = IpsConfig(h=2, k_per_hop=(20, 5), u=5)
    ips = build_block([5], synth_1k_set, synth_1k_nbrs, cfg)[0]
    hop1_nodes = ips.nodes[ips.hop_of == 1]
    np.testing.assert_array_equal(hop1_nodes, synth_1k_nbrs.indices[5, :20])
    # nothing tagged hop 2 may sit in the pivot's top-k1 list
    assert not set(ips.nodes[ips.hop_of == 2]) & set(synth_1k_nbrs.indices[5, :20].tolist())


# ------------------------------------------- blocks against the loop oracles

def assert_match_oracles(subgraphs, pivots, fs, nbrs, cfg):
    """Each subgraph equals the one-pivot loop's nodes and hops and the
    per-subgraph kernel's adjacency, exactly. Its 1-hop nodes are the pivot's
    first k1 kNN ids in table order, which pipeline.predict_links relies on;
    no more than N - 1, as no instance has more neighbors."""
    assert [ips.pivot for ips in subgraphs] == list(pivots)
    k1 = min(cfg.k_per_hop[0], fs.n - 1)
    for pivot, ips in zip(pivots, subgraphs):
        assert ips.hop1_count == k1
        np.testing.assert_array_equal(ips.nodes[:k1], nbrs.indices[pivot, :k1])
        nodes, hops = discover_nodes_loop(pivot, nbrs.indices, cfg.k_per_hop)
        np.testing.assert_array_equal(ips.nodes, nodes)
        np.testing.assert_array_equal(ips.hop_of, hops)
        expect = subgraph_adjacency_oracle(nodes, nbrs.indices, cfg.u)
        assert ips.adjacency.dtype == expect.dtype
        assert ips.adjacency.tobytes() == expect.tobytes()
        np.testing.assert_array_equal(ips.edges, np.nonzero(expect))  # row-major
        assert ips.features.tobytes() == (fs.features[nodes] - fs.features[pivot]).tobytes()


def scoring_blocks(n):
    """The pivot blocks pipeline.predict_links scores: BLOCK_PIVOTS
    consecutive pivots each, the last block partial."""
    return [range(lo, min(lo + BLOCK_PIVOTS, n)) for lo in range(0, n, BLOCK_PIVOTS)]


@pytest.mark.parametrize("k_per_hop", [(80,), (80, 5), (80, 5, 5)])
def test_blocks_match_loop_oracles(synth_1k_set, synth_1k_nbrs, k_per_hop):
    cfg = IpsConfig(h=len(k_per_hop), k_per_hop=k_per_hop, u=5)
    blocks = scoring_blocks(synth_1k_set.n)
    assert [p for b in blocks for p in b] == list(range(synth_1k_set.n))
    assert 0 < len(blocks[-1]) < len(blocks[0]) == BLOCK_PIVOTS     # a partial last block
    for pivots in blocks:
        assert_match_oracles(build_block(pivots, synth_1k_set, synth_1k_nbrs, cfg),
                             pivots, synth_1k_set, synth_1k_nbrs, cfg)


def test_blocks_match_loop_oracles_train_regime(synth_246_set):
    fs = synth_246_set
    nbrs = build_knn(fs, fs.n - 1)
    oversize, full = (IpsConfig(h=2, k_per_hop=(k1, 10), u=10) for k1 in (300, fs.n - 1))
    blocks = scoring_blocks(fs.n)
    assert [len(b) for b in blocks] == [BLOCK_PIVOTS] * 15 + [6]
    for cfg in (IpsConfig(h=2, k_per_hop=(200, 10), u=10), full, oversize):
        for pivots in blocks:
            subgraphs = build_block(pivots, fs, nbrs, cfg)
            assert_match_oracles(subgraphs, pivots, fs, nbrs, cfg)
            if cfg is oversize:  # the (300, 10) regime reads the N - 1 columns there are
                for a, b in zip(subgraphs, build_block(pivots, fs, nbrs, full), strict=True):
                    np.testing.assert_array_equal(a.nodes, b.nodes)
                    np.testing.assert_array_equal(a.hop_of, b.hop_of)
                    np.testing.assert_array_equal(a.edges, b.edges)


@pytest.mark.parametrize("size", [1, 7, 64])
def test_block_of_any_pivots_matches_loop_oracles(synth_1k_set, synth_1k_nbrs, size):
    pivots = np.random.default_rng(size).permutation(synth_1k_set.n)[:71].tolist()
    for k_per_hop in ((80, 5), (1, 5)):
        cfg = IpsConfig(h=2, k_per_hop=k_per_hop, u=5)
        for lo in range(0, len(pivots), size):
            chunk = pivots[lo:lo + size]
            assert_match_oracles(build_block(chunk, synth_1k_set, synth_1k_nbrs, cfg),
                                 chunk, synth_1k_set, synth_1k_nbrs, cfg)
