import tracemalloc

import numpy as np
import pytest

from linkgcn import merge
from linkgcn.dataset import FeatureSet, FormatError, normalize_rows
from linkgcn.ips import IpsConfig, build_block
from linkgcn.knn import NeighborTable, build_knn
from linkgcn.merge import (EDGE_CHUNK, WeightedEdgeSet, _components, bfs_cluster,
                           canonical_labels,
                           filter_singletons, load_partition, pool_edges,
                           propagate_cluster, save_edges, save_partition,
                           table_components, threshold_baseline)
from oracle_utils import (bfs_components, discover_nodes_loop, pool_edges_oracle,
                          propagate_oracle, subgraph_adjacency_oracle, union_find_components)


def edge_set(triples):
    triples = sorted((min(a, b), max(a, b), w) for a, b, w in triples)
    return WeightedEdgeSet(i=np.array([t[0] for t in triples], np.int64),
                           j=np.array([t[1] for t in triples], np.int64),
                           w=np.array([t[2] for t in triples], np.float64))


def random_edges(rng, n, m):
    triples = {}
    for _ in range(m):
        a, b = rng.integers(0, n, 2)
        if a != b:
            key = (min(a, b), max(a, b))
            triples[key] = float(rng.random())
    return edge_set([(a, b, w) for (a, b), w in triples.items()])


# ------------------------------------------------------------- pool_edges
# pool_edges reads two (P, k) tables: row p holds pivot p's neighbor ids and
# their likelihoods; the ids may exceed P - 1.

def test_pool_edges_max_rule():
    edges = pool_edges([[1], [0]], [[0.8], [0.6]])
    assert len(edges) == 1
    assert (edges.i[0], edges.j[0]) == (0, 1)
    assert edges.w[0] == pytest.approx(0.8)


def test_pool_edges_one_direction():
    edges = pool_edges([[2], [2]], [[0.4], [0.5]])
    assert (edges.i[0], edges.j[0], edges.w[0]) == (0, 2, 0.4)
    assert (edges.i[1], edges.j[1], edges.w[1]) == (1, 2, 0.5)


def test_pool_edges_pair_count_oracle():
    rng = np.random.default_rng(0)
    hop1 = [[1, 2], [0, 2], [0, 1]]
    probs = rng.random((3, 2))
    edges = pool_edges(hop1, probs)
    expect_pairs = {tuple(sorted((p, q))) for p, nq in enumerate(hop1) for q in nq}
    assert len(edges) == len(expect_pairs)


def test_pool_edges_order_invariant():
    # relabeling the instances permutes the rows and maps every id; the pooled
    # edges are the relabeled ones
    rng = np.random.default_rng(1)
    n, k = 6, 2
    hop1 = np.array([rng.choice([q for q in range(n) if q != p], k, replace=False)
                     for p in range(n)])
    probs = rng.random((n, k))
    perm = rng.permutation(n)
    moved_hop1, moved_probs = np.empty_like(hop1), np.empty_like(probs)
    moved_hop1[perm], moved_probs[perm] = perm[hop1], probs
    fwd = pool_edges(hop1, probs)
    rev = pool_edges(moved_hop1, moved_probs)
    back = np.argsort(perm)
    i, j = back[rev.i], back[rev.j]
    order = np.lexsort((np.maximum(i, j), np.minimum(i, j)))
    np.testing.assert_array_equal(fwd.i, np.minimum(i, j)[order])
    np.testing.assert_array_equal(fwd.j, np.maximum(i, j)[order])
    np.testing.assert_array_equal(fwd.w, rev.w[order])


def assert_pool_matches_oracle(hop1, probs):
    edges = pool_edges(hop1, probs)
    i, j, w = pool_edges_oracle(range(len(hop1)), hop1, probs)
    assert np.array_equal(edges.i, i) and np.array_equal(edges.j, j)
    # float32 weights that widen to exactly the oracle's float64 values
    assert edges.w.dtype == np.float32 and edges.w.astype(np.float64).tobytes() == w.tobytes()


def test_pool_edges_matches_dict_oracle():
    rng = np.random.default_rng(2)
    for trial in range(200):
        n = int(rng.integers(2, 40))
        rows, k = int(rng.integers(1, n + 1)), int(rng.integers(0, 8))
        # ids drawn from the other n - 1 instances, repeats allowed
        hop1 = rng.integers(0, n - 1, (rows, k))
        hop1 += hop1 >= np.arange(rows)[:, None]
        # one decimal: tied likelihoods within a pair and across pairs
        probs = np.round(rng.random((rows, k)), 1).astype(np.float32)
        assert_pool_matches_oracle(hop1.tolist() if trial % 2 else hop1, probs)


def test_pool_edges_both_directions_and_empty_lists():
    assert_pool_matches_oracle([[1, 2], [0, 0], [0, 0]],
                               [[0.25, 0.5], [0.75, 0.75], [0.5, 0.5]])
    assert_pool_matches_oracle([[1], [3], [1], [1]], [[0.25], [0.5], [0.0], [0.5]])
    empty = pool_edges(np.empty((3, 0), np.int64), np.empty((3, 0), np.float32))
    assert len(empty) == 0 and empty.i.dtype == np.int32 and empty.w.dtype == np.float32
    assert len(pool_edges(np.empty((0, 0)), np.empty((0, 0)))) == 0
    # ragged rows, or tables of different shapes, are refused
    for hop1, probs in (([[1, 2], [0]], [[0.5, 0.5], [0.5]]), ([[1, 2], [0, 2]], [[0.5, 0.5]])):
        with pytest.raises(ValueError):
            pool_edges(hop1, probs)


def test_pool_edges_peak_per_link():
    # Beyond its two tables, pooling holds at most the int64 keys, the sort
    # order and the sorted keys at once: 24 bytes a link, and 25 while the
    # first-of-pair mask (1 byte) and the kept order (8 bytes a kept pair)
    # outlive the full-length order. Random ids keep nearly every pair.
    rng = np.random.default_rng(6)
    n, k = 12_500, 80
    hop1 = rng.integers(0, n - 1, (n, k), dtype=np.int32)
    hop1 += hop1 >= np.arange(n, dtype=np.int32)[:, None]
    probs = rng.random((n, k), dtype=np.float32)
    tracemalloc.start()
    try:
        pool_edges(hop1, probs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 25 * n * k + (1 << 20), peak / (n * k)


def test_edge_set_validation():
    with pytest.raises(ValueError, match="canonical"):
        WeightedEdgeSet(i=np.array([2]), j=np.array([1]), w=np.array([0.5]))
    with pytest.raises(ValueError, match="weights"):
        edge_set([(0, 1, 1.5)])
    with pytest.raises(ValueError, match="finite"):
        edge_set([(0, 1, 0.5), (1, 2, np.nan)])
    # the other direction's 0.5 would win the pair, hiding the NaN
    with pytest.raises(ValueError, match="pivot 1 has a non-finite"):
        pool_edges([[1], [0], [1]], [[0.5], [np.nan], [np.inf]])
    with pytest.raises(ValueError, match="duplicate"):
        WeightedEdgeSet(i=np.array([0, 0]), j=np.array([1, 1]), w=np.array([0.5, 0.6]))


def test_edge_set_duplicates_in_unsorted_input():
    i, j = np.array([3, 0, 2, 1, 0]), np.array([7, 1, 5, 4, 1])
    with pytest.raises(ValueError, match="duplicate edge"):
        WeightedEdgeSet(i=i, j=j, w=np.full(5, 0.5))
    # the same pairs without the repeat are accepted, in their given order
    edges = WeightedEdgeSet(i=i[:4], j=j[:4], w=np.full(4, 0.5))
    np.testing.assert_array_equal(edges.i, [3, 0, 2, 1])
    np.testing.assert_array_equal(edges.j, [7, 1, 5, 4])


def pooled_random_edges(rng, n, k):
    """pool_edges output for random kNN-like rows: k distinct-from-self ids each."""
    hop1 = rng.integers(0, n - 1, (n, k))
    hop1 += hop1 >= np.arange(n)[:, None]
    return pool_edges(hop1, rng.random((n, k), dtype=np.float32))


def test_edge_set_rejects_a_repeat_in_shuffled_pooled_edges():
    rng = np.random.default_rng(3)
    edges = pooled_random_edges(rng, 200, 10)
    m = len(edges)
    order = rng.permutation(m)
    i, j, w = edges.i[order], edges.j[order], edges.w[order]
    assert len(WeightedEdgeSet(i=i, j=j, w=w)) == m
    # edge src copied to position dst: after sorted edges, and anywhere in shuffled ones
    sorted_edges, shuffled = (edges.i, edges.j, edges.w), (i, j, w)
    for arrays, src, dst in ((sorted_edges, 0, m), (shuffled, 0, m), (shuffled, m - 1, 1),
                             (shuffled, m // 2, m // 2)):
        ci, cj, cw = (np.insert(a, dst, a[src]) for a in arrays)
        with pytest.raises(ValueError, match="duplicate edge"):
            WeightedEdgeSet(i=ci, j=cj, w=cw)


def test_edge_set_check_of_pooled_edges_needs_no_sorted_copy():
    # pool_edges output is strictly increasing by (i, j), so the duplicate
    # check holds one int64 key and one comparison byte an edge
    edges = pooled_random_edges(np.random.default_rng(4), 12_500, 80)
    m = len(edges)
    assert m > 900_000
    tracemalloc.start()
    try:
        WeightedEdgeSet(i=edges.i, j=edges.j, w=edges.w)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 9 * m + (64 << 10), peak / m


def test_edge_set_empty():
    edges = WeightedEdgeSet(i=np.empty(0, np.int64), j=np.empty(0, np.int64),
                            w=np.empty(0))
    assert len(edges) == 0
    assert edges.i.dtype == edges.j.dtype == np.int32 and edges.w.dtype == np.float32


# ------------------------------------------------- int32 ids past 2^31 keys

def test_int32_ids_keep_int64_keys_past_two_to_the_31():
    # N = 50,000 > 46,341, so id * N passes 2^31: every key that combines two
    # ids must be computed in int64. Every row lists k ids near N - 1.
    n, k = 50_000, 4
    rng = np.random.default_rng(11)
    offsets = rng.integers(1, 60, (n, k)).cumsum(axis=1)  # distinct within a row
    ids = n - offsets
    own = ids == np.arange(n)[:, None]
    ids[own] = (n - offsets[:, -1] - 1)[own.any(axis=1)]
    nbrs = NeighborTable(indices=ids, similarities=np.zeros((n, k), np.float32))
    assert nbrs.indices.dtype == np.int32
    assert np.array_equal(nbrs.indices, ids) and int(ids.max()) * n >= 2**31

    fs = FeatureSet(features=rng.standard_normal((n, 2)).astype(np.float32))
    cfg = IpsConfig(h=2, k_per_hop=(4, 2), u=2)
    pivots = [0, 1] + list(range(n - 16, n))
    for ips in build_block(pivots, fs, nbrs, cfg):
        nodes, hops = discover_nodes_loop(ips.pivot, ids, cfg.k_per_hop)
        assert np.array_equal(ips.nodes, nodes) and ips.hop1_count == np.count_nonzero(hops == 1)
        assert ips.adjacency.tobytes() == subgraph_adjacency_oracle(nodes, ids, cfg.u).tobytes()

    probs = rng.random((n, k), dtype=np.float32)
    edges = pool_edges(nbrs.indices, probs)
    i, j, w = pool_edges_oracle(range(n), ids, probs)
    assert np.array_equal(edges.i, i) and np.array_equal(edges.j, j)
    assert np.array_equal(edges.w.astype(np.float64), w)

    src = np.repeat(np.arange(n, dtype=np.int64), k)
    keep_odd = (np.arange(n)[:, None] + np.arange(k)) % 2 == 1
    out = table_components(n, nbrs.indices, lambda lo, hi: keep_odd[lo:hi])
    expect = union_find_components(n, src[keep_odd.ravel()], ids.ravel()[keep_odd.ravel()])
    np.testing.assert_array_equal(out, canonical_labels(expect))

    pair_i, pair_j = np.array([n - 5, n - 3, n - 2]), np.array([n - 1, n - 1, n - 1])
    edges = WeightedEdgeSet(i=pair_i, j=pair_j, w=np.full(3, 0.5))
    assert np.array_equal(edges.i, pair_i) and np.array_equal(edges.j, pair_j)
    with pytest.raises(ValueError, match="duplicate edge"):
        WeightedEdgeSet(i=np.append(pair_i, n - 3), j=np.append(pair_j, n - 1),
                        w=np.full(4, 0.5))


# ------------------------------------------------------------ bfs_cluster

def test_bfs_threshold_split():
    edges = edge_set([(1, 2, 0.9), (2, 3, 0.4)])
    out = bfs_cluster(edges, 0.5, n=4)
    assert out[1] == out[2] != out[3]


def test_bfs_tau_zero_full_components():
    edges = edge_set([(0, 1, 0.1), (2, 3, 0.0)])
    out = bfs_cluster(edges, 0.0, n=5)
    assert out[0] == out[1]
    assert out[2] == out[3]
    assert len(np.unique(out)) == 3


def test_bfs_matches_union_find_oracle():
    rng = np.random.default_rng(7)
    for _ in range(10):
        edges = random_edges(rng, 40, 80)
        tau = float(rng.random())
        out = bfs_cluster(edges, tau, n=40)
        keep = edges.w.astype(np.float64) >= tau
        oracle = union_find_components(40, edges.i[keep], edges.j[keep])
        np.testing.assert_array_equal(out, canonical_labels(oracle))


def test_bfs_refinement_monotonicity():
    rng = np.random.default_rng(8)
    edges = random_edges(rng, 30, 60)
    prev = None
    for tau in np.linspace(0.0, 1.0, 11):
        cur = bfs_cluster(edges, float(tau), n=30)
        if prev is not None:
            # raising tau only splits: members of a cur-cluster share a prev-cluster
            for c in np.unique(cur):
                members = np.flatnonzero(cur == c)
                assert len(np.unique(prev[members])) == 1
        prev = cur


def test_bfs_cluster_ids_dense_and_by_smallest_member():
    edges = edge_set([(3, 4, 1.0), (0, 5, 1.0)])
    out = bfs_cluster(edges, 0.5, n=6)
    assert out[0] == 0 and out[5] == 0   # cluster containing instance 0
    assert out[1] == 1 and out[2] == 2
    assert out[3] == 3 and out[4] == 3


# ------------------------------------------------------------- _components

def edge_list_components(n, src, dst, chunk=EDGE_CHUNK):
    """_components of a plain edge list, read `chunk` edges at a time."""
    return _components(n, lambda lo, hi: (src[lo:hi], dst[lo:hi]), len(src), chunk)


def assert_components_match_oracles(n, src, dst):
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    out = edge_list_components(n, src, dst)
    assert out.dtype == np.int64 and out.shape == (n,)
    np.testing.assert_array_equal(out, bfs_components(n, src, dst))
    np.testing.assert_array_equal(out, union_find_components(n, src, dst))


def test_components_random_graphs_match_oracles():
    rng = np.random.default_rng(9)
    for _ in range(50):
        n = int(rng.integers(1, 300))
        m = int(rng.integers(0, 3 * n))
        assert_components_match_oracles(n, rng.integers(0, n, m), rng.integers(0, n, m))


def test_components_degenerate_graphs():
    assert_components_match_oracles(0, [], [])
    assert_components_match_oracles(1, [], [])
    assert_components_match_oracles(1, [0], [0])
    assert_components_match_oracles(5, [], [])
    assert_components_match_oracles(5, [2, 3, 3], [2, 3, 4])     # self-loops
    assert_components_match_oracles(6, [4, 1, 4, 1], [1, 4, 1, 4])  # duplicates


def test_components_structured_graphs():
    n = 2000
    ids = np.arange(n)
    zigzag = np.concatenate([ids[::2], ids[1::2][::-1]])
    for path in (ids, ids[::-1], zigzag):
        assert_components_match_oracles(n, path[:-1], path[1:])
    assert_components_match_oracles(n, (ids[1:] - 1) // 2, ids[1:])  # binary tree
    assert_components_match_oracles(n, ids[1:], np.zeros(n - 1, np.int64))  # star


def test_components_long_path_in_random_order():
    n = 100_000
    path = np.random.default_rng(10).permutation(n)
    assert_components_match_oracles(n, path[:-1], path[1:])


def test_components_chunk_size_does_not_change_labels():
    # criterion 7's random graphs: 3n random pairs on n in [10, 500] nodes
    rng = np.random.default_rng(4)
    for _ in range(100):
        n = int(rng.integers(10, 501))
        src, dst = rng.integers(0, n, (2, 3 * n))
        whole = edge_list_components(n, src, dst, chunk=src.size + 1)
        np.testing.assert_array_equal(whole, union_find_components(n, src, dst))
        np.testing.assert_array_equal(edge_list_components(n, src, dst, chunk=1), whole)


def test_merge_chunks_hold_at_least_n_links(monkeypatch):
    # joining a chunk flattens all n labels, so a chunk of fewer than n
    # links would make a merge pass grow as E * N / chunk instead of E + N
    n, chunks = 3 * EDGE_CHUNK, []

    def recording_components(n, kept_edges, count, chunk):
        chunks.append(chunk)
        return _components(n, kept_edges, count, chunk)

    monkeypatch.setattr(merge, "_components", recording_components)
    src = np.arange(0, n - 1, 2)
    edges = WeightedEdgeSet(i=src, j=src + 1, w=np.ones(src.size))
    assert bfs_cluster(edges, 0.5, n).max() == n // 2 - 1
    indices = np.repeat((np.arange(n) ^ 1)[:, None], 4, axis=1)
    out = table_components(n, indices, lambda lo, hi: np.ones((hi - lo, 4), bool))
    np.testing.assert_array_equal(out, np.arange(n) // 2)
    assert chunks[0] >= n and chunks[1] * 4 >= n, chunks


# ------------------------------------------------------- propagate_cluster

def test_propagate_trivial_single_iteration():
    edges = edge_set([(0, 1, 1.0), (1, 2, 1.0)])
    out = propagate_cluster(edges, n=4, tau0=0.5, dtau=0.1, max_size=10)
    assert out[0] == out[1] == out[2]
    assert out[3] != out[0]


def test_propagate_chain_hand_simulation():
    # chain 1-2-3-4 weighted (0.9, 0.6, 0.9): round 0 at tau=0.5 keeps the
    # whole chain (size 4 > 2, re-queued); round 1 at tau=0.7 cuts the middle
    # edge, leaving {1,2} and {3,4}, both finalized.
    edges = edge_set([(1, 2, 0.9), (2, 3, 0.6), (3, 4, 0.9)])
    out = propagate_cluster(edges, n=5, tau0=0.5, dtau=0.2, max_size=2)
    assert out[1] == out[2]
    assert out[3] == out[4]
    assert out[1] != out[3]


def test_propagate_empty_edges_all_singletons():
    empty = WeightedEdgeSet(i=np.empty(0, np.int64), j=np.empty(0, np.int64),
                            w=np.empty(0, np.float64))
    out = propagate_cluster(empty, n=6)
    assert len(np.unique(out)) == 6


def test_propagate_invalid_schedule():
    edges = edge_set([(0, 1, 0.5)])
    with pytest.raises(ValueError):
        propagate_cluster(edges, n=2, tau0=1.0)
    with pytest.raises(ValueError):
        propagate_cluster(edges, n=2, dtau=0.0)
    for dtau in (np.inf, np.nan):  # round 0's threshold would be tau0 + 0 * dtau = nan
        with pytest.raises(ValueError, match="dtau"):
            propagate_cluster(edges, n=2, dtau=dtau)
    with pytest.raises(ValueError):
        propagate_cluster(edges, n=2, max_size=0)
    with pytest.raises(ValueError, match="^dtau .* rounds"):  # ~5e8 rounds
        propagate_cluster(edges, n=2, dtau=1e-9)


@pytest.mark.parametrize("tau0, dtau", [(0.3, 0.1), (0.0, 0.07), (0.95, 0.5)])
def test_propagate_total_assignment_random_graphs(monkeypatch, tau0, dtau):
    # The oracle cuts only the queued nodes' edges each round, where
    # propagate_cluster cuts the whole graph once per round. Some weights
    # sit exactly on a round's threshold, at 0 or at 1: with max_size 1,
    # a weight-1 edge keeps its nodes queued until tau passes 1.
    calls = [0]

    def counting(*args):
        calls[0] += 1
        return _components(*args)

    monkeypatch.setattr(merge, "_components", counting)
    last = next(t for t in range(100) if tau0 + t * dtau > 1.0)  # first round past 1
    cuts = [0.0, 1.0] + [tau0 + t * dtau for t in range(last)]
    rng = np.random.default_rng(9)
    rounds = []
    for _ in range(20):
        n = int(rng.integers(10, 200))
        edges = random_edges(rng, n, 3 * n)
        w = edges.w.copy()
        on_cut = rng.random(w.size) < 0.3
        w[on_cut] = rng.choice(cuts, on_cut.sum())
        edges = WeightedEdgeSet(i=edges.i, j=edges.j, w=w)
        for max_size in (int(rng.integers(1, 30)), 1, n):
            calls[0] = 0
            out = propagate_cluster(edges, n, tau0=tau0, dtau=dtau, max_size=max_size)
            assert out.shape == (n,)
            assert out.min() >= 0
            assert len(np.unique(out)) == out.max() + 1
            expect, t = propagate_oracle(edges, n, tau0=tau0, dtau=dtau, max_size=max_size)
            np.testing.assert_array_equal(out, expect)
            assert calls[0] == t
            rounds.append(t)
            if max_size == n:  # nothing is re-queued: one cut at tau0
                np.testing.assert_array_equal(out, bfs_cluster(edges, tau0, n))
    assert min(rounds) == 1 and max(rounds) == last + 1


# -------------------------------------------------------- filter_singletons

def test_filter_singletons_basic():
    mask, frac = filter_singletons(np.array([0, 0, 1]))
    np.testing.assert_array_equal(mask, [True, True, False])
    assert frac == pytest.approx(1 / 3)


def test_filter_singletons_none_removed():
    mask, frac = filter_singletons(np.array([0, 0, 1, 1]))
    assert mask.all() and frac == 0.0


def test_filter_singletons_huge_labels():
    big = 5_000_000_000_000
    mask, frac = filter_singletons(np.array([big, 7, big, 2 * big]))
    np.testing.assert_array_equal(mask, [True, False, True, False])
    assert frac == 0.5


def test_filter_singletons_never_touches_clusters():
    rng = np.random.default_rng(10)
    assignment = rng.integers(0, 20, 100)
    mask, _ = filter_singletons(assignment)
    sizes = np.bincount(assignment)
    for i in range(100):
        if sizes[assignment[i]] >= 2:
            assert mask[i]


def test_propagate_memory_does_not_grow_per_edge():
    # a round keeps O(N) arrays and one chunk of edges at a time: tripling
    # the edges (about 2 and 7 chunks) adds almost nothing. Copying each
    # round's kept edges whole took about 26 bytes an edge.
    n, peaks = 10_000, {}
    for k in (30, 90):
        edges = pooled_random_edges(np.random.default_rng(5), n, k)
        tracemalloc.start()
        try:
            propagate_cluster(edges, n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks[k] = peak, len(edges)
    (small, m_small), (large, m_large) = peaks[30], peaks[90]
    assert m_small > 2 * EDGE_CHUNK and m_large > 6 * EDGE_CHUNK
    assert large - small <= m_large - m_small, peaks


# ------------------------------------------------------- threshold_baseline

def test_baseline_tau_one_all_singletons(small_random_set):
    nbrs = build_knn(small_random_set, 5)
    out = threshold_baseline(small_random_set, nbrs, 1.0)
    assert len(np.unique(out)) == small_random_set.n


@pytest.mark.parametrize("tau_sim", [float("nan"), 1.0001, 2.0, -1.0001, -5.0])
def test_baseline_rejects_tau_outside_cosine_range(small_random_set, tau_sim):
    nbrs = build_knn(small_random_set, 5)
    with pytest.raises(ValueError, match="tau_sim="):
        threshold_baseline(small_random_set, nbrs, tau_sim)


def test_baseline_tau_minus_one_knn_components(small_random_set):
    nbrs = build_knn(small_random_set, 5)
    out = threshold_baseline(small_random_set, nbrs, -1.0)
    src = np.repeat(np.arange(small_random_set.n), 5)
    oracle = union_find_components(small_random_set.n, src, nbrs.indices.ravel())
    np.testing.assert_array_equal(out, canonical_labels(oracle))


def test_baseline_compares_float32_similarities_in_float64():
    # np.float32(0.7) is just below 0.7, so at tau_sim = 0.7 the pair stays
    # unlinked; compared in float32, 0.7 would round to it and link them
    fs = FeatureSet(features=np.eye(3, dtype=np.float32))
    sims = np.array([[np.float32(0.7)], [np.float32(0.7)], [0.5]], np.float32)
    nbrs = NeighborTable(indices=np.array([[1], [0], [0]]), similarities=sims)
    np.testing.assert_array_equal(threshold_baseline(fs, nbrs, 0.7), [0, 1, 2])
    np.testing.assert_array_equal(threshold_baseline(fs, nbrs, float(np.float32(0.7))),
                                  [0, 0, 1])
    # the float32 values around tau_sim, whichever way tau_sim rounds to float32
    fs = FeatureSet(features=np.eye(2, dtype=np.float32))
    for tau in (0.7, 0.1, -0.3, 1.0, -1.0, 0.5, 1 / 3):
        near = np.float32(tau)
        for sim in (np.nextafter(near, np.float32(-2)), near, np.nextafter(near, np.float32(2))):
            nbrs = NeighborTable(indices=np.array([[1], [0]]),
                                 similarities=np.full((2, 1), sim, np.float32))
            linked = float(sim) >= tau
            np.testing.assert_array_equal(threshold_baseline(fs, nbrs, tau),
                                          [0, 0] if linked else [0, 1], err_msg=f"{tau} {sim}")


# -------------------------------------------- float32 weights at the boundary

@pytest.mark.parametrize("tau", [0.7, 0.35, 0.55])
def test_threshold_readers_agree_with_float64_at_the_float32_boundary(tau):
    # The float32 just below, at and just above tau's nearest float32, which
    # lies below tau for 0.7 and 0.35 and above it for 0.55. Compared with a
    # Python float, a float32 array rounds tau to that float32 and would keep
    # the middle weight at 0.7 and 0.35.
    near = np.float32(tau)
    weights = np.array([np.nextafter(near, np.float32(0)), near,
                        np.nextafter(near, np.float32(1))], np.float32)
    linked = weights.astype(np.float64) >= tau
    assert linked.tolist() == [False, float(near) >= tau, True]

    # pairs 0-1, 2-3 and 4-5, one weight each, and the chain 6-7-8-9
    n = 10
    edges = WeightedEdgeSet(i=[0, 2, 4, 6, 7, 8], j=[1, 3, 5, 7, 8, 9],
                            w=np.tile(weights, 2))
    kept = edges.w.astype(np.float64) >= tau
    expect = canonical_labels(union_find_components(n, edges.i[kept], edges.j[kept]))
    np.testing.assert_array_equal(bfs_cluster(edges, tau, n), expect)
    # round 0 cuts at tau, or round 1 does: tau / 2 + tau / 2 is exactly tau
    for tau0, dtau in ((tau, 0.1), (tau / 2, tau / 2)):
        for max_size in (1, 2, n):
            out = propagate_cluster(edges, n, tau0=tau0, dtau=dtau, max_size=max_size)
            want, _ = propagate_oracle(edges, n, tau0=tau0, dtau=dtau, max_size=max_size)
            np.testing.assert_array_equal(out, want, err_msg=f"{tau0} {dtau} {max_size}")
        if tau0 == tau:
            np.testing.assert_array_equal(out, expect)

    # each instance's one neighbor is its partner, at the pair's similarity
    fs = FeatureSet(features=np.eye(6, dtype=np.float32))
    nbrs = NeighborTable(indices=(np.arange(6) ^ 1)[:, None],
                         similarities=np.repeat(weights, 2)[:, None])
    expect = [0, 0 if linked[0] else 1, 2, 2 if linked[1] else 3, 4, 4]
    np.testing.assert_array_equal(canonical_labels(threshold_baseline(fs, nbrs, tau)),
                                  canonical_labels(expect))


def test_propagate_threshold_past_float32_range():
    # round 1 cuts at 1e300, beyond every float32: it keeps no edge, and
    # rounding the threshold to float32 must not overflow (warnings are errors)
    edges = edge_set([(0, 1, 1.0), (1, 2, 1.0)])
    np.testing.assert_array_equal(
        propagate_cluster(edges, n=3, tau0=0.5, dtau=1e300, max_size=2), [0, 1, 2])


# ---------------------------------------------------------------- text IO

def test_partition_roundtrip(tmp_path):
    assignment = np.array([0, 1, 1, 0, 2])
    path = tmp_path / "p.tsv"
    save_partition(assignment, path)
    assert path.read_text().splitlines()[0] == "0\t0"
    np.testing.assert_array_equal(load_partition(path), assignment)


@pytest.mark.parametrize("text, match", [
    ("1\t0\n0\t1\n", None),                       # any id order is fine
    ("0\t0\n2\t1\n", "ids must lie in"),          # id 1 missing, 2 out of range
    ("0\t0\n-1\t1\n", "ids must lie in"),         # negative id
    ("0\t0\n0\t1\n", "duplicate instance id"),
    ("0\t0\n1\t-3\n", "negative cluster label"),
    ("0\t0\n1\n", ":2: expected two"),
    ("0\t0\t0\n", ":1: expected two"),
    ("0\tx\n", ":1: expected two"),
])
def test_load_partition_validation(tmp_path, text, match):
    path = tmp_path / "p.tsv"
    path.write_text(text)
    if match is None:
        np.testing.assert_array_equal(load_partition(path), [1, 0])
        return
    with pytest.raises(FormatError, match=match):
        load_partition(path)


@pytest.mark.parametrize("data, match", [
    (b"0\t0\n1\t\xff\n", ":2: expected two"),                 # not UTF-8
    ("0\t0\n1\t\uff11\n".encode(), ":2: expected two"),       # fullwidth digit one
    (b"0\t0\n1\t1_0\n", ":2: expected two"),
    (b"0\t0\n1\t+1\n", ":2: expected two"),
    (b"0\t0\n1\t10000000000000000000\n", ":2: expected two"),  # beyond int64
    (b"", "no partition lines"),
    (b"\n \n", "no partition lines"),
])
def test_load_partition_accepts_ascii_integers_only(tmp_path, data, match):
    path = tmp_path / "p.tsv"
    path.write_bytes(data)
    with pytest.raises(FormatError, match=match):
        load_partition(path)


def test_edge_dump_format(tmp_path):
    edges = edge_set([(0, 3, 0.123456789)])
    path = tmp_path / "e.tsv"
    save_edges(edges, path)
    assert path.read_text() == "0\t3\t0.123457\n"
