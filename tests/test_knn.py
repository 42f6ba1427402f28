import numpy as np
import pytest

from linkgcn.dataset import FeatureSet, normalize_rows
from linkgcn.knn import NeighborTable, build_knn


def brute_force_oracle(feats, k):
    """Independent oracle: full pairwise float64 sort per row."""
    X = feats.astype(np.float64)
    X = X / np.linalg.norm(X, axis=1, keepdims=True)
    n = X.shape[0]
    idx = np.empty((n, k), dtype=np.int64)
    sim = np.empty((n, k), dtype=np.float64)
    for i in range(n):
        pairs = sorted(((-float(X[i] @ X[j]), j) for j in range(n) if j != i))
        idx[i] = [j for _, j in pairs[:k]]
        sim[i] = [-s for s, _ in pairs[:k]]
    return idx, sim


def test_build_knn_highest_cosine():
    feats = np.array([[1, 0], [0.99, 0.141], [-1, 0]], dtype=np.float32)
    table = build_knn(normalize_rows(FeatureSet(features=feats)), 1)
    assert table.indices[0, 0] == 1


def test_build_knn_tie_break_ascending_id():
    fs = FeatureSet(features=np.eye(4, dtype=np.float32), normalized=True)
    table = build_knn(fs, 2)
    np.testing.assert_array_equal(table.similarities, np.zeros((4, 2), np.float32))
    np.testing.assert_array_equal(table.indices, [[1, 2], [0, 2], [0, 1], [0, 1]])


def test_build_knn_matches_oracle(small_random_set):
    table = build_knn(small_random_set, 5)
    idx, sim = brute_force_oracle(small_random_set.features, 5)
    np.testing.assert_array_equal(table.indices, idx)
    np.testing.assert_allclose(table.similarities, sim, atol=1e-6)


def test_build_knn_full_table_is_permutation(small_random_set):
    n = small_random_set.n
    table = build_knn(small_random_set, n - 1)
    for i in range(n):
        assert sorted(table.indices[i]) == [j for j in range(n) if j != i]


def test_build_knn_rows_sorted(small_random_set):
    table = build_knn(small_random_set, 10)
    diffs = np.diff(table.similarities.astype(np.float64), axis=1)
    assert np.all(diffs <= 1e-7)


def test_build_knn_k_too_large(small_random_set):
    with pytest.raises(ValueError, match="k="):
        build_knn(small_random_set, small_random_set.n)


def test_build_knn_deterministic(small_random_set):
    a = build_knn(small_random_set, 7)
    b = build_knn(small_random_set, 7)
    assert a.indices.tobytes() == b.indices.tobytes()
    assert a.similarities.tobytes() == b.similarities.tobytes()


def test_neighbor_table_validation():
    with pytest.raises(ValueError, match="k="):
        NeighborTable(indices=np.zeros((3, 3), np.int64),
                      similarities=np.zeros((3, 3), np.float32))
