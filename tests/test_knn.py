import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from linkgcn import knn
from linkgcn.dataset import FeatureSet, normalize_rows
from linkgcn.knn import NeighborTable, build_knn
from oracle_utils import topk_cosine_oracle


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
    # no instance has more than N - 1 neighbors: one warning, then the N - 1 table
    n = small_random_set.n
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        table = build_knn(small_random_set, n)
    assert [str(w.message) for w in caught] == [
        f"kNN width clamped to N-1={n - 1}: k {n} -> {n - 1}"]
    full = build_knn(small_random_set, n - 1)
    assert table.indices.tobytes() == full.indices.tobytes()
    assert table.similarities.tobytes() == full.similarities.tobytes()


def test_build_knn_one_instance_is_empty(monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("a one-instance collection reached the kNN search")

    monkeypatch.setattr(knn, "topk_cosine", no_search)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = build_knn(FeatureSet(features=np.zeros((1, 4), np.float32)), 80)
    assert table.indices.shape == table.similarities.shape == (1, 0)
    assert table.width(80) == 0


def test_neighbor_table_width(small_random_set):
    n = small_random_set.n
    table = build_knn(small_random_set, 5)
    assert [table.width(k) for k in (1, 4, 5)] == [1, 4, 5]
    with pytest.raises(ValueError, match="^k=6 exceeds neighbor table k=5$"):
        table.width(6)
    full = build_knn(small_random_set, n - 1)
    # the full table serves any k: no instance has more than N - 1 neighbors
    assert [full.width(k) for k in (1, n - 1, n, 10 * n)] == [1, n - 1, n - 1, n - 1]


def test_build_knn_deterministic(small_random_set):
    a = build_knn(small_random_set, 7)
    b = build_knn(small_random_set, 7)
    assert a.indices.tobytes() == b.indices.tobytes()
    assert a.similarities.tobytes() == b.similarities.tobytes()


def test_build_knn_rejects_negative_workers(small_random_set):
    with pytest.raises(ValueError, match="workers must be >= 0"):
        build_knn(small_random_set, 5, workers=-1)


@pytest.mark.parametrize("workers, env, cores, expect", [
    (0, {}, 4, 1),                              # BLAS fills the cores
    (0, {"OPENBLAS_NUM_THREADS": "1"}, 4, 4),   # derived: cores // BLAS pool
    (0, {"OMP_NUM_THREADS": "2"}, 4, 2),
    (3, {}, 4, 3),                              # asked for
    (8, {"OPENBLAS_NUM_THREADS": "1"}, 2, 2),   # never more than the cores
])
def test_build_knn_selection_threads(small_random_set, monkeypatch, workers, env, cores,
                                     expect):
    for var in knn.BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    monkeypatch.setattr(knn.os, "sched_getaffinity", lambda pid: set(range(cores)))
    seen = []
    kernel = knn.topk_cosine

    def recording(unit, k, workers=1):
        seen.append(workers)
        return kernel(unit, k, workers=workers)

    monkeypatch.setattr(knn, "topk_cosine", recording)
    table = build_knn(small_random_set, 5, workers=workers)
    assert seen == [expect]
    reference = build_knn(small_random_set, 5, workers=1)
    assert table.indices.tobytes() == reference.indices.tobytes()
    assert table.similarities.tobytes() == reference.similarities.tobytes()


@pytest.fixture
def pools(monkeypatch):
    """The max_workers of every pool run_threads opens: its helper threads."""
    created = []

    class RecordingExecutor(knn.ThreadPoolExecutor):
        def __init__(self, max_workers):
            created.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(knn, "ThreadPoolExecutor", RecordingExecutor)
    return created


@pytest.mark.parametrize("threads, items, expect", [
    (1, 5, []),    # one thread: the calling thread, no pool
    (2, 5, [1]),   # the calling thread and one helper
    (8, 3, [2]),   # never more threads than items
    (4, 1, []),    # one item: no pool
    (2, 0, []),
])
def test_run_threads_calls_every_item_once(pools, threads, items, expect):
    calls = []
    knn.run_threads(lambda item: calls.append((item, threading.get_ident())),
                    range(items), threads)
    assert sorted(item for item, _ in calls) == list(range(items))
    assert pools == expect
    if not expect:
        assert {ident for _, ident in calls} <= {threading.get_ident()}


@pytest.mark.parametrize("threads", [1, 2])
def test_run_threads_raises_a_worker_exception(pools, threads):
    def fn(item):
        if item == 3:
            raise ArithmeticError(f"item {item}")

    with pytest.raises(ArithmeticError, match="item 3"):
        knn.run_threads(fn, range(6), threads)
    assert pools == ([] if threads == 1 else [1])


def in_caller():
    return threading.current_thread() is threading.main_thread()


def rendezvous():
    """For an item to call first: marks its kind of thread (calling or helper)
    as started, waits until the other kind has started an item too, and
    returns in_caller(). On two threads, neither can then run every item."""
    started = {True: threading.Event(), False: threading.Event()}

    def meet():
        caller = in_caller()
        started[caller].set()
        assert started[not caller].wait(timeout=10)
        return caller
    return meet


@pytest.mark.parametrize("threads", [2, 3, 4])
def test_run_threads_calling_thread_takes_items(pools, threads):
    # a helper's item waits until the calling thread has run one, which it can
    # only do if it takes items itself; a helper that waited in vain says so
    caller_ran, waits = threading.Event(), []

    def fn(item):
        if in_caller():
            caller_ran.set()
        else:
            waits.append(caller_ran.wait(timeout=10))

    knn.run_threads(fn, range(2 * threads), threads)
    assert caller_ran.is_set()
    assert all(waits)
    assert pools == [threads - 1]


@pytest.mark.parametrize("caller_raises", [False, True])
def test_run_threads_waits_for_a_slow_helper(caller_raises):
    # the calling thread's item ends (or raises) while the helper's sleeps
    meet, finished = rendezvous(), []

    def fn(item):
        if meet():
            if caller_raises:
                raise ArithmeticError("caller")
        else:
            time.sleep(0.3)
            finished.append(item)

    if caller_raises:
        with pytest.raises(ArithmeticError, match="caller"):
            knn.run_threads(fn, range(2), 2)
    else:
        knn.run_threads(fn, range(2), 2)
    assert len(finished) == 1


@pytest.mark.parametrize("threads", [1, 2, 3, 4])
def test_run_threads_stops_after_the_first_error(threads):
    started = []

    def fn(item):
        started.append(item)
        raise ArithmeticError(f"item {item}")

    with pytest.raises(ArithmeticError, match="item"):
        knn.run_threads(fn, range(50), threads)
    # each thread may have taken one item before any raised, and none after
    assert 1 <= len(started) <= threads


@pytest.mark.parametrize("raiser", ["caller", "helper"])
def test_run_threads_raises_from_either_thread(raiser):
    # both kinds of thread run items and only the items of `raiser` raise; the
    # other kind's items wait for that, after which no new item may start
    meet, raised, started = rendezvous(), threading.Event(), []

    def fn(item):
        started.append(item)
        if meet() == (raiser == "caller"):
            raised.set()
            raise ArithmeticError(raiser)
        assert raised.wait(timeout=10)

    with pytest.raises(ArithmeticError, match=raiser):
        knn.run_threads(fn, range(20), 2)
    # one item each, and at most one more that raced the raise
    assert len(started) <= 3


def test_neighbor_table_validation():
    with pytest.raises(ValueError, match="k="):
        NeighborTable(indices=np.zeros((3, 3), np.int64),
                      similarities=np.zeros((3, 3), np.float32))


def unit_rows(rng, n, d, decimals=None, duplicates=0):
    X = rng.standard_normal((n, d))
    if decimals is not None:
        X = np.round(X, decimals)
    X[np.all(X == 0.0, axis=1), 0] = 1.0
    if duplicates:
        # exact copies of earlier rows: similarity-1.0 ties
        X[n - duplicates:] = X[rng.integers(0, n - duplicates, duplicates)]
    return X / np.linalg.norm(X, axis=1, keepdims=True)


@pytest.mark.parametrize("n, d, decimals, duplicates, k", [
    (300, 4, 1, 40, 20),     # rounded features: many exact ties at the boundary
    (300, 4, 1, 40, 1),
    (300, 4, 1, 40, 299),    # k = N-1: every other row
    (120, 2, 1, 60, 50),     # 2-D, half duplicates: ties everywhere
    (2897, 8, 1, 200, 80),   # twenty-three row blocks, the last of 81 rows
    (2897, 16, None, 0, 80),
    (2300, 8, 1, 150, 80),   # eighteen row blocks, the last of 124 rows: threads take unequal shares
    (4500, 8, 1, 300, 80),   # thirty-six row blocks, the last of 20: each thread's buffer is reused
    (1200, 4, 1, 100, 1199),  # k = N-1 over several chunks
    (40, 3, 1, 10, 5),       # N far below one chunk: a single chunk
    (1000, 64, None, 0, 80),   # perfbench's width: seven blocks of 128 rows and one of 104
    (1000, 64, None, 150, 80),  # the same with exact duplicate rows: similarity-1.0 ties
])
def test_topk_cosine_matches_lexsort_oracle(n, d, decimals, duplicates, k):
    unit = unit_rows(np.random.default_rng(n + k), n, d, decimals, duplicates)
    want_idx, want_sim = topk_cosine_oracle(unit, k)
    want_sim = want_sim.astype(np.float32)
    for workers in (1, 2, 3):
        idx, sim = knn.topk_cosine(unit, k, workers=workers)
        assert idx.dtype == np.int32 and sim.dtype == np.float32
        assert np.array_equal(idx, want_idx), workers
        assert sim.tobytes() == want_sim.tobytes(), workers


def test_topk_cosine_chunk_boundary_inside_tied_rows():
    # the 2k rows around the first chunk boundary are copies of one row, so
    # each ties at its k-th neighbor and takes the per-row rule
    n, k = 1500, 10
    edge = (1 << 20) // (8 * n)  # rows per selection chunk
    assert n > 2 * edge
    unit = unit_rows(np.random.default_rng(n), n, 8)
    unit[edge - k:edge + k] = unit[edge - k]
    want_idx, want_sim = topk_cosine_oracle(unit, k)
    # the tied rows list the lowest-id copies of themselves
    copies = np.arange(edge - k, edge + k)
    assert list(want_idx[edge]) == [c for c in copies if c != edge][:k]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, so a lost write would show
    try:
        for workers in (1, 2, 3):
            idx, sim = knn.topk_cosine(unit, k, workers=workers)
            assert np.array_equal(idx, want_idx), workers
            assert sim.tobytes() == want_sim.astype(np.float32).tobytes(), workers
    finally:
        sys.setswitchinterval(interval)


def test_build_knn_matches_lexsort_oracle_on_ties():
    rng = np.random.default_rng(5)
    feats = np.round(rng.standard_normal((400, 3)), 1).astype(np.float32)
    feats[np.all(feats == 0.0, axis=1), 0] = 1.0
    feats[300:] = feats[:100]
    table = build_knn(FeatureSet(features=feats), 40)
    unit = feats.astype(np.float64)
    unit /= np.linalg.norm(unit, axis=1)[:, None]
    want_idx, want_sim = topk_cosine_oracle(unit, 40)
    assert np.array_equal(table.indices, want_idx)
    assert table.similarities.tobytes() == want_sim.astype(np.float32).tobytes()


def test_topk_cosine_scratch_is_one_block():
    # forty-seven row blocks of up to 128 rows (5.9 MiB): a block-wide
    # partition or comparison, or a new similarity block per row block, would
    # hold a second block per thread. The slack covers each thread's ~1 MiB of
    # chunk scratch and the transposed copy of the rows (0.7 MiB).
    n, k, d = 6000, 80, 16
    unit = unit_rows(np.random.default_rng(0), n, d)
    block_bytes = knn.block_rows(n) * n * 8
    out_bytes = n * k * (4 + 4)  # int32 ids, float32 similarities
    for workers in (1, 2):
        tracemalloc.start()
        try:
            knn.topk_cosine(unit, k, workers=workers)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= workers * block_bytes + out_bytes + (8 << 20), (workers, peak / 2**20)
