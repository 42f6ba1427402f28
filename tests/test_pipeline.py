import hashlib
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

import conftest
from linkgcn import gcn, knn, pipeline
from linkgcn.config import seed_stream
from linkgcn.dataset import FeatureSet, SynthSpec, normalize_rows, synth_generate
from linkgcn.gcn import forward, init_model
from linkgcn.ips import BLOCK_PIVOTS, InstancePivotSubgraph, IpsConfig, regime_config
from linkgcn.knn import build_knn


class SerialExecutor:
    """Stands in for ThreadPoolExecutor: records max_workers (the helper
    threads run_threads starts), runs serially."""
    created = []

    def __init__(self, max_workers):
        SerialExecutor.created.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


IPS = IpsConfig(h=2, k_per_hop=(80, 5), u=5)


@pytest.fixture(scope="module")
def scored(synth_1k_set, synth_1k_nbrs):
    model = init_model([16, 8, 8], "mean", seed_stream(0, "init"))
    return model, pipeline.predict_links(synth_1k_set, synth_1k_nbrs, model, IPS)


def set_blas_env(monkeypatch, env):
    """Exactly the BLAS thread variables in env, whatever the runner has set."""
    for var in knn.BLAS_THREAD_VARS:
        if var in env:
            monkeypatch.setenv(var, env[var])
        else:
            monkeypatch.delenv(var, raising=False)


def derived(env, cores, expect, name):
    """A case with no worker count, so the count is usable cores // BLAS pool."""
    return pytest.param(env, cores, expect, id=f"derived-{name}")


@pytest.mark.parametrize("workers, cores, expect", [
    # n threads are the calling thread and n - 1 helpers
    (10**6, 3, [2]),     # capped by the usable cores
    (2, 64, [1]),        # by the worker count
    (10**6, 64, None),   # by the block count, set below
    (1, 64, []),         # one worker starts no pool
    # the BLAS pool is every usable core unless a variable names a positive size
    derived({}, 4, [], "no-blas-variable"),
    derived({"OPENBLAS_NUM_THREADS": "1"}, 4, [3], "openblas-1"),
    derived({"OPENBLAS_NUM_THREADS": "2"}, 4, [1], "openblas-2"),
    derived({"OPENBLAS_NUM_THREADS": "3"}, 4, [], "openblas-3"),
    derived({"OPENBLAS_NUM_THREADS": "99"}, 4, [], "openblas-99"),
    derived({"OPENBLAS_NUM_THREADS": "1"}, 64, None, "openblas-1-many-cores"),
    derived({"OPENBLAS_NUM_THREADS": "0"}, 4, [], "openblas-0"),
    derived({"OPENBLAS_NUM_THREADS": "junk"}, 4, [], "openblas-junk"),
    derived({"OPENBLAS_NUM_THREADS": "-2"}, 4, [], "openblas-negative"),
    derived({"OMP_NUM_THREADS": "1"}, 4, [3], "omp-1"),
    derived({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "2"}, 4, [1], "zero-then-omp-2"),
    derived({"GOTO_NUM_THREADS": "1", "OMP_NUM_THREADS": "4"}, 4, [3], "goto-before-omp"),
    derived({"OPENBLAS_NUM_THREADS": "4", "OMP_NUM_THREADS": "1"}, 4, [], "openblas-first"),
])
def test_scoring_threads_are_bounded(synth_1k_set, synth_1k_nbrs, scored, monkeypatch,
                                     workers, cores, expect):
    # an int is an explicit worker count; a dict is the BLAS environment of a
    # run that passes none
    model, reference = scored
    blocks = -(-synth_1k_set.n // BLOCK_PIVOTS)
    assert 3 < blocks < 64
    SerialExecutor.created = []
    monkeypatch.setattr(knn, "ThreadPoolExecutor", SerialExecutor)
    monkeypatch.setattr(knn.os, "sched_getaffinity", lambda pid: set(range(cores)))
    set_blas_env(monkeypatch, workers if isinstance(workers, dict) else {})
    count = {} if isinstance(workers, dict) else {"workers": workers}
    edges = pipeline.predict_links(synth_1k_set, synth_1k_nbrs, model, IPS, **count)
    assert SerialExecutor.created == ([blocks - 1] if expect is None else expect)
    for name in ("i", "j", "w"):
        assert getattr(edges, name).tobytes() == getattr(reference, name).tobytes()


def test_threads_give_the_serial_result(synth_1k_set, synth_1k_nbrs, scored, monkeypatch):
    # four real threads over 63 blocks, the calling thread and three helpers,
    # whatever the machine's core count: asked for, and derived from one BLAS
    # thread on four usable cores
    model, reference = scored
    created = []

    class RecordingExecutor(knn.ThreadPoolExecutor):
        def __init__(self, max_workers):
            created.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(knn, "ThreadPoolExecutor", RecordingExecutor)
    monkeypatch.setattr(knn.os, "sched_getaffinity", lambda pid: set(range(4)))
    set_blas_env(monkeypatch, {"OPENBLAS_NUM_THREADS": "1"})
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, so a lost write would show
    try:
        for count in ({"workers": 4}, {}):
            edges = pipeline.predict_links(synth_1k_set, synth_1k_nbrs, model, IPS, **count)
            for name in ("i", "j", "w"):
                assert getattr(edges, name).tobytes() == getattr(reference, name).tobytes()
    finally:
        sys.setswitchinterval(interval)
    assert created == [3, 3]


@pytest.mark.parametrize("aggregator", gcn.AGGREGATORS)
def test_scores_do_not_depend_on_the_block_size(synth_246_set, monkeypatch, aggregator):
    fs = synth_246_set
    nbrs = build_knn(fs, 200)
    model = init_model([16, 8, 8], aggregator, seed_stream(0, "init"), attention_hidden=8)
    # the test regime and the train regime
    for ips_cfg in (regime_config(80, 5, 5, 2), regime_config(200, 10, 10, 2)):
        results = set()
        for size in (1, 7, 16, fs.n):
            monkeypatch.setattr(pipeline, "BLOCK_PIVOTS", size)
            edges = pipeline.predict_links(fs, nbrs, model, ips_cfg, workers=2)
            results.add((edges.i.tobytes(), edges.j.tobytes(), edges.w.tobytes()))
        assert len(results) == 1


WIDTHS = [64, 256, 256, 128, 64]  # the default model at D = 64


def default_model_input(num_identities):
    """Identities of 20-100 instances plus 10% distractors at D = 64, and the
    default mean model."""
    spec = SynthSpec(num_identities=num_identities, samples_per_identity=(20, 100),
                     dim=WIDTHS[0], center_spread=1.0, noise_scale=(0.02, 0.2),
                     outlier_fraction=0.1, seed=5)
    return normalize_rows(synth_generate(spec)), init_model(WIDTHS, "mean", seed_stream(0, "init"))


def capped_scoring(workers):
    """Digest of the edges predict_links scores on `workers` threads, on as
    many pretend usable cores: 1,172 instances at D = 64 in the test regime,
    with the default mean model. Replaces os.sched_getaffinity, so it runs
    only in run_with_address_limit's child."""
    fs, model = default_model_input(20)
    nbrs = build_knn(fs, IPS.table_k)
    knn.os.sched_getaffinity = lambda pid: set(range(workers))
    edges = pipeline.predict_links(fs, nbrs, model, IPS, workers=workers)
    return hashlib.sha256(edges.i.tobytes() + edges.j.tobytes() + edges.w.tobytes()).hexdigest()


def test_extra_workers_cost_less_than_a_block_each():
    digests, peaks = {}, {}
    for workers in (1, 4):
        digests[workers], peaks[workers] = conftest.run_with_address_limit(
            2**31, capped_scoring, workers)
    assert digests[1] == digests[4]
    # a worker holds one block's subgraphs and one pivot's forward pass at a time
    assert peaks[4] - peaks[1] < 3 * (pivot_block_bytes() + forward_bytes()), peaks


def pivot_block_bytes():
    """What a scoring worker's block of BLOCK_PIVOTS subgraphs can hold for
    the test regime's largest subgraph (80 + 80 * 5 nodes, 5 wiring
    candidates each): the block's float32 node features and four int64
    wiring arrays of one entry per candidate. About 3 MiB."""
    nodes = BLOCK_PIVOTS * (80 + 80 * 5)
    return nodes * WIDTHS[0] * 4 + 4 * nodes * 5 * 8


def forward_bytes():
    """One pivot's forward pass through the default model on the largest
    subgraph, which frees each layer's buffer as the next layer starts: the
    dense mixing matrix G and, for the widest layer, 4 d_in + d_out float32
    per node. That covers its [X | GX] buffer and the next layer's (2 d_in +
    2 d_out) and numpy's 64 KiB buffer for the in-place ReLU. About 3 MiB."""
    nodes = 80 + 80 * 5
    layer = max(4 * d_in + d_out for d_in, d_out in zip(WIDTHS, WIDTHS[1:]))
    return 4 * nodes * (nodes + layer)


def test_forward_holds_one_layer_at_a_time():
    # the test regime's largest subgraph: 80 hop-1 and 400 hop-2 nodes, each
    # wired to 5 others. Keeping every layer's arrays took 5.7 MB here.
    nodes = 80 + 80 * 5
    rng = np.random.default_rng(0)
    adj = np.zeros((nodes, nodes), dtype=bool)
    wired = np.repeat(np.arange(nodes), 5)
    adj[wired, rng.integers(0, nodes, wired.size)] = True
    adj |= adj.T
    np.fill_diagonal(adj, False)
    ips = InstancePivotSubgraph(
        pivot=0, nodes=np.arange(1, nodes + 1), hop_of=np.repeat([1, 2], [80, nodes - 80]),
        features=rng.standard_normal((nodes, WIDTHS[0])).astype(np.float32),
        edges=np.stack(np.nonzero(adj)))
    model = init_model(WIDTHS, "mean", seed_stream(0, "init"))
    tracemalloc.start()
    try:
        assert forward(model, ips).shape == (80,)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < forward_bytes(), peak


def capped_cluster(cores):
    """Digest of the partition and pooled edges pipeline.cluster gives with
    the derived thread count on `cores` pretend usable cores (BLAS runs on one
    thread in the child): 2,179 instances at D = 64 in the test regime, with
    the default mean model. Replaces os.sched_getaffinity, so it runs only in
    run_with_address_limit's child."""
    fs, model = default_model_input(34)
    knn.os.sched_getaffinity = lambda pid: set(range(cores))
    assignment, edges, _ = pipeline.cluster(fs, model, IPS)
    return hashlib.sha256(assignment.tobytes() + edges.i.tobytes() + edges.j.tobytes()
                          + edges.w.tobytes()).hexdigest(), fs.n


def test_cluster_memory_per_extra_thread():
    # Both threaded stages of cluster: a kNN thread holds one similarity block
    # of knn.block_rows(N) rows, a scoring thread one block of subgraphs and one
    # forward pass. Going from 1 to 4 threads may add three of each, plus
    # what the runtime keeps per thread (stack, allocator arena): 1 MiB each.
    results, peaks = {}, {}
    for cores in (1, 4):
        results[cores], peaks[cores] = conftest.run_with_address_limit(
            2**31, capped_cluster, cores)
    assert results[1] == results[4]
    n = results[1][1]
    knn_block = knn.block_rows(n) * n * 8
    per_thread = knn_block + pivot_block_bytes() + forward_bytes() + 2**20
    assert peaks[4] - peaks[1] < 3 * per_thread, peaks


def capped_prediction(fs, nbrs):
    """Edge count predict_links pools on one thread with the [16, 8, 8] mean
    model. The kNN table comes in as an argument, so the stage's own memory
    sets the peak of run_with_address_limit's child."""
    model = init_model([16, 8, 8], "mean", seed_stream(0, "init"))
    return len(pipeline.predict_links(fs, nbrs, model, IPS, workers=1))


def test_link_prediction_memory_per_instance():
    peaks = {}
    for n in (2000, 12000):
        spec = SynthSpec(num_identities=n // 40, samples_per_identity=(40, 40), dim=16,
                         center_spread=1.0, noise_scale=(0.05, 0.15), seed=1)
        fs = normalize_rows(synth_generate(spec))
        edges, peaks[n] = conftest.run_with_address_limit(
            2**30, capped_prediction, fs, build_knn(fs, IPS.table_k))
        assert edges > 0
    # Per instance, the child holds its inputs (16 float32 features, 80 int32
    # ids and 80 float32 similarities), then one row of 80 float32
    # likelihoods and pooling's sort keys. Those measured 3.4 KB (3.8 KB with
    # int64 ids). A likelihood array and a node-array view kept per pivot,
    # then sorted on three keys, would take about 8.9 KB.
    inputs = 4 * 16 + (4 + 4) * 80
    slack = 16 * 2**20
    assert peaks[12000] - peaks[2000] <= (inputs + 4096) * 10000 + slack, peaks


@pytest.mark.parametrize("merge", ["propagate", "bfs"])
def test_cluster_one_instance_builds_nothing(monkeypatch, merge):
    def no_work(*args, **kwargs):
        raise AssertionError("a one-instance collection reached kNN or link scoring")

    monkeypatch.setattr(knn, "topk_cosine", no_work)
    monkeypatch.setattr(pipeline, "build_block", no_work)
    monkeypatch.setattr(pipeline, "forward", no_work)
    model = init_model([4, 8], "mean", seed_stream(0, "init"))
    fs = FeatureSet(features=np.ones((1, 4), np.float32))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assignment, edges, timing = pipeline.cluster(fs, model, IPS, merge=merge)
    np.testing.assert_array_equal(assignment, [0])
    assert len(edges) == 0
    assert isinstance(timing, pipeline.TimingReport)
    with pytest.raises(ValueError, match="model expects D=4"):
        pipeline.cluster(FeatureSet(features=np.ones((1, 3), np.float32)), model, IPS)


@pytest.mark.parametrize("setting, value", [
    ("merge", "bfss"), ("tau", 1.5), ("tau", float("nan")), ("tau0", 1.0), ("dtau", 0.0),
    ("dtau", float("inf")), ("dtau", 1e-9), ("max_size", 0)])
def test_cluster_bad_merge_settings_fail_before_knn(monkeypatch, setting, value):
    def no_work(*args, **kwargs):
        raise AssertionError("a bad merge setting reached the kNN stage")

    monkeypatch.setattr(pipeline, "build_knn", no_work)
    monkeypatch.setattr(pipeline, "thread_count", no_work)
    model = init_model([4, 8], "mean", seed_stream(0, "init"))
    fs = FeatureSet(features=np.ones((60, 4), np.float32))
    with pytest.raises(ValueError, match=f"^{setting} "):
        pipeline.cluster(fs, model, IPS, **{setting: value})


def test_cluster_clamp_is_one_warning():
    # N = 60 clamps the test regime's k1 = 80 for the kNN table, and the
    # scoring reads the clamped table without a second warning
    fs = normalize_rows(synth_generate(SynthSpec(num_identities=6, samples_per_identity=(10, 10),
                                                 dim=16, seed=3)))
    model = init_model([16, 8], "mean", seed_stream(0, "init"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        pipeline.cluster(fs, model, IPS)
    assert [str(w.message) for w in caught] == ["kNN width clamped to N-1=59: k 80 -> 59"]


def test_negative_workers_are_rejected(synth_1k_set, synth_1k_nbrs, scored):
    # -1 would otherwise pass `workers or derived` and run serially
    model, _ = scored
    with pytest.raises(ValueError, match="workers must be >= 0"):
        pipeline.predict_links(synth_1k_set, synth_1k_nbrs, model, IPS, workers=-1)
    with pytest.raises(ValueError, match="workers must be >= 0"):
        pipeline.cluster(synth_1k_set, model, IPS, workers=-1)
    one = FeatureSet(features=np.ones((1, 16), np.float32))
    with pytest.raises(ValueError, match="workers must be >= 0"):
        pipeline.cluster(one, model, IPS, workers=-1)


def test_cluster_gives_both_stages_one_thread_count(synth_1k_set, scored, monkeypatch):
    # --workers, or the count derived from one BLAS thread on four usable
    # cores, reaches the kNN stage and link scoring alike
    model, _ = scored
    seen = []

    def recording(stage, fn):
        def wrapper(*args, workers):
            seen.append((stage, workers))
            return fn(*args, workers=workers)
        return wrapper

    monkeypatch.setattr(pipeline, "build_knn", recording("knn", build_knn))
    monkeypatch.setattr(pipeline, "predict_links", recording("links", pipeline.predict_links))
    monkeypatch.setattr(knn.os, "sched_getaffinity", lambda pid: set(range(4)))
    set_blas_env(monkeypatch, {"OPENBLAS_NUM_THREADS": "1"})
    for workers in (0, 1, 3):
        pipeline.cluster(synth_1k_set, model, IPS, workers=workers)
    assert seen == [("knn", 4), ("links", 4), ("knn", 1), ("links", 1),
                    ("knn", 3), ("links", 3)]
