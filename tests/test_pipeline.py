import numpy as np
import pytest

from linkgcn import pipeline
from linkgcn.config import seed_stream
from linkgcn.dataset import FeatureSet
from linkgcn.gcn import init_model
from linkgcn.ips import IpsConfig, pivot_blocks


class SerialExecutor:
    """Stands in for ThreadPoolExecutor: records max_workers, runs serially."""
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


@pytest.mark.parametrize("workers, cores, expect", [
    (10**6, 3, [3]),     # capped by the usable cores
    (2, 64, [2]),        # by the worker count
    (10**6, 64, None),   # by the block count, set below
    (1, 64, []),         # one worker starts no pool
])
def test_scoring_threads_are_bounded(synth_1k_set, synth_1k_nbrs, scored, monkeypatch,
                                     workers, cores, expect):
    model, reference = scored
    blocks = len(pivot_blocks(synth_1k_set.n, IPS))
    assert 3 < blocks < 64
    SerialExecutor.created = []
    monkeypatch.setattr(pipeline, "ThreadPoolExecutor", SerialExecutor)
    monkeypatch.setattr(pipeline.os, "sched_getaffinity", lambda pid: set(range(cores)))
    edges = pipeline.predict_links(synth_1k_set, synth_1k_nbrs, model, IPS, workers=workers)
    assert SerialExecutor.created == ([blocks] if expect is None else expect)
    for name in ("i", "j", "w"):
        assert getattr(edges, name).tobytes() == getattr(reference, name).tobytes()


def test_threads_give_the_serial_result(synth_1k_set, synth_1k_nbrs, scored, monkeypatch):
    # four real threads over 16 blocks, whatever the machine's core count
    model, reference = scored
    monkeypatch.setattr(pipeline.os, "sched_getaffinity", lambda pid: set(range(4)))
    edges = pipeline.predict_links(synth_1k_set, synth_1k_nbrs, model, IPS, workers=4)
    for name in ("i", "j", "w"):
        assert getattr(edges, name).tobytes() == getattr(reference, name).tobytes()


@pytest.mark.parametrize("merge", ["propagate", "bfs"])
def test_cluster_one_instance_builds_nothing(monkeypatch, merge):
    def no_work(*args, **kwargs):
        raise AssertionError("a one-instance collection reached kNN or link scoring")

    monkeypatch.setattr(pipeline, "build_knn", no_work)
    monkeypatch.setattr(pipeline, "predict_links", no_work)
    model = init_model([4, 8], "mean", seed_stream(0, "init"))
    fs = FeatureSet(features=np.ones((1, 4), np.float32))
    assignment, edges, timing = pipeline.cluster(fs, model, IPS, merge=merge)
    np.testing.assert_array_equal(assignment, [0])
    assert len(edges) == 0
    assert isinstance(timing, pipeline.TimingReport)
    with pytest.raises(ValueError, match="model expects D=4"):
        pipeline.cluster(FeatureSet(features=np.ones((1, 3), np.float32)), model, IPS)
