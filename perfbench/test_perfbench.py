"""Tests of the benchmark itself, at smoke sizes: python3 -m pytest perfbench"""

import json
import sys

import numpy as np
import pytest

import bench
import run
import tracing
from linkgcn import knn, merge

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_spec_matches_the_benchmark():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.THREADS) == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == bench.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


@pytest.mark.parametrize("workload", list(run.THREADS))
def test_smoke_run_is_correct_and_complete(workload):
    for trace, names in ((False, bench.END_TO_END), (True, bench.PER_LAYER)):
        result = run.run_workload(workload, seed=3, seconds=0.1, trace=trace, smoke=True)
        assert result is not None
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert list(result["metrics"]) == list(names)
    if workload == "cluster_test":
        # span self-times plus uncovered time add up to the traced wall time
        path = run.ROOT / ".bench_out" / f"trace-{workload}-3.json"
        for op in json.loads(path.read_text())["ops"]:
            self_s = sum(tracing.summarize(op["spans"])[2].values())
            uncovered = op["op_s"] - tracing.root_seconds(op["spans"])
            assert self_s + uncovered == pytest.approx(op["op_s"], abs=1e-9)
            assert 0 <= uncovered < 0.01 * op["op_s"]


def test_memory_blowup_fails_the_operation(monkeypatch):
    # a full-size training batch cannot fit under 0.4 GiB of address space
    monkeypatch.setattr(run, "ADDRESS_SPACE_GIB", 0.4)
    result = run.run_workload("train_paper", seed=3, seconds=0.1, trace=False, smoke=False)
    assert result is not None and not result["correct"] and result["failed"] == 1
    assert "MemoryError" in result["failures"][0]


def test_trace_reports_uncalled_and_missing_targets_as_zero():
    targets = [("knn.build", "linkgcn.knn", "build_knn", bench._count_knn),
               ("gone", "linkgcn.knn", "no_such_function", None)]
    original = knn.build_knn
    with tracing.Tracer(targets) as tracer:
        assert knn.build_knn is not original
    assert knn.build_knn is original
    assert tracer.absent == ["gone"]
    spans, counters, _ = tracer.take()
    metrics = bench.layer_metrics(spans, counters, 0.0, 1.0, n=10)
    assert metrics["knn.build_s"] == metrics["ips.calls"] == metrics["gcn.forward_calls"] == 0
    assert set(metrics) | {"dataset.synth_s"} == set(bench.PER_LAYER)


def test_checks_reject_wrong_outputs():
    fs = bench.make_collection(120, 5, bench.SMOKE_PER_IDENTITY)
    table = knn.build_knn(fs, 10)
    rng = np.random.default_rng(0)
    assert bench.check_knn(fs, table, rng) == []
    swapped = table.indices.copy()
    swapped[:, [0, -1]] = swapped[:, [-1, 0]]
    bad = knn.NeighborTable(indices=swapped, similarities=table.similarities)
    assert bench.check_knn(fs, bad, rng)

    good = merge.threshold_baseline(fs, table, bench.TAU_SIM)
    assert bench.check_partition(good, fs.n) == []
    assert bench.check_partition(good.max() - good, fs.n)
    assert bench.check_partition(good[:-1], fs.n)


def test_checkpoint_checksum_is_verified(monkeypatch, tmp_path):
    assert bench.load_checkpoint().layer_dims == list(bench.MODEL_DIMS)
    corrupt = tmp_path / "model.gcnm"
    data = bytearray(bench.CHECKPOINT.read_bytes())
    data[-1] ^= 1
    corrupt.write_bytes(bytes(data))
    monkeypatch.setattr(bench, "CHECKPOINT", corrupt)
    with pytest.raises(ValueError, match="sha256"):
        bench.load_checkpoint()


def test_collections_have_exactly_n_rows_and_repeat_by_seed():
    a = bench.make_collection(500, 7)
    b = bench.make_collection(500, 7)
    assert a.n == 500 and a.normalized
    assert np.array_equal(a.features, b.features) and np.array_equal(a.labels, b.labels)
    assert np.sum(a.labels < 0) == 500 - round(500 / 1.1)
    assert bench.make_collection(500, 8).features.tobytes() != a.features.tobytes()


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
