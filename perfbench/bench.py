"""One benchmark run of one workload, in its own process.

``run.py`` starts this file in a fresh interpreter per run, with the BLAS
thread count pinned and an address-space limit set, so that peak RSS covers
one workload and a memory blow-up fails an operation instead of the machine.
The run issues one operation at a time (a closed loop with one client) until
the next one would end after ``--seconds``, and checks every output. Before
each operation it sets up the inputs from the seed several times; ``setup_s``
is the median of all of them, so it samples the same stretch of time as the
operations. The last stdout line is one JSON object.

Workloads, all on ``synth_generate`` data at D = 64 with 20-100 instances
per identity, noise 0.02-0.2, 10% distractors on top and unit rows:

- ``cluster_test``: ``pipeline.cluster`` at N = 2,172 in the test regime
  (k1=80, k2=5, u=5) with the 64->256/256/128/64 mean model read from
  ``cluster_test.gcnm`` and ``propagate`` merging. GCN forward, subgraph
  construction and pooling dominate; kNN is a few percent.
- ``train_paper``: ``trainer.train`` for one epoch at N = 240, batch 16, in
  the paper's train regime (200, 10, 10). Forward plus backward on dense
  block-diagonal batches dominates and sets peak RSS; kNN is negligible.
- ``knn_baseline``: ``build_knn`` (k=80) plus ``threshold_baseline`` at
  tau_sim 0.55, N = 8,338. kNN is nearly all of it and the GCN is unused, so
  a GCN or subgraph change should leave it alone.

Sizes are set so that every run holds several operations within the
benchmark's run time. On a shared 2-core virtual machine the time of one
fixed operation drifted by up to 20% over tens of seconds, so only a median
over a long enough window is steady.

Every workload reports every end-to-end metric. ``bcubed_f`` and ``nmi`` score
the partition against the identities (distractors as singletons); on
``train_paper`` that partition is ``pipeline.cluster`` of the training set
with the model just trained, which after one epoch links almost nothing.
``final_loss`` is a link cross-entropy: the last epoch's training loss on
``train_paper``, the pooled link likelihoods against same-identity truth on
``cluster_test``, and the kNN cosine similarities as link scores on
``knn_baseline``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

TRACE_DIR = HERE.parent / ".bench_out"
CHECKPOINT = HERE / "cluster_test.gcnm"
CHECKPOINT_SHA256 = "e2f223a672d705b67c6424ec7216988b61f173c13c0c55b1935ba9615c5fd0c5"
SETUP_REPEATS = 5  # per operation
KNN_CHECK_ROWS = 32
KNN_TIE_TOL = 1e-12
TAU_SIM = 0.55
LOSS_EPS = 1e-7
PER_IDENTITY = (20, 100)
SMOKE_PER_IDENTITY = (4, 20)
SMOKE_FLOOR_F = 0.1  # tiny collections cluster poorly; the floor only catches garbage

END_TO_END = {
    "setup_s": "s",
    "instances_per_s": "1/s",
    "peak_rss_mb": "MiB",
    "bcubed_f": "ratio",
    "nmi": "ratio",
    "final_loss": "nats",
}

PER_LAYER = {
    "knn.build_s": "s",
    "knn.gflop": "GFLOP",
    "knn.gflop_per_s": "GFLOP/s",
    "ips.calls": "count",
    "ips.discover_s": "s",
    "ips.adjacency_s": "s",
    "ips.features_s": "s",
    "ips.nodes_mean": "count",
    "ips.nodes_p99": "count",
    "ips.edge_density": "ratio",
    "ips.adjacency_mb": "MiB",
    "gcn.forward_calls": "count",
    "gcn.forward_s": "s",
    "gcn.forward_gflop": "GFLOP",
    "gcn.aggregation_useful_ratio": "ratio",
    "gcn.loss_grads_calls": "count",
    "gcn.loss_grads_s": "s",
    "gcn.batch_nodes_mean": "count",
    "trainer.batch_s": "s",
    "trainer.batch_mb": "MiB",
    "trainer.self_s": "s",
    "pipeline.predict_links_s": "s",
    "pipeline.self_s": "s",
    "pipeline.per_pivot_ms": "ms",
    "merge.pool_s": "s",
    "merge.directed_links": "count",
    "merge.pooled_edges": "count",
    "merge.propagate_s": "s",
    "merge.clusters": "count",
    "merge.baseline_s": "s",
    "dataset.synth_s": "s",
    "trace.op_s": "s",
    "trace.overhead_s": "s",
    "trace.uncovered_s": "s",
}


def import_linkgcn():
    """Import linkgcn from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    import linkgcn
    if Path(linkgcn.__file__).resolve().parent.parent != SRC.resolve():
        raise ImportError(f"linkgcn imported from {linkgcn.__file__}, not {SRC}")
    return linkgcn


import_linkgcn()
from linkgcn import _kernels, dataset, gcn, knn, merge, metrics, pipeline, trainer  # noqa: E402
from linkgcn.ips import IpsConfig  # noqa: E402

import tracing  # noqa: E402

TEST_IPS = IpsConfig(h=2, k_per_hop=(80, 5), u=5)
TRAIN_IPS = IpsConfig(h=2, k_per_hop=(200, 10), u=10)
MODEL_DIMS = (64, 256, 256, 128, 64)


# ---------------------------------------------------------------- inputs

def make_collection(n: int, seed: int, per_identity=PER_IDENTITY) -> dataset.FeatureSet:
    """Exactly n unit rows: round(n / 1.1) rows of synthetic identities, then
    distractors to fill.

    Identity sizes are spread evenly over the per_identity range and noise
    scales log-evenly over 0.02-0.2, paired in a fixed shuffled order. Both
    are the same for every seed, because they set the subgraph sizes and with
    them the cost of an operation; the seed draws the centers and points."""
    lo, hi = per_identity
    n_in, n_out = round(n / 1.1), n - round(n / 1.1)
    m = max(2, round(2 * n_in / (lo + hi)))
    sizes = np.linspace(lo, hi, m)
    sizes = np.floor(sizes * n_in / sizes.sum()).astype(int)
    sizes[: n_in - sizes.sum()] += 1
    scales = np.geomspace(0.02, 0.2, m)[np.random.default_rng(0).permutation(m)]

    def draw(part, size, scale, outliers=0.0):
        sub = int(np.random.SeedSequence([seed, part]).generate_state(1)[0])
        return dataset.synth_generate(dataset.SynthSpec(
            num_identities=1, samples_per_identity=(size, size), dim=64,
            noise_scale=(scale, scale), outlier_fraction=outliers, seed=sub))

    parts = [draw(i, size, scale) for i, (size, scale) in enumerate(zip(sizes, scales))]
    noise = draw(m, 2 * n_out + 1, 0.1, outliers=0.5)  # only its n_out distractors are kept
    feats = [p.features for p in parts] + [noise.features[noise.labels < 0][:n_out]]
    labels = [np.full(size, i) for i, size in enumerate(sizes)] + [np.full(n_out, -1)]
    return dataset.normalize_rows(dataset.FeatureSet(features=np.concatenate(feats),
                                                     labels=np.concatenate(labels)))


def load_checkpoint() -> gcn.GcnModel:
    digest = hashlib.sha256(CHECKPOINT.read_bytes()).hexdigest()
    if digest != CHECKPOINT_SHA256:
        raise ValueError(f"{CHECKPOINT.name}: sha256 {digest} != {CHECKPOINT_SHA256}")
    return gcn.load_model(CHECKPOINT)


# ---------------------------------------------------------------- checks

def check_knn(fs, table, rng) -> list:
    """Compare sampled rows with a float64 brute force ordered by (similarity
    desc, id asc). Ids may differ only between near-tied similarities."""
    x = fs.features.astype(np.float64)
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    n, k = fs.n, table.k
    ids = np.arange(n)
    failures = []
    for i in rng.choice(n, size=min(KNN_CHECK_ROWS, n), replace=False):
        s = x @ x[i]
        s[i] = -np.inf
        want = np.lexsort((ids, -s))[:k]
        got = table.indices[i]
        if (np.unique(got).size != k or np.any(got == i)
                or np.max(np.abs(s[got] - s[want])) > KNN_TIE_TOL
                or not np.allclose(table.similarities[i], s[got], rtol=0, atol=1e-6)):
            failures.append(f"knn row {i} differs from the brute force")
    return failures


def check_partition(assignment, n) -> list:
    a = np.asarray(assignment)
    if a.shape != (n,) or a.dtype.kind not in "iu" or a.min() < 0:
        return [f"partition is not a total labelling of {n} instances"]
    uniq, first = np.unique(a, return_index=True)
    if not (np.array_equal(uniq, np.arange(uniq.size)) and np.all(np.diff(first) > 0)):
        return ["partition labels are not canonical"]
    return []


def link_loss(labels, i, j, p) -> float:
    """Mean binary cross-entropy of link scores p for pairs (i, j), against
    same-identity truth; distractors match nothing."""
    y = (labels[i] == labels[j]) & (labels[i] >= 0)
    p = np.clip(np.asarray(p, dtype=np.float64), LOSS_EPS, 1 - LOSS_EPS)
    return float(-np.mean(np.where(y, np.log(p), np.log1p(-p))))


def partition_quality(fs, assignment, floor_f) -> tuple:
    report = metrics.evaluate(fs.labels, assignment, distractors="unique")
    failures = check_partition(assignment, fs.n)
    if report.bcubed_f < floor_f:
        failures.append(f"bcubed_f {report.bcubed_f:.4f} below floor {floor_f}")
    return failures, {"bcubed_f": report.bcubed_f, "nmi": report.nmi}


# ---------------------------------------------------------------- workloads

@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    smoke_n: int
    floor_f: float  # lowest acceptable bcubed_f at full size
    setup: Callable
    op: Callable
    check: Callable  # (inputs, output, knn tables, rng, floor_f) -> (failures, quality)


def _cluster_setup(n, seed, per_identity):
    return {"fs": make_collection(n, seed, per_identity), "model": load_checkpoint()}


def _cluster_op(inp):
    assignment, edges, _ = pipeline.cluster(inp["fs"], inp["model"], TEST_IPS,
                                            merge="propagate")
    return assignment, edges


def _cluster_check(inp, out, tables, rng, floor_f):
    fs, (assignment, edges) = inp["fs"], out
    failures, quality = partition_quality(fs, assignment, floor_f)
    failures += [f for t in tables for f in check_knn(fs, t, rng)]
    quality["final_loss"] = link_loss(fs.labels, edges.i, edges.j, edges.w)
    return failures, quality


def _train_setup(n, seed, per_identity):
    return {"fs": make_collection(n, seed, per_identity), "seed": seed}


def _train_op(inp):
    cfg = trainer.TrainConfig(aggregator="mean", hidden_dims=MODEL_DIMS[1:], ips=TRAIN_IPS,
                              epochs=1, batch_size=16, seed=inp["seed"])
    return trainer.train(inp["fs"], cfg)


def _train_check(inp, out, tables, rng, floor_f):
    fs, (model, curve) = inp["fs"], out
    failures = [f for t in tables for f in check_knn(fs, t, rng)]
    if not (len(curve) == 1 and np.all(np.isfinite(curve))):
        failures.append(f"loss curve {curve} is not one finite value")
    assignment, _, _ = pipeline.cluster(fs, model, TEST_IPS, merge="propagate")
    more, quality = partition_quality(fs, assignment, floor_f)
    quality["final_loss"] = float(curve[-1])
    return failures + more, quality


def _knn_setup(n, seed, per_identity):
    return {"fs": make_collection(n, seed, per_identity)}


def _knn_op(inp):
    table = knn.build_knn(inp["fs"], 80)
    return table, merge.threshold_baseline(inp["fs"], table, TAU_SIM)


def _knn_check(inp, out, tables, rng, floor_f):
    fs, (table, assignment) = inp["fs"], out
    failures, quality = partition_quality(fs, assignment, floor_f)
    failures += check_knn(fs, table, rng)
    rows = np.repeat(np.arange(fs.n), table.k)
    quality["final_loss"] = link_loss(fs.labels, rows, table.indices.ravel(),
                                      table.similarities.ravel())
    return failures, quality


WORKLOADS = {w.name: w for w in (
    Workload("cluster_test", n=2172, smoke_n=300, floor_f=0.7,
             setup=_cluster_setup, op=_cluster_op, check=_cluster_check),
    Workload("train_paper", n=240, smoke_n=80, floor_f=0.15,
             setup=_train_setup, op=_train_op, check=_train_check),
    Workload("knn_baseline", n=8338, smoke_n=400, floor_f=0.85,
             setup=_knn_setup, op=_knn_op, check=_knn_check),
)}


# ---------------------------------------------------------------- trace

def _count_knn(c, args, kwargs, result):
    fs = args[0]
    c["knn.gflop"].append(2.0 * fs.n * fs.n * fs.dim / 1e9)


class _Nnz:
    """Nonzeros of a dense adjacency, remembering the last one counted so a
    subgraph built and then scored is scanned once."""

    def __init__(self):
        self.last = (None, 0)

    def __call__(self, a):
        if self.last[0] is not a:
            self.last = (a, int(np.count_nonzero(a)))
        return self.last[1]


def trace_targets():
    nnz = _Nnz()

    def count_ips(c, args, kwargs, ips):
        s = ips.size
        c["ips.nodes"].append(s)
        c["ips.density"].append(nnz(ips.adjacency) / (s * (s - 1)) if s > 1 else 0.0)

    def count_forward(c, args, kwargs, result):
        model, ips = args[0], args[1]
        s, dims = ips.size, model.layer_dims
        flops = sum(2 * s * s * d_in + 4 * s * d_in * d_out
                    for d_in, d_out in zip(dims[:-1], dims[1:])) + 4 * s * dims[-1]
        c["gcn.forward_gflop"].append(flops / 1e9)
        c["gcn.agg_nnz"].append(nnz(ips.adjacency))
        c["gcn.agg_cells"].append(s * s)

    def count_loss_grads(c, args, kwargs, result):
        rows = args[1].shape[0]
        c["gcn.batch_nodes"].append(rows)
        c["gcn.agg_nnz"].append(nnz(args[2]))
        c["gcn.agg_cells"].append(rows * rows)

    def count_batch(c, args, kwargs, result):
        c["trainer.batch_bytes"].append(4.0 * result[0].shape[0] ** 2)

    def count_pool(c, args, kwargs, edges):
        c["merge.directed_links"].append(sum(len(h) for h in args[1]))
        c["merge.pooled_edges"].append(len(edges))

    def count_clusters(c, args, kwargs, assignment):
        c["merge.clusters"].append(int(np.max(assignment)) + 1 if len(assignment) else 0)

    return [
        ("dataset.synth", "linkgcn.dataset", "synth_generate", None),
        ("knn.build", "linkgcn.knn", "build_knn", _count_knn),
        ("ips.build", "linkgcn.ips", "build_ips", count_ips),
        ("ips.discover", "linkgcn.ips", "discover_nodes", None),
        ("ips.features", "linkgcn.ips", "normalize_node_features", None),
        ("ips.adjacency", "linkgcn.ips", "add_edges", None),
        ("gcn.forward", "linkgcn.gcn", "forward", count_forward),
        ("gcn.loss_grads", "linkgcn.gcn", "loss_and_grads_arrays", count_loss_grads),
        ("trainer.train", "linkgcn.trainer", "train", None),
        ("trainer.batch", "linkgcn.trainer", "block_diagonal_batch", count_batch),
        ("pipeline.cluster", "linkgcn.pipeline", "cluster", None),
        ("pipeline.predict_links", "linkgcn.pipeline", "predict_links", None),
        ("merge.pool", "linkgcn.merge", "pool_edges", count_pool),
        ("merge.propagate", "linkgcn.merge", "propagate_cluster", count_clusters),
        ("merge.baseline", "linkgcn.merge", "threshold_baseline", count_clusters),
    ]


def layer_metrics(spans, c, overhead_s, op_s, n) -> dict:
    """Per-layer metrics of one traced operation."""
    calls, total, self_s = tracing.summarize(spans)
    knn_s = total["knn.build"]
    knn_gflop = sum(c.get("knn.gflop", []))
    nodes = c.get("ips.nodes", [])
    cells = sum(c.get("gcn.agg_cells", []))
    predict_s = total["pipeline.predict_links"]
    return {
        "knn.build_s": knn_s,
        "knn.gflop": knn_gflop,
        "knn.gflop_per_s": knn_gflop / knn_s if knn_s > 0 else 0.0,
        "ips.calls": calls["ips.build"],
        "ips.discover_s": total["ips.discover"],
        "ips.adjacency_s": total["ips.adjacency"],
        "ips.features_s": total["ips.features"],
        "ips.nodes_mean": float(np.mean(nodes)) if nodes else 0.0,
        "ips.nodes_p99": float(np.percentile(nodes, 99)) if nodes else 0.0,
        "ips.edge_density": float(np.mean(c["ips.density"])) if nodes else 0.0,
        "ips.adjacency_mb": 4.0 * float(np.sum(np.square(nodes, dtype=np.float64))) / 2**20,
        "gcn.forward_calls": calls["gcn.forward"],
        "gcn.forward_s": total["gcn.forward"],
        "gcn.forward_gflop": sum(c.get("gcn.forward_gflop", [])),
        "gcn.aggregation_useful_ratio": sum(c.get("gcn.agg_nnz", [])) / cells if cells else 0.0,
        "gcn.loss_grads_calls": calls["gcn.loss_grads"],
        "gcn.loss_grads_s": total["gcn.loss_grads"],
        "gcn.batch_nodes_mean": float(np.mean(c.get("gcn.batch_nodes", [0]))),
        "trainer.batch_s": total["trainer.batch"],
        "trainer.batch_mb": max(c.get("trainer.batch_bytes", [0.0])) / 2**20,
        "trainer.self_s": self_s["trainer.train"],
        "pipeline.predict_links_s": predict_s,
        "pipeline.self_s": self_s["pipeline.cluster"],
        "pipeline.per_pivot_ms": 1e3 * predict_s / n,
        "merge.pool_s": total["merge.pool"],
        "merge.directed_links": sum(c.get("merge.directed_links", [])),
        "merge.pooled_edges": sum(c.get("merge.pooled_edges", [])),
        "merge.propagate_s": total["merge.propagate"],
        "merge.clusters": sum(c.get("merge.clusters", [])),
        "merge.baseline_s": total["merge.baseline"],
        "trace.op_s": op_s,
        "trace.overhead_s": overhead_s,
        "trace.uncovered_s": op_s - tracing.root_seconds(spans),
    }


# ---------------------------------------------------------------- run

def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def environment() -> dict:
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "numba_installed": importlib.util.find_spec("numba") is not None,
        "numba_used": bool(_kernels.HAS_NUMBA),
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "address_space_gib": resource.getrlimit(resource.RLIMIT_AS)[0] / 2**30,
    }


def run(wl: Workload, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """Set up, run the closed loop, check every output; return the result."""
    n = wl.smoke_n if smoke else wl.n
    setup_s, synth_s = [], []

    def set_up():
        for _ in range(SETUP_REPEATS):
            with tracing.Tracer(trace_targets() if trace else []) as tracer:
                t0 = time.perf_counter()
                inp = wl.setup(n, seed, SMOKE_PER_IDENTITY if smoke else PER_IDENTITY)
                setup_s.append(time.perf_counter() - t0)
            synth_s.append(tracing.summarize(tracer.take()[0])[1]["dataset.synth"])
        return inp

    rng = np.random.default_rng(seed)
    walls, quality, failures, per_op, trace_ops = [], {}, [], [], []
    attempted, peak_rss_mb = 0, 0.0
    loop_start = time.perf_counter()
    while True:
        attempted += 1
        inp = set_up()
        tracer = tracing.Tracer(trace_targets() if trace else [])
        tap = tracing.ReturnTap("linkgcn.knn", "build_knn")
        t0 = time.perf_counter()
        try:
            with tracer, tap:
                out = wl.op(inp)
            walls.append(time.perf_counter() - t0)
            op_failures, quality = wl.check(inp, out, tap.values, rng,
                                            SMOKE_FLOOR_F if smoke else wl.floor_f)
        except Exception as exc:  # a failed operation or check is counted, not fatal
            traceback.print_exc()
            op_failures = [f"{type(exc).__name__}: {exc}"]
        if attempted == 1:  # later operations reuse memory the first one freed
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        failures += op_failures
        out = tap = None  # the next operation must not share this one's peak memory
        if trace and len(walls) == attempted:
            spans, counters, overhead = tracer.take()
            per_op.append(layer_metrics(spans, counters, overhead, walls[-1], n))
            trace_ops.append({"op_s": walls[-1], "spans": spans})
        if op_failures or time.perf_counter() - loop_start + statistics.median(walls) > seconds:
            break

    if trace:
        values = {name: _median([op[name] for op in per_op]) for name in PER_LAYER
                  if name != "dataset.synth_s"}
        values["dataset.synth_s"] = statistics.median(synth_s)
        units = PER_LAYER
        TRACE_DIR.mkdir(exist_ok=True)
        (TRACE_DIR / f"trace-{wl.name}-{seed}.json").write_text(json.dumps(
            {"workload": wl.name, "seed": seed, "n": n, "absent": tracer.absent,
             "ops": trace_ops}))
    else:
        values = {
            "setup_s": statistics.median(setup_s),
            "instances_per_s": _median([n / w for w in walls]),  # one epoch or pass per operation
            "peak_rss_mb": peak_rss_mb,
            "bcubed_f": quality.get("bcubed_f", 0.0),
            "nmi": quality.get("nmi", 0.0),
            "final_loss": quality.get("final_loss", 0.0),
        }
        units = END_TO_END
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": 1 if failures else 0,  # the loop stops at the first failed operation
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()},
        "failures": failures,
        "env": environment(),
        "n": n,
        "op_s": walls,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), args.smoke)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
