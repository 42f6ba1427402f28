"""Pipeline benchmark for linkgcn: cluster, train and kNN-baseline workloads.

    python3 perfbench/run.py --workload cluster_test --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py                  # every workload, untraced then traced
    python3 perfbench/run.py --smoke          # the same at tiny sizes

Run from the repository root. Each workload run is a fresh process
(``bench.py``) with the BLAS thread count pinned and an address-space limit,
so that its peak RSS is its own and a memory blow-up fails the run instead of
the machine. ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones and writes the spans to ``.bench_out/``. Every metric is
printed by name with its unit; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is not
0 when a run could not produce a result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# BLAS/OpenMP threads per workload: one keeps kNN and per-pivot inference
# steady, and training runs 1.7x faster on two.
THREADS = {"cluster_test": 1, "train_paper": 2, "knn_baseline": 1}
# Every workload peaks below 0.5 GiB of address space; a run that needs four
# times that fails its operation instead of exhausting a shared machine.
ADDRESS_SPACE_GIB = 2
TIMEOUT_SLACK_S = 120
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMBA_NUM_THREADS")


def run_workload(workload: str, seed: int, seconds: float, trace: bool, smoke: bool):
    """Run one workload in a child process; return its result dict or None."""
    threads = max(1, min(THREADS[workload], len(os.sched_getaffinity(0))))
    limit = int(ADDRESS_SPACE_GIB * 2**30)
    env = dict(os.environ, **{var: str(threads) for var in THREAD_VARS})
    cmd = [sys.executable, str(HERE / "bench.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    if smoke:
        cmd.append("--smoke")

    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=seconds + TIMEOUT_SLACK_S,
                              preexec_fn=limit_address_space)
    except subprocess.TimeoutExpired:
        print(f"{workload}: no result within {seconds + TIMEOUT_SLACK_S:.0f} s",
              file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{workload}: bench.py exited with code {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def report(workload: str, seed: int, result: dict) -> None:
    ops = result["op_s"] or [0.0]
    print(f"# {workload} seed={seed} n={result['n']} attempted={result['attempted']} "
          f"failed={result['failed']} op_s min/median/max "
          f"{min(ops):.3f}/{statistics.median(ops):.3f}/{max(ops):.3f} "
          f"env={json.dumps(result['env'], sort_keys=True)}")
    for failure in result["failures"]:
        print(f"# FAILED {workload}: {failure}")
    for name, m in result["metrics"].items():
        print(f"{workload:14s} {name:30s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(THREADS),
                    help="run only this workload (default: all of them)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1),
                    help="1 for per-layer metrics (default: both kinds of run)")
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, to test the benchmark")
    args = ap.parse_args(argv)

    workloads = [args.workload] if args.workload else list(THREADS)
    traces = [bool(args.trace)] if args.trace is not None else [False, True]
    for workload in workloads:
        for trace in traces:
            result = run_workload(workload, args.seed, args.seconds, trace, args.smoke)
            if result is None:
                return 1
            report(workload, args.seed, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
