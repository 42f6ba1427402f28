"""Run each workload over several seeds and report how steady it is.

    python3 perfbench/steady.py --seeds 10 --out perfbench/BENCH_pipeline.json

For each end-to-end metric it prints the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the spread (distance
between the quartiles over the median) beside the metric's bound from
BENCHMARK.json. A spread above a third of the bound is flagged, except for
``setup_s``. One traced run per workload adds the per-layer metrics. With
``--out`` the numbers are written as JSON, to serve as a baseline.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append", choices=sorted(run.THREADS))
    ap.add_argument("--out")
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    seconds = SPEC["run_seconds"]
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    out = {"run_seconds": seconds, "seeds": seeds, "workloads": {}}
    steady = True
    for workload in args.workload or list(run.THREADS):
        results = []
        for seed in seeds:
            result = run.run_workload(workload, seed, seconds, trace=False, smoke=False)
            if result is None or not result["correct"]:
                print(f"{workload} seed {seed}: failed {result and result['failures']}")
                return 1
            results.append(result)
        traced = run.run_workload(workload, seeds[0], seconds, trace=True, smoke=False)
        if traced is None or not traced["correct"]:
            print(f"{workload} traced seed {seeds[0]}: failed")
            return 1
        rows = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            ok = name == "setup_s" or spread < bound / 3
            steady &= ok
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                          "bound": bound, "unit": results[0]["metrics"][name]["unit"],
                          "values": values}
            print(f"{workload:14s} {name:16s} median {med:12.6g}  spread {spread:7.2%}  "
                  f"bound {bound:5.0%}  {'ok' if ok else 'WIDE'}")
        out["env"] = results[0]["env"]
        out["workloads"][workload] = {
            "n": results[0]["n"],
            "ops_per_run": [r["attempted"] for r in results],
            "end_to_end": rows,
            "per_layer_seed": seeds[0],
            "per_layer": {k: m["value"] for k, m in traced["metrics"].items()},
        }
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(out, fh, indent=1)
            fh.write("\n")
    return 0 if steady else 2


if __name__ == "__main__":
    sys.exit(main())
