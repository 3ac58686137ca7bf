#!/usr/bin/env python3
"""Run each workload several times with different seeds and report, for
every end-to-end metric, the median and the spread (third minus first
quartile, as a share of the median) beside the metric's bound from
BENCHMARK.json.

    python3 perfbench/steadiness.py --runs 10 [--workload fit_disk ...] [--first-seed 1]

Run from the root of the repository. A spread below a third of the bound
is what the benchmark aims for; `setup_s` is reported but has no spread
target.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=names)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worst = 0.0
    for workload in args.workload or names:
        values = {m: [] for m in bounds}
        for i in range(args.runs):
            seed = args.first_seed + i
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(args.seconds), "--trace", "0"]
            out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            if out.returncode != 0:
                sys.exit(f"{workload} seed {seed}: exit {out.returncode}")
            result = json.loads(out.stdout.splitlines()[-1])
            for m in bounds:
                values[m].append(result["metrics"][m]["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{m}={result['metrics'][m]['value']:.6g}" for m in bounds), flush=True)
        for m, v in values.items():
            q1, med, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0],) * 3
            spread = (q3 - q1) / med if med else float("inf")
            target = bounds[m] / 3
            mark = "" if m == "setup_s" else ("ok" if spread < target else "TOO WIDE")
            if m != "setup_s":
                worst = max(worst, spread / bounds[m])
            print(f"  {workload:<13} {m:<12} median {med:<12.6g} spread {spread:7.2%} "
                  f"(bound {bounds[m]:.0%}, target < {target:.1%}) {mark}")
    print(f"worst spread as a share of its bound: {worst:.0%}")


if __name__ == "__main__":
    main()
