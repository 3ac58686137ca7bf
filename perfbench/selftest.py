#!/usr/bin/env python3
"""Self-test of the benchmark: runs every workload at a tiny size and
checks the contract of its output.

    python3 perfbench/selftest.py

Run from the root of the repository. For each workload it checks that

* an untraced run exits 0 and its last line is one JSON object with the
  keys correct, attempted, failed and metrics, naming every end-to-end
  metric of BENCHMARK.json with its unit and a non-zero value;
* a traced run names every per-layer metric with its unit, and the
  workload's own layers read non-zero;
* a run told to corrupt one compared output (`--sabotage 1`) fails its
  correctness check: it exits non-zero and prints no result line.

Exits non-zero on the first failure.
"""

import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))

# Per-layer metrics that must read non-zero on their own workload (the
# layer does work there); the rest may legitimately be zero at tiny size.
HEAP = "bench.process.peak_heap_mb"
OWN_LAYERS = {
    "fit_disk": ["data.dataset.scan_ns_per_row", "core.boat.sample_phase_s",
                 "core.work.cleanup_s", "core.boat.input_scans", HEAP],
    "ingest_drift": ["data.wal.append_us_p50", "data.wal.fsync_batches",
                     "core.incremental.insert_us_per_record",
                     "core.incremental.delete_us_per_record",
                     "core.incremental.maintain_ms_mean", HEAP],
    "serve_swap": ["serve.compile.predict_ns_per_row", "serve.engine.submit_us_p50",
                   "serve.engine.score_us_mean", "serve.handle.publish_us_mean", HEAP],
}


def fail(msg):
    sys.exit(f"selftest: FAIL: {msg}")


def run(workload, trace, sabotage=0):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", "7", "--seconds", "1",
                             "--trace", str(trace), "--size", "tiny",
                             "--sabotage", str(sabotage)]
    return subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=600)


def result_of(done, what):
    if done.returncode != 0:
        fail(f"{what}: exit {done.returncode}\n{done.stderr[-2000:]}")
    lines = done.stdout.splitlines()
    if not lines:
        fail(f"{what}: no output")
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"{what}: result keys {sorted(result)}")
    if result["correct"] is not True:
        fail(f"{what}: correct is {result['correct']}")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int):
            fail(f"{what}: {key} is not a whole number")
    if result["attempted"] < 1:
        fail(f"{what}: attempted < 1")
    return result


def check_metrics(result, listed, what):
    metrics = result["metrics"]
    want = {m["name"]: m["unit"] for m in listed}
    if set(metrics) != set(want):
        fail(f"{what}: metrics {sorted(set(metrics) ^ set(want))} missing or extra")
    for name, unit in want.items():
        m = metrics[name]
        if sorted(m) != ["unit", "value"] or m["unit"] != unit:
            fail(f"{what}: {name} is {m}, want unit {unit}")
        if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            fail(f"{what}: {name} value {m['value']!r} is not a finite number")
    return metrics


def main():
    for w in (w["name"] for w in SPEC["workloads"]):
        what = f"{w} untraced"
        metrics = check_metrics(result_of(run(w, 0), what), SPEC["end_to_end"], what)
        zero = [n for n, m in metrics.items() if m["value"] == 0]
        if zero:
            fail(f"{what}: end-to-end metrics read 0: {zero}")
        print(f"ok  {what}: {len(metrics)} end-to-end metrics")

        what = f"{w} traced"
        metrics = check_metrics(result_of(run(w, 1), what), SPEC["per_layer"], what)
        idle = [n for n in OWN_LAYERS[w] if metrics[n]["value"] == 0]
        if idle:
            fail(f"{what}: own layers read 0: {idle}")
        print(f"ok  {what}: {len(metrics)} per-layer metrics")

        what = f"{w} sabotaged"
        done = run(w, 0, sabotage=1)
        if done.returncode == 0:
            fail(f"{what}: a corrupted output passed the correctness check")
        last = (done.stdout.splitlines() or [""])[-1]
        if last.startswith("{"):
            fail(f"{what}: printed a result line despite failing")
        if "correctness check failed" not in done.stderr:
            fail(f"{what}: failed for another reason:\n{done.stderr[-2000:]}")
        print(f"ok  {what}: check fired (exit {done.returncode})")
    print("selftest: all checks passed")


if __name__ == "__main__":
    main()
