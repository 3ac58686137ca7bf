#!/usr/bin/env python3
"""Build the benchmark and run one workload in its own process.

    python3 perfbench/run.py --workload fit_disk --seed 1 --seconds 20 --trace 0

Run from the root of the repository. Builds `perfbench/` (a Cargo package
of its own, depending on the repository's crates by path) into
$CARGO_TARGET_DIR (default `.bench_build`), then runs the workload with a
scratch directory `perfbench/scratch/<workload>` that is emptied first.
The workload's output is passed through; its last line is one JSON object
with the run's metrics. A failed build or correctness check exits non-zero
without that line.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("fit_disk", "ingest_drift", "serve_swap")


def build(target_dir):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        sys.exit(f"run.py: build failed (cargo exit {done.returncode})")
    return os.path.join(target_dir, "release", "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--sabotage", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(target_dir)
    scratch = os.path.join(HERE, "scratch", args.workload)
    # Anything the program writes to a temporary directory stays in the
    # checkout too.
    tmp = os.path.join(HERE, "scratch", "tmp")
    os.makedirs(tmp, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--sabotage", str(args.sabotage),
           "--scratch", scratch]
    env = dict(os.environ, TMPDIR=tmp)
    done = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0:
        sys.stdout.write("".join(l + "\n" for l in lines if l.startswith("#")))
        sys.exit(f"run.py: {args.workload} failed (exit {done.returncode})")
    if not lines:
        sys.exit(f"run.py: {args.workload} printed nothing")
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
