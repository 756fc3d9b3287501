#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py [--seed N]

Runs every workload of BENCHMARK.json for one second at a seed other
than the default (7), untraced and traced. Checks that each run exits
0 and prints the host record and a result object with exactly the
required keys. (run.py itself checks every value against the metrics
BENCHMARK.json declares.) Exits non-zero on the first problem.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def check(workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        return f"exit code {done.returncode}"
    lines = done.stdout.strip().splitlines()
    host = json.loads(lines[0]).get("host", {})
    for key in ("nproc", "wal_fs", "kernel", "rustc", "source"):
        if key not in host:
            return f"host record lacks {key}"
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return f"result keys {sorted(result)}"
    if result["correct"] is not True or result["attempted"] < 1:
        return f"correct={result['correct']} attempted={result['attempted']}"
    if not 0 <= result["failed"] <= result["attempted"]:
        return f"failed={result['failed']} attempted={result['attempted']}"
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            problem = check(workload, args.seed, trace)
            label = f"{workload} --trace {trace}"
            if problem:
                sys.exit(f"smoke: {label}: {problem}")
            print(f"smoke: {label}: ok", flush=True)


if __name__ == "__main__":
    main()
