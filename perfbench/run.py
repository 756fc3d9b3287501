#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of the repository. It builds the `riot-serve`
server and the `perfbench` binary from source in release mode (into
$CARGO_TARGET_DIR, default `.bench_build`), runs one workload, and
prints two lines: the host the numbers were measured on, then the
result object (`correct`, `attempted`, `failed`, `metrics`). A build
failure, a failed correctness check or an invalid run prints no result
and exits non-zero. Workloads, metrics and the per-layer map are in
perfbench/README.md.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve-edits", "edit-repaint", "route-channels")
# Fresh processes per run, each given an equal share of --seconds. On
# a shared host a process's speed varies from one process to the next
# and then holds for its life: on a 2-CPU VM six processes running
# the same edit-repaint input had median edit times from 2.07 to
# 2.55 ms. Each
# metric of the run is its median over the processes, so that one
# process does not decide it. serve-edits runs once: its sessions must
# grow through several snapshot cycles within one server.
PROCESSES = {"serve-edits": 1, "edit-repaint": 5, "route-channels": 5}


def build(target_dir):
    """Builds the server and the benchmark binary; exits on failure."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    steps = (
        [os.path.join(ROOT, "Cargo.toml"), "-p", "riot-serve"],
        [os.path.join(HERE, "Cargo.toml")],
    )
    for manifest, *extra in steps:
        if not os.path.isfile(manifest):
            sys.exit(f"run.py: {manifest} is missing: nothing to build")
        cmd = ["cargo", "build", "--release", "--offline", "--quiet",
               "--manifest-path", manifest, *extra]
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, cwd=ROOT)
        if done.returncode != 0:
            sys.exit(f"run.py: build failed: {' '.join(cmd)}")


def fs_type(path):
    """Filesystem type of the mount holding `path`."""
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    with open("/proc/self/mounts") as mounts:
        for line in mounts:
            fields = line.split()
            point = fields[1].replace("\\040", " ")
            inside = path == point or path.startswith(point.rstrip("/") + "/")
            if inside and len(point) >= len(best):
                best, kind = point, fields[2]
    return kind


def source_id():
    """The git commit when there is one, else a hash of the sources."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        if done.returncode == 0:
            return done.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "src", "crates", "shims", "perfbench"):
        base = os.path.join(ROOT, top)
        paths = [base] if os.path.isfile(base) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(base) for f in fs)
        for p in paths:
            digest.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                digest.update(f.read())
    return "sha256:" + digest.hexdigest()


def host(work_dir):
    rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "wal_fs": fs_type(work_dir),
        "kernel": platform.release(),
        "rustc": rustc.stdout.strip(),
        "source": source_id(),
    }


def combine(parts):
    """One measurement from the processes of a run: operation counts
    summed, each metric the median of its values."""
    names = set(parts[0]["metrics"])
    if any(set(p["metrics"]) != names for p in parts):
        sys.exit("run.py: the processes of a run measured different metrics")
    return {
        "attempted": sum(p["attempted"] for p in parts),
        "failed": sum(p["failed"] for p in parts),
        "metrics": {n: statistics.median(p["metrics"][n] for p in parts)
                    for n in names},
    }


def result_line(measured, trace):
    """The result object: the measured values checked against the
    metrics BENCHMARK.json declares, each with its declared unit. A
    per-layer metric the workload did not measure is a layer it
    bypasses and reads 0; a missing end-to-end metric, an undeclared
    name or a value that is not finite exits without a result."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = spec["per_layer" if trace else "end_to_end"]
    values = measured["metrics"]
    names = {m["name"] for m in declared}
    for name in values:
        if name not in names:
            sys.exit(f"run.py: metric `{name}` is not declared")
    if measured["attempted"] < 1:
        sys.exit("run.py: no operation was attempted")
    metrics = {}
    for m in declared:
        if m["name"] in values:
            value = values[m["name"]]
        elif trace:
            value = 0.0
        else:
            sys.exit(f"run.py: end-to-end metric `{m['name']}` was not measured")
        if not math.isfinite(value):
            sys.exit(f"run.py: metric `{m['name']}` is not finite: {value}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return {"correct": True, "attempted": measured["attempted"],
            "failed": measured["failed"], "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                 os.path.join(ROOT, ".bench_build"))
    build(target_dir)

    # Relative to the repository root, so the server's socket path
    # stays short.
    work_dir = os.path.join(".perfbench_run", str(os.getpid()))
    os.makedirs(os.path.join(ROOT, work_dir), exist_ok=True)
    processes = PROCESSES[args.workload]
    parts = []
    try:
        for _ in range(processes):
            done = subprocess.run(
                [os.path.join(target_dir, "release", "perfbench"),
                 "--workload", args.workload, "--seed", str(args.seed),
                 "--seconds", repr(args.seconds / processes),
                 "--trace", str(args.trace),
                 "--serve-bin", os.path.join(target_dir, "release", "riot-serve"),
                 "--work-dir", work_dir],
                cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                sys.exit(done.returncode or 1)
            parts.append(json.loads(lines[-1]))
        info = host(os.path.join(ROOT, work_dir))
    finally:
        shutil.rmtree(os.path.join(ROOT, work_dir), ignore_errors=True)
        try:
            os.rmdir(os.path.join(ROOT, ".perfbench_run"))
        except OSError:
            pass
    result = result_line(combine(parts), args.trace)
    print(json.dumps({"host": info}))
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
