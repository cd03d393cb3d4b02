#!/usr/bin/env python3
"""Builds the opentla end-to-end benchmark from source and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ag_proof --seed 1 --seconds 30 --trace 0

The library (src/) and the benchmark binary (perfbench/*.cpp) are built with
CMake in RelWithDebInfo into the directory named by CARGO_TARGET_DIR (default
.bench_build); build output goes to stderr. The binary's stdout is passed
through, and its last line is the JSON result. With --trace 1 the traced
pass's spans are also written to <build dir>/spans-<workload>-<seed>.json.
--workload all runs the three workloads one after another, each printing its
own summary and result line. Exits non-zero, printing no result, when the
build or a run fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
WORKLOADS = ["ag_proof", "closed_build", "wide_explore"]


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", build_dir, "-j", jobs, "--target", "opentla_perfbench"],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            print("perfbench: build step failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def run_workload(build_dir, workload, args):
    cmd = [os.path.join(build_dir, "opentla_perfbench"),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        cmd += ["--spans-out",
                os.path.join(build_dir, "spans-%s-%d.json" % (workload, args.seed))]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print("perfbench: %s timed out" % workload, file=sys.stderr)
        return False
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        print("perfbench: benchmark binary exited with %d" % done.returncode,
              file=sys.stderr)
        return False
    try:
        result = json.loads(done.stdout.rstrip("\n").split("\n")[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stderr.write(done.stdout)
        print("perfbench: benchmark binary printed no result line", file=sys.stderr)
        return False
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        if not build(build_dir):
            return 1
    except subprocess.TimeoutExpired:
        print("perfbench: build timed out", file=sys.stderr)
        return 1
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        if not run_workload(build_dir, workload, args):
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
