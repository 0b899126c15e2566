#!/usr/bin/env python3
"""Builds the fleet benchmark from source and runs one workload.

    python3 fleetbench/run.py --workload serve_tiny --seed 1 --seconds 30 \
        --trace 0

Run from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build) under fleetbench/; traced runs write their spans to
traces/<workload>-seed<n>.json there. The benchmark's last stdout line is the
result JSON; build output goes to stderr. Exits non-zero, without a result,
when the build fails.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", HERE, "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", build_dir, "--target", "fleetbench",
              "-j", jobs]]
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                timeout=BUILD_TIMEOUT_S)
        if result.returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = os.path.join(root, "fleetbench")
    if not build(build_dir):
        print("fleetbench: build failed", file=sys.stderr)
        return 2

    command = [os.path.join(build_dir, "fleetbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    with subprocess.Popen(command) as child:
        try:
            return child.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
            print("fleetbench: run timed out", file=sys.stderr)
            return 3


if __name__ == "__main__":
    sys.exit(main())
