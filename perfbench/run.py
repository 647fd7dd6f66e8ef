#!/usr/bin/env python3
"""Build the repository benchmark from source and run one workload.

    python3 perfbench/run.py --workload olap-large --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  The benchmark binary is built with CMake
into $CARGO_TARGET_DIR (default .bench_build) under the checkout; the build
log lands there too.  Stdout carries the binary's environment stamp, its
sample counts and, as the last line, the result object
{"correct", "attempted", "failed", "metrics"}.  Any build or run failure
exits non-zero without printing a result.

Extra flags for the benchmark's own tests: --size tiny (seconds-long
inputs) and --corrupt-oracle (every oracle perturbed).
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("olap-large", "serve-small", "ycsb-write")
BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build(out_dir):
    """Configure (once) and build; returns the binary path or None."""
    os.makedirs(out_dir, exist_ok=True)
    log_path = os.path.join(out_dir, "build.log")
    steps = []
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as exc:
                log.write(f"\n{exc}\n")
                rc = 1
            if rc != 0:
                break
    if rc != 0:
        with open(log_path) as log:
            sys.stderr.write(log.read()[-4000:])
        sys.stderr.write(f"perfbench: build failed (log: {log_path})\n")
        return None
    return os.path.join(out_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=("full", "tiny"))
    parser.add_argument("--corrupt-oracle", action="store_true")
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        parser.error("seed must be >= 0 and seconds in [1, 600]")

    out_dir = build_dir()
    binary = build(out_dir)
    if binary is None:
        return 1
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size]
    if args.trace:
        cmd += ["--spans", os.path.join(
            out_dir, f"spans-{args.workload}-{args.seed}.json")]
    if args.corrupt_oracle:
        cmd.append("--corrupt-oracle")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"perfbench: run exceeded {RUN_TIMEOUT_S} s\n")
        return 1
    if proc.returncode != 0:
        sys.stderr.write(f"perfbench: exited with {proc.returncode}\n")
        return 1
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write("perfbench: no result line\n")
        return 1
    if set(result) != RESULT_KEYS or not result["metrics"]:
        sys.stderr.write("perfbench: malformed result line\n")
        return 1
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
