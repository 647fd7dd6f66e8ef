#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

Runs every workload at the tiny size through perfbench/run.py (building the
binary first if needed) and checks that each run exits 0 and emits every
metric BENCHMARK.json names, that a corrupted oracle is counted as failed
operations, and that a tree holding only the benchmark refuses to run.
"""
import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("olap-large", "serve-small", "ycsb-write")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(workload, trace, *extra, cwd=ROOT, env=None):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "2",
           "--trace", str(trace), "--size", "tiny", *extra]
    return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=900)


def result_of(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


class TinyRuns(unittest.TestCase):
    def check_metrics(self, workload, trace, section):
        proc = run(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        result = result_of(proc)
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"], proc.stderr[-2000:])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        want = {m["name"]: m["unit"] for m in SPEC[section]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, want)
        for name, metric in result["metrics"].items():
            self.assertIsInstance(metric["value"], (int, float), name)
        if section == "end_to_end":
            for name, metric in result["metrics"].items():
                self.assertGreater(metric["value"], 0, f"{workload} {name}")
        env = json.loads(proc.stdout.strip().splitlines()[0])["env"]
        for key in ("nproc", "load1_before", "load1_after", "simd",
                    "perf_valid", "compiler", "build_type", "seed"):
            self.assertIn(key, env)
        return result

    def test_end_to_end_metrics(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check_metrics(workload, 0, "end_to_end")

    def test_per_layer_metrics(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result = self.check_metrics(workload, 1, "per_layer")
                self.assertGreater(result["metrics"]["trace.spans"]["value"], 0)
        # The ladder runs on olap-large; every rung was priced.
        ladder = {k: v["value"] for k, v in result_of(run("olap-large", 1))
                  ["metrics"].items() if k.startswith("ladder.")}
        self.assertTrue(ladder)
        for name, value in ladder.items():
            self.assertGreater(value, 0, name)

    def test_corrupted_oracle_counts_failures(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                proc = run(workload, 0, "--corrupt-oracle")
                self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                result = result_of(proc)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)


class Packaging(unittest.TestCase):
    def test_refuses_without_the_library(self):
        # A tree with only the benchmark's files must fail without a result.
        scratch = os.path.join(ROOT, ".bench_build", "lone-tree")
        shutil.rmtree(scratch, ignore_errors=True)
        os.makedirs(scratch)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), scratch)
            shutil.copytree(HERE, os.path.join(scratch, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
            proc = run("olap-large", 0, cwd=scratch, env=env)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")
        finally:
            shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
