#!/usr/bin/env python3
"""Smoke test of the end-to-end benchmark.

Runs every workload of BENCHMARK.json at a tiny size, untraced and traced,
with all output checks on, and asserts that each run passes its checks and
prints every metric BENCHMARK.json names, with its unit. It also runs the
self-test of the output checks and confirms that the benchmark fails,
without printing a result, when the program's sources are missing.

Run from the repository root:

    python3 e2e_bench/tests/test_smoke.py
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
RUN = os.path.join(BENCH, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
    SPEC = json.load(handle)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def run_bench(workload, trace, cwd=ROOT, env=None):
    return subprocess.run(
        [sys.executable, RUN if cwd == ROOT else "e2e_bench/run.py",
         "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=900)


class SmokeTest(unittest.TestCase):
    def check_run(self, workload, trace):
        proc = run_bench(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"], proc.stderr[-2000:])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        specs = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in specs})
        report = lines[:-1]
        for metric in specs:
            name, unit = metric["name"], metric["unit"]
            value = result["metrics"][name]
            self.assertEqual(value["unit"], unit, name)
            self.assertIsInstance(value["value"], (int, float), name)
            if not trace:
                self.assertGreater(value["value"], 0, name)
            printed = [line.split() for line in report]
            self.assertIn([workload, name], [p[:2] for p in printed], name)
            self.assertTrue(any(p[:2] == [workload, name] and p[3] == unit
                                for p in printed), name + " unit")

    def test_every_workload_untraced_and_traced(self):
        for workload in (w["name"] for w in SPEC["workloads"]):
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    self.check_run(workload, trace)

    def test_checks_reject_wrong_references(self):
        out = build_dir()
        build = subprocess.run(
            ["cmake", "--build", out, "--target", "e2e_bench_checks"],
            capture_output=True, text=True)
        if "unknown target" in build.stdout + build.stderr:
            self.skipTest("built without GTest")
        self.assertEqual(build.returncode, 0, build.stdout[-2000:])
        proc = subprocess.run([os.path.join(out, "e2e_bench_checks")],
                              capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stdout[-2000:])

    def test_fails_without_the_program_sources(self):
        lone = os.path.join(build_dir(), "smoke", "lone-checkout")
        shutil.rmtree(lone, ignore_errors=True)
        os.makedirs(lone)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), lone)
        shutil.copytree(BENCH, os.path.join(lone, "e2e_bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ)
        env.pop("CARGO_TARGET_DIR", None)
        try:
            proc = run_bench("batch_mbt", 0, cwd=lone, env=env)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(lone, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
