#!/usr/bin/env python3
"""Small-scale self-test of the end-to-end benchmark.

Run from the root of a scoded checkout:

    python3 e2ebench/tests/selftest.py

Runs every workload of BENCHMARK.json at 5% of its size, timed and traced,
and asserts that each run prints every metric BENCHMARK.json names with its
unit, that every operation passed its output check (ok_ops_frac = 1) and
that each workload is in the regime it exists to exercise. Timings at this
scale mean nothing; only names, units and checks are tested.
"""

import json
import os
import subprocess
import sys
import unittest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
    SPEC = json.load(spec_file)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace):
    command = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
               "--seed", "7", "--seconds", "1", "--trace", str(trace), "--scale", "0.05"]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise AssertionError("%s exited %d:\n%s" % (" ".join(command), proc.returncode,
                                                    proc.stderr[-3000:]))
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), proc.stdout


class SelfTest(unittest.TestCase):
    def check_result(self, result, expected):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in expected})
        for metric in expected:
            printed = result["metrics"][metric["name"]]
            self.assertEqual(printed["unit"], metric["unit"], metric["name"])
            self.assertIsInstance(printed["value"], (int, float), metric["name"])

    def test_timed_runs_print_every_end_to_end_metric(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result, stdout = run(workload, 0)
                self.check_result(result, SPEC["end_to_end"])
                self.assertEqual(result["metrics"]["ok_ops_frac"]["value"], 1.0)
                for metric in SPEC["end_to_end"]:
                    self.assertGreater(result["metrics"][metric["name"]]["value"], 0.0,
                                       metric["name"])
                self.assertIn("host nproc=", stdout)
                self.assertIn("host.steal_frac=", stdout)

    def test_traced_runs_print_every_per_layer_metric(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result, stdout = run(workload, 1)
                self.check_result(result, SPEC["per_layer"])
                self.assertIn("trace coverage below 0.9:", stdout)
                metrics = result["metrics"]
                self.assertEqual(metrics["serve.request_errors"]["value"], 0)
                if workload == "fd_highcard":
                    self.assertGreater(metrics["stats.permutation_fallbacks"]["value"], 0)
                if workload == "tau_numeric":
                    # Continuous τ keeps one summary cell per distinct pair.
                    self.assertGreater(metrics["stats.summary_cells"]["value"], 1000)
                if workload == "gate_tall":
                    self.assertLess(metrics["stats.summary_cells"]["value"], 1000)
                trace = os.path.join(ROOT, ".bench_work", "trace-%s-seed7.json" % workload)
                with open(trace) as trace_file:
                    events = json.load(trace_file)
                lanes = {e["args"]["name"] for e in events if e["ph"] == "M"}
                self.assertTrue({"check_inmem", "drill_kc", "serve"} <= lanes)


if __name__ == "__main__":
    unittest.main()
