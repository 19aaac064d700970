#!/usr/bin/env python3
"""Tiny-size smoke run of the benchmark.

    python3 perfbench/test_smoke.py

Builds rush_perfbench like run.py does, runs every workload with --tiny in
both modes, and checks that each run passes every correctness check and
emits every metric BENCHMARK.json names, with its unit and sample count.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (perfbench/run.py: the build step)

WORKLOADS = ["rushd-dense", "rushd-churn", "sim-fair"]
# Reported on the detail line only: a metric that reads 0 on valid traffic
# cannot carry a relative bound, so the result line reports it as `failed`.
DETAIL_ONLY = {"error_frac": "frac"}
# Layers the simulator workload never enters (it runs no planner).
PLANNER_PASS_COUNTS = ["core.plans_per_wave", "tas.peel_probes_per_pass",
                       "robust.wcde_batch_rows_per_pass", "tas.layers_replayed_per_pass"]


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as spec:
            cls.spec = json.load(spec)
        cls.binary = run.build()
        cls.workdir = tempfile.mkdtemp(dir=run.build_dir())

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.workdir, ignore_errors=True)

    def run_tiny(self, workload, trace):
        result = subprocess.run(
            [self.binary, "--workload", workload, "--seed", "7", "--seconds", "0.2",
             "--trace", str(trace), "--tiny", "--workdir", self.workdir],
            capture_output=True, text=True, timeout=300, check=False)
        self.assertEqual(result.returncode, 0, result.stderr)
        lines = result.stdout.strip().splitlines()
        return json.loads(lines[-2]), json.loads(lines[-1])

    def check_run(self, workload, trace, names):
        detail, final = self.run_tiny(workload, trace)
        self.assertEqual(set(final), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(final["correct"], detail["checks"])
        self.assertTrue(all(detail["checks"].values()), detail["checks"])
        self.assertGreaterEqual(final["attempted"], 1)
        self.assertEqual(final["failed"], 0)
        self.assertEqual(set(final["metrics"]), set(names))
        for name, unit in names.items():
            self.assertEqual(final["metrics"][name]["unit"], unit, name)
            self.assertEqual(detail["metrics"][name]["unit"], unit, name)
            self.assertIn("samples", detail["metrics"][name], name)
        return detail, final

    def test_end_to_end(self):
        names = {m["name"]: m["unit"] for m in self.spec["end_to_end"]}
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                detail, final = self.check_run(workload, 0, names)
                for name, unit in DETAIL_ONLY.items():
                    self.assertEqual(detail["metrics"][name]["unit"], unit)
                    self.assertEqual(detail["metrics"][name]["value"], 0)
                for name in names:
                    self.assertGreater(final["metrics"][name]["value"], 0, name)
                self.assertIn("digest", detail["info"])

    def test_per_layer(self):
        names = {m["name"]: m["unit"] for m in self.spec["per_layer"]}
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                detail, final = self.check_run(workload, 1, names)
                metrics = final["metrics"]
                self.assertEqual(detail["workload"], workload)
                if workload == "sim-fair":
                    for name in PLANNER_PASS_COUNTS:
                        self.assertEqual(metrics[name]["value"], 0, name)
                    self.assertGreater(metrics["baselines.assign_us.p50"]["value"], 0)
                else:
                    self.assertGreater(metrics["core.plans_per_wave"]["value"], 0)
                    self.assertGreater(metrics["daemon.handle_us.p50"]["value"], 0)


if __name__ == "__main__":
    unittest.main()
