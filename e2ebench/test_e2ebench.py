#!/usr/bin/env python3
"""Self-tests of the e2ebench benchmark, run at tiny sizes (about a minute):

    python3 e2ebench/test_e2ebench.py

- every workload, untraced and traced, prints exactly the metrics that
  BENCHMARK.json lists, each with its unit, and verifies all its outputs;
- a deliberately corrupted reference value makes the run fail, with failed
  points reported and ok_share below 1, and trips the traced half's own
  check in a traced run;
- outside a full checkout the benchmark exits non-zero without a result.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("point_stream", "bulk_frames", "offline_surrogate")


def run(*extra, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    p = subprocess.run([sys.executable, script, *extra], cwd=cwd,
                       capture_output=True, text=True, timeout=900)
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return p, result


def tiny(workload, trace, *extra):
    return run("--workload", workload, "--seed", "7", "--seconds", "1",
               "--trace", trace, "--tiny", *extra)


class E2eBench(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def check_metrics(self, result, family):
        want = {m["name"]: m["unit"] for m in self.spec[family]}
        got = result["metrics"]
        self.assertEqual(list(got), list(want))
        for name, m in got.items():
            self.assertEqual(set(m), {"value", "unit"}, name)
            self.assertEqual(m["unit"], want[name], name)
            self.assertIsInstance(m["value"], (int, float), name)

    def test_every_metric_emitted_with_its_unit(self):
        for workload in WORKLOADS:
            for trace, family in (("0", "end_to_end"), ("1", "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    p, result = tiny(workload, trace)
                    self.assertEqual(p.returncode, 0, p.stderr[-2000:])
                    self.assertEqual(set(result),
                                     {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    self.check_metrics(result, family)
                    if family == "end_to_end":
                        for name, m in result["metrics"].items():
                            self.assertGreater(m["value"], 0, name)

    def test_corrupted_reference_fails_the_run(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                p, result = tiny(workload, "0", "--corrupt-reference")
                self.assertEqual(p.returncode, 1, p.stderr[-2000:])
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)
                self.assertLess(result["metrics"]["ok_share"]["value"], 1)

    def test_corrupted_reference_fails_the_traced_half(self):
        # The traced half checks its own answers: its message must appear
        # beside the untraced half's failure.
        traced_check = {
            "point_stream": "traced net answers differ from evaluate_span",
            "bulk_frames": "traced net answers differ from evaluate_span",
            "offline_surrogate": "traced evaluation differs from evaluate_span",
        }
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                p, result = tiny(workload, "1", "--corrupt-reference")
                self.assertEqual(p.returncode, 1, p.stderr[-2000:])
                self.assertFalse(result["correct"])
                self.assertIn(traced_check[workload], p.stderr)

    def test_refuses_to_run_without_the_sources(self):
        alone = os.path.join(ROOT, ".bench_build", "test_alone")
        shutil.rmtree(alone, ignore_errors=True)
        os.makedirs(alone)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), alone)
            shutil.copytree(HERE, os.path.join(alone, "e2ebench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            p, result = run("--workload", "bulk_frames", "--seed", "1",
                            "--seconds", "1", "--trace", "0", cwd=alone,
                            script=os.path.join(alone, "e2ebench", "run.py"))
            self.assertNotEqual(p.returncode, 0)
            self.assertIsNone(result)
        finally:
            shutil.rmtree(alone, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
