#!/usr/bin/env python3
"""Tiny-size smoke runs of every campaign workload, so a broken benchmark
shows up before anyone measures with it. Run from the repository root:

    python3 -m unittest campaign_bench/test_smoke.py

Each run builds the benchmark binary if needed (the first one takes a few minutes).
"""

import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(RUN), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=900)


class SmokeTest(unittest.TestCase):
    def check_result(self, done, trace):
        self.assertEqual(done.returncode, 0, done.stderr[-3000:])
        result = json.loads(done.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], done.stderr[-3000:])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        key = "per_layer" if trace else "end_to_end"
        self.assertEqual(set(result["metrics"]),
                         {m["name"] for m in SPEC[key]})
        return result["metrics"]

    def test_every_workload_tiny(self):
        for workload in (w["name"] for w in SPEC["workloads"]):
            for trace in ("0", "1"):
                with self.subTest(workload=workload, trace=trace):
                    done = run("--workload", workload, "--seed", "7",
                               "--seconds", "1", "--trace", trace,
                               "--scale", "tiny")
                    metrics = self.check_result(done, trace == "1")
                    if trace == "0":
                        for m in SPEC["end_to_end"]:
                            self.assertGreater(metrics[m["name"]]["value"], 0)
                    else:
                        gap = metrics["trace.gap_frac"]["value"]
                        self.assertGreaterEqual(gap, 0)
                        self.assertLess(gap, 0.1)

    def test_unknown_workload_is_refused(self):
        done = run("--workload", "nope", "--seed", "1", "--seconds", "1",
                   "--trace", "0")
        self.assertNotEqual(done.returncode, 0)

    def test_without_simulator_sources_fails_without_result(self):
        bare = ROOT / ".bench_build" / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        try:
            done = subprocess.run(
                [sys.executable, str(bare / HERE.name / "run.py"),
                 "--workload", "fixed_fe_steady", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180,
                env={k: v for k, v in os.environ.items()
                     if k != "CARGO_TARGET_DIR"})
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"correct"', done.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
