#!/usr/bin/env python3
"""Self-test of the benchmark in its small-size mode.

    python3 perfbench/test_small.py

Runs every workload of BENCHMARK.json with --small, untraced and traced,
and checks that each run prints every metric named in BENCHMARK.json with
its unit, that every answer passed the response checker (failed_frac 0),
that the cache tiers behave as each workload intends, and that the
deterministic quality metrics repeat at the same seed.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 7


def run(workload, trace, seed=SEED):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "2", "--trace", str(trace), "--small"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode:
        raise AssertionError(f"{workload} trace {trace}: exit {done.returncode}\n"
                             + done.stderr[-3000:])
    return json.loads(done.stdout.strip().splitlines()[-1])


class SmallRuns(unittest.TestCase):
    def check_run(self, result, metrics):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        want = {m["name"]: m["unit"] for m in metrics}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, want)

    def test_every_workload_emits_every_metric(self):
        for workload in (w["name"] for w in CONFIG["workloads"]):
            with self.subTest(workload=workload):
                untraced = run(workload, 0)
                self.check_run(untraced, CONFIG["end_to_end"])
                for name, metric in untraced["metrics"].items():
                    self.assertGreater(metric["value"], 0, name)

                traced = run(workload, 1)
                self.check_run(traced, CONFIG["per_layer"])
                layer = {k: m["value"] for k, m in traced["metrics"].items()}
                self.assertEqual(layer["failed_frac"], 0)
                hit = 1.0 if workload == "warm-router-hits" else 0.0
                self.assertEqual(layer["cache.result_hit_ratio"], hit)

                again = run(workload, 0)
                for name in ("swaps_total", "depth_ratio"):
                    self.assertEqual(again["metrics"][name],
                                     untraced["metrics"][name])

    def test_unknown_workload_prints_no_result(self):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", "nope",
               "--seed", "1", "--seconds", "1", "--trace", "0"]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=900)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main()
