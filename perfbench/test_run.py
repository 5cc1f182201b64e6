"""The benchmark's own tests: reduced-size (`--quick`) runs of every workload.

Run from the repository root:

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Each test goes through `run.py`, so it also covers the build.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace, *extra, seed=3, cwd=ROOT, env=None):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--quick", *extra]
    return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True, timeout=900)


def result(proc):
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


def units(metrics):
    return {name: m["unit"] for name, m in metrics.items()}


class QuickRuns(unittest.TestCase):
    def test_end_to_end_prints_every_metric_with_its_unit(self):
        want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        for w in WORKLOADS:
            with self.subTest(workload=w):
                r, _ = result(run(w, 0))
                self.assertTrue(r["correct"])
                self.assertEqual(r["failed"], 0)
                self.assertGreaterEqual(r["attempted"], 1)
                self.assertEqual(units(r["metrics"]), want)
                for name, m in r["metrics"].items():
                    self.assertGreater(m["value"], 0, name)

    def test_traced_run_prints_every_layer_metric_and_matches_untraced(self):
        want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        for w in WORKLOADS:
            with self.subTest(workload=w):
                r, out = result(run(w, 1))
                self.assertTrue(r["correct"])
                self.assertEqual(units(r["metrics"]), want)
                digests = re.findall(r"\b[0-9a-f]{16}\b", next(
                    line for line in out.splitlines() if line.startswith("digests:")))
                self.assertGreaterEqual(len(digests), 2)
                self.assertEqual(len(set(digests)), 1, digests)
                self.assertIn("overhead:", out)

    def test_injected_mismatch_counts_as_a_failure(self):
        for w in WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=w, trace=trace):
                    r, _ = result(run(w, trace, "--inject-mismatch"))
                    self.assertFalse(r["correct"])
                    self.assertGreaterEqual(r["failed"], 1)
                    self.assertLessEqual(r["failed"], r["attempted"])

    def test_exact_counters_repeat_for_one_seed(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                a, _ = result(run(w, 1, seed=5))
                b, _ = result(run(w, 1, seed=5))
                counts = [n for n, m in a["metrics"].items() if m["unit"] == "count"]
                self.assertTrue(counts)
                for n in counts:
                    self.assertEqual(a["metrics"][n]["value"], b["metrics"][n]["value"], n)

    def test_fails_without_the_program(self):
        bare = os.path.join(ROOT, ".bench_build", "perfbench-bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy2(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
        try:
            proc = run(WORKLOADS[0], 0, cwd=bare, env=env)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
