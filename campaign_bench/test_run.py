#!/usr/bin/env python3
"""The campaign benchmark's own test: a tiny-size run of every workload,
untraced and traced, whose machine-readable last line must parse and carry
every metric BENCHMARK.json names, each with its unit.

Run from the repository root (builds into .bench_build/ on first use):

    python3 campaign_bench/test_run.py
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (the benchmark's metric tables)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny_run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "campaign_bench" / "run.py"),
         "--workload", workload, "--seed", "1", "--seconds", "1",
         "--trace", str(trace), "--tiny"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    return proc.returncode, proc.stdout.strip().splitlines()


class TinyRunTest(unittest.TestCase):
    def test_metric_tables_match_benchmark_json(self):
        self.assertEqual({m["name"]: m["unit"] for m in SPEC["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in SPEC["per_layer"]},
                         run.PER_LAYER)
        self.assertEqual([w["name"] for w in SPEC["workloads"]],
                         list(run.WORKLOADS))

    def check(self, workload, trace, section):
        rc, lines = tiny_run(workload, trace)
        self.assertEqual(rc, 0, "\n".join(lines[-20:]))
        result = json.loads(lines[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertIsInstance(result["attempted"], int)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        expected = {m["name"]: m["unit"] for m in SPEC[section]}
        self.assertEqual(set(result["metrics"]), set(expected))
        for name, unit in expected.items():
            metric = result["metrics"][name]
            self.assertEqual(metric["unit"], unit, name)
            self.assertIsInstance(metric["value"], (int, float), name)
        # Human-readable lines name every metric with its unit too.
        text = "\n".join(lines[:-1])
        for name, unit in expected.items():
            self.assertRegex(text, rf"\b{name}\s+\S+ {unit}\b")

    def test_every_workload_untraced(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                self.check(w, 0, "end_to_end")

    def test_every_workload_traced(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                self.check(w, 1, "per_layer")


if __name__ == "__main__":
    unittest.main()
