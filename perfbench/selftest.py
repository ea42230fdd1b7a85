#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes, a few seconds in all.

    python3 perfbench/selftest.py

Every workload runs once untraced and once traced. Each must print exactly
the metrics BENCHMARK.json names, each with its unit, and no job may fail.
"""
from __future__ import annotations

import argparse
import io
import json
import unittest
from contextlib import redirect_stdout

import run


def _measure(workload: str, trace: int) -> dict:
    args = argparse.Namespace(workload=workload, seed=0, seconds=0.2, trace=trace)
    with redirect_stdout(io.StringIO()):
        return run.measure(args, size="tiny")


class BenchmarkSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls) -> None:
        run._load_library()
        cls.spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())

    def test_workload_names(self) -> None:
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         list(run.WORKLOAD_NAMES))

    def _check(self, trace: int, section: str) -> None:
        expected = {m["name"]: m["unit"] for m in self.spec[section]}
        for workload in run.WORKLOAD_NAMES:
            with self.subTest(workload=workload):
                result = _measure(workload, trace)
                self.assertEqual(sorted(result),
                                 ["attempted", "correct", "failed", "metrics"])
                printed = {k: m["unit"] for k, m in result["metrics"].items()}
                self.assertEqual(printed, expected)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                self.assertTrue(result["correct"])

    def test_end_to_end_metrics(self) -> None:
        self._check(0, "end_to_end")

    def test_per_layer_metrics(self) -> None:
        self._check(1, "per_layer")


if __name__ == "__main__":
    unittest.main()
