"""The benchmark's self-test still runs against the library.

The traced half wraps library functions by name and checks CLI exit codes,
so renaming a traced function or changing an exit code fails here. The
untraced half computes the end-to-end metrics that the benchmark gates on.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_per_layer_selftest():
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py", "BenchmarkSelfTest.test_per_layer_metrics"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_perfbench_end_to_end_selftest():
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py", "BenchmarkSelfTest.test_end_to_end_metrics"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
