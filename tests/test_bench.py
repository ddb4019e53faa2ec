"""The benchmark's output checks pass this checkout's outputs and reject corrupted copies."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_bench_selftest_passes():
    # one op of each workload through the CLI, then the checks against corruptions;
    # a change that breaks an output the benchmark checks fails here first
    pytest.importorskip("scipy")  # the refine op's exact sparse solve
    result = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "selftest.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout.endswith("self-test passed\n")
