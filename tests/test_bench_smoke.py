"""Smoke run of the benchmark at its self-test size: its own output checks
(exit codes, report ranges, a repeating objective, the explain reports and a
reference forward pass for explain --user) must all pass."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_tiny(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", trace, "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, result


@pytest.mark.parametrize("workload", ["ml1m-train", "ml1m-rank"])
def test_bench_tiny_run_is_correct(workload):
    run_tiny(workload, "0")


@pytest.mark.parametrize("workload", ["ml1m-train", "ml1m-rank"])
def test_bench_tiny_traced_run_is_correct(workload):
    """The same checks with the tracer's wrappers and hooks around amarec."""
    run_tiny(workload, "1")
