"""Smoke run of the benchmark at its self-test size: its own output checks
(exit codes, report ranges, a repeating objective, the explain reports and a
reference forward pass for explain --user) must all pass.

Each run uses a copy of ``bench/``, ``src/`` and ``BENCHMARK.json`` under the
test's temporary directory: ``bench/run.py`` writes its work files and results
next to itself, and a tiny run must not replace a full run's results in the
checkout."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_tiny(workload, trace, copy):
    for name in ("bench", "src"):
        shutil.copytree(ROOT / name, copy / name,
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", copy)
    proc = subprocess.run(
        [sys.executable, str(copy / "bench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", trace, "--tiny"],
        cwd=copy, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, result


@pytest.mark.parametrize("workload", ["ml1m-train", "ml1m-rank"])
def test_bench_tiny_run_is_correct(workload, tmp_path):
    run_tiny(workload, "0", tmp_path)


@pytest.mark.parametrize("workload", ["ml1m-train", "ml1m-rank"])
def test_bench_tiny_traced_run_is_correct(workload, tmp_path):
    """The same checks with the tracer's wrappers and hooks around amarec."""
    run_tiny(workload, "1", tmp_path)
