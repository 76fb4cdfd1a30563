"""Smoke test of the benchmark at a tiny size.

    python3 bench/selftest.py

Runs every workload of run.py (including ones BENCHMARK.json does not
gate) with and without tracing at the self-test size, and checks the
result contract, the per-layer "no work" predictions, that the generators
are deterministic in the seed, and that the benchmark refuses to run in a
directory holding only BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import filecmp
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
import run  # noqa: E402

# Layers a workload's focus must not touch.
IDLE = {
    "ml1m-train": ("evaluation.", "explain.", "baselines."),
    "ml1m-rank": ("training.", "model.gradients.", "model.corrupt."),
}


def bench_run(workload, trace, cwd=ROOT):
    argv = [sys.executable, str(Path(cwd) / "bench" / "run.py"), "--workload", workload,
            "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=600)


def check_result(workload, trace, spec):
    proc = bench_run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
    kind = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in spec[kind]}
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == expected, sorted(metrics)
    assert all(math.isfinite(v["value"]) for v in metrics.values()), metrics
    if trace:
        for prefix in IDLE.get(workload, ()):
            busy = {k: v["value"] for k, v in metrics.items()
                    if k.startswith(prefix) and v["value"]}
            assert not busy, f"{workload}: expected no {prefix}* work, got {busy}"
    elif workload in {w["name"] for w in spec["workloads"]}:
        zero = [k for k, v in metrics.items() if v["value"] == 0]
        assert not zero, f"{workload}: zero end-to-end metrics {zero}"
    print(f"ok  {workload} trace={trace}: {result['attempted']} checks")


def check_generators(scratch):
    shapes = {"movielens": run.WORKLOADS["ml1m-train"].tiny,
              "amazon": run.WORKLOADS["amazon-wide"].tiny}
    for kind, shape in shapes.items():
        write = getattr(gen, f"write_{kind}")
        paths = [scratch / f"{kind}-{i}" for i in range(3)]
        for path, seed in zip(paths, (5, 5, 6)):
            write(str(path), shape, seed)
        assert filecmp.cmp(paths[0], paths[1], shallow=False), f"{kind}: not deterministic"
        assert not filecmp.cmp(paths[0], paths[2], shallow=False), f"{kind}: seed ignored"
    print("ok  generators are deterministic in the seed")


def check_bare_directory(scratch):
    bare = scratch / "bare"
    shutil.copytree(BENCH, bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = bench_run("ml1m-rank", 0, cwd=bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    print("ok  refuses to run without the sources")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    scratch = ROOT / ".bench_work" / "selftest"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    check_generators(scratch)
    check_bare_directory(scratch)
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            check_result(workload, trace, spec)
    shutil.rmtree(scratch)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
