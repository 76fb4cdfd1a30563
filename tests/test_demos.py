"""Each narrative walkthrough under demos/, and the README's library tour,
runs to completion."""

import ast
import importlib
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from amarec import AmaConfig, embed_items
from test_model import random_params

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_exits_0(demo):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_readme_library_tour_runs(tiny_split):
    # the first python block is the API sketch, which needs ML-1M and 300
    # epochs: its imports run, and a tiny split with a drawn model stands in
    # for the rest. Every later block runs as written, so none can drift.
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    sketch, *tour = re.findall(r"```python\n(.*?)```", readme, re.S)
    assert len(tour) >= 3
    ns = {}
    exec(sketch.split("\n\n")[0], ns)
    cfg = AmaConfig(h=4, d=2, kappa=2)
    ns.update(data=tiny_split, cfg=cfg, V=embed_items(tiny_split.train, AmaConfig(h=4, gamma=2)),
              params=random_params(tiny_split.shape[1], cfg, seed=1))
    for block in tour:
        exec(compile(block, "README.md", "exec"), ns)
    assert ns["scores"].shape == ns["mode_of"].shape == (3, tiny_split.shape[1])
    assert np.array_equal(ns["per_mode"].max(axis=1), ns["scores"])


def test_readme_api_sketch_calls_bind_to_the_library():
    # the sketch runs only its imports (above), so each call of a name it
    # imports from amarec must at least bind to that callable's signature
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    sketch = re.findall(r"```python\n(.*?)```", readme, re.S)[0]
    offset = readme[:readme.index(sketch)].count("\n")
    tree = ast.parse(sketch)
    imported = {alias.asname or alias.name:
                getattr(importlib.import_module(node.module), alias.name)
                for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "amarec"
                for alias in node.names}
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name) and node.func.id in imported]
    assert len(calls) >= 9
    for call in calls:
        where = f"README.md:{offset + call.lineno}: {ast.unparse(call)}"
        assert not any(isinstance(a, ast.Starred) for a in call.args), where
        assert all(k.arg for k in call.keywords), where
        try:
            inspect.signature(imported[call.func.id]).bind(
                *call.args, **{k.arg: k.value for k in call.keywords})
        except TypeError as exc:
            pytest.fail(f"{where}: {exc}")
