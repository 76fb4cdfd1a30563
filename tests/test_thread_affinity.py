"""Every public amarec function runs on the thread that called into amarec,
and amarec starts no thread of its own.

``bench/tracing.py`` wraps every public function of amarec's modules and
keeps one span stack, so a public function called from another thread would
nest its span under the wrong parent and corrupt the per-layer self times.
This test wraps the same functions the way that tracer does, rebinding each
in every module that imported it, records the thread of every call, and runs
the commands that reach training, scoring and explanation.
"""

import importlib
import inspect
import pkgutil
import threading

import amarec
from amarec import cli
from conftest import synthetic_events, write_movielens_file


def record_threads(monkeypatch):
    """Route every public function of amarec's modules through a wrapper that
    appends (name, thread ident) to the returned list."""
    calls = []
    modules = [importlib.import_module(f"amarec.{info.name}")
               for info in pkgutil.iter_modules(amarec.__path__)]
    for mod in modules:
        for attr, fn in list(vars(mod).items()):
            if (attr.startswith("_") or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__):
                continue

            def wrapped(*args, _fn=fn, _name=f"{mod.__name__}.{attr}", **kwargs):
                calls.append((_name, threading.get_ident()))
                return _fn(*args, **kwargs)

            for holder in (amarec, *modules):
                for key, value in list(vars(holder).items()):
                    if value is fn:
                        monkeypatch.setattr(holder, key, wrapped)
    return calls


def test_public_functions_run_on_the_calling_thread(tmp_path, monkeypatch):
    ratings, data = tmp_path / "ratings.dat", tmp_path / "data"
    write_movielens_file(ratings, synthetic_events(m=80, n=60, per_user=15, seed=3))
    calls = record_threads(monkeypatch)
    small = ["--set", "h=4", "--set", "d=2", "--set", "kappa=2", "--set", "gamma=3",
             "--set", "epochs=1"]
    assert cli.main(["prep", "--input", str(ratings), "--format", "movielens-dat",
                     "--threshold", "2", "--out", str(data)]) == 0
    # batches of 20 users run inside one chunk; a batch of 80 spans three
    for batch in (20, 80):
        assert cli.main(["train", "--data", str(data), *small, "--set",
                         f"batch_size={batch}", "--out", str(tmp_path / "m.bin")]) == 0
    # training left no thread of amarec's behind
    assert [t.name for t in threading.enumerate() if t.name.startswith("amarec")] == []
    caller = threading.get_ident()
    for argv in (["evaluate", "--out", str(tmp_path / "report.json")],
                 ["explain", "--histogram", "--out", str(tmp_path / "hist.csv")],
                 ["explain", "--user", "u000", "--out", str(tmp_path / "user.json")]):
        before = len(calls)
        assert cli.main([*argv, "--data", str(data), "--model", str(tmp_path / "m.bin"),
                         *small]) == 0
        # each scoring command runs every stage of the forward pass itself,
        # on this thread: a path that skipped a traced stage would fail here
        stages = {name for name, ident in calls[before:] if ident == caller}
        assert {"amarec.model.attend", "amarec.model.encode",
                "amarec.model.decode_maxout"} <= stages, argv

    names = {name for name, _ in calls}
    assert {"amarec.model.batch_gradients", "amarec.model.encode", "amarec.model.attend",
            "amarec.model.decode_maxout", "amarec.evaluation.evaluate",
            "amarec.explain.mode_usage", "amarec.explain.explain_user"} <= names
    assert sorted({name for name, ident in calls if ident != caller}) == []
