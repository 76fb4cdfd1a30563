"""Per-layer tracing for the benchmark.

``installed(tracer)`` wraps every public function of amarec's layer modules
and rebinds the name in every amarec module that imported it, so a call
made through ``amarec.training.gradients`` is traced as ``model.gradients``
just like one made through ``amarec.model.gradients``. Each call records a
span (name, start, end, parent, run id) in memory; self time is a span's
duration minus the time its child spans cover. Counters are taken at the
same boundaries by the hooks below.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import time
from array import array
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("dataset", "linalg", "model", "training", "baselines", "evaluation",
          "explain", "cli")
METRIC_FUNCTIONS = ("evaluation.precision_at_k", "evaluation.recall_at_k",
                    "evaluation.map_at_k", "evaluation.r_precision",
                    "evaluation.ndcg")


class Tracer:
    """Spans and counters, kept in memory until ``save``."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.span_run = array("i")
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.run_id = 0
        self.run_labels = []
        self._stack = []       # [span index, seconds covered by children]
        self.active = Counter()
        self.reset()

    def reset(self):
        """Start a new aggregation window; recorded spans are kept."""
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()

    def new_run(self, label):
        """Spans recorded from now on share a new run id."""
        self.run_id = len(self.run_labels)
        self.run_labels.append(label)

    def count(self, name, k=1):
        self.counts[name] += k

    def wrap(self, name, fn, hook=None):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        name_id = self._name_ids[name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.span_start)
            self.span_run.append(self.run_id)
            self.span_name.append(name_id)
            self.span_parent.append(self._stack[-1][0] if self._stack else -1)
            self.span_end.append(float("nan"))
            self._stack.append([idx, 0.0])
            self.active[name] += 1
            start = time.perf_counter()
            self.span_start.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                _, covered = self._stack.pop()
                self.active[name] -= 1
                self.span_end[idx] = end
                self.self_s[name] += (end - start) - covered
                self.calls[name] += 1
                if self._stack:
                    self._stack[-1][1] += end - start
            return hook(self, args, result) if hook else result

        return traced

    def window(self):
        """The current aggregation window as plain dicts."""
        return {"self_s": dict(self.self_s), "calls": dict(self.calls),
                "counts": dict(self.counts)}

    def save(self, path, meta):
        np.savez_compressed(
            path, names=np.array(self.names), run_labels=np.array(self.run_labels),
            run=np.frombuffer(self.span_run, dtype=np.int32),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            start=np.frombuffer(self.span_start), end=np.frombuffer(self.span_end),
            meta=np.array(repr(meta)),
        )


def _scorer_hook(score_name):
    def hook(tracer, args, score):
        return tracer.wrap(score_name, score)
    return hook


def _count_len(counter):
    def hook(tracer, args, result):
        tracer.count(counter, len(result))
        return result
    return hook


def _split_hook(tracer, args, data):
    tracer.count("dataset.train_nnz", int(data.train.nnz))
    return data


def _corrupt_hook(tracer, args, mask):
    if tracer.active["training.train"] and mask.size == 0:
        tracer.count("training.users_skipped")
    return mask


def _gradients_hook(tracer, args, grads):
    if tracer.active["training.train"]:
        tracer.count("training.users_used")
    return grads


def _keys_values_hook(tracer, args, kv):
    if tracer.active["training.train"]:
        tracer.count("model.keys_values.in_train")
    return kv


def _step_hook(tracer, args, params):
    tracer.count("training.steps")
    return params


def _evaluate_hook(tracer, args, report):
    users = args[1].shape[0]
    tracer.count("evaluation.users_ranked", report.num_users)
    tracer.count("evaluation.users_skipped", users - report.num_users)
    return report


HOOKS = {
    "dataset.parse_ratings": _count_len("dataset.events_parsed"),
    "dataset.binarize": _count_len("dataset.events_kept"),
    "dataset.temporal_split": _split_hook,
    "model.corrupt": _corrupt_hook,
    "model.gradients": _gradients_hook,
    "model.keys_values": _keys_values_hook,
    "training.adam_step": _step_hook,
    "training.sgd_step": _step_hook,
    "evaluation.evaluate": _evaluate_hook,
    "baselines.ama_scorer": _scorer_hook("baselines.ama_score"),
    "baselines.pop_scorer": _scorer_hook("baselines.pop_score"),
    "baselines.puresvd_scorer": _scorer_hook("baselines.puresvd_score"),
}


def span_name(layer, attr):
    # CLI subcommands are named after the command: cli.cmd_train -> cli.train.
    if layer == "cli" and attr.startswith("cmd_"):
        return f"cli.{attr[4:]}"
    return f"{layer}.{attr}"


@contextlib.contextmanager
def installed(tracer):
    """Route every public layer function through ``tracer`` until exit."""
    package = importlib.import_module("amarec")
    modules = {layer: importlib.import_module(f"amarec.{layer}") for layer in LAYERS}
    bindings = [package, *modules.values()]
    undo = []
    try:
        for layer, mod in modules.items():
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                name = span_name(layer, attr)
                wrapped = tracer.wrap(name, fn, HOOKS.get(name))
                for holder in bindings:
                    for key, value in list(vars(holder).items()):
                        if value is fn:
                            setattr(holder, key, wrapped)
                            undo.append((holder, key, fn))
        yield tracer
    finally:
        for holder, key, fn in reversed(undo):
            setattr(holder, key, fn)


def layer_value(name, window):
    """Value of one per-layer metric from an aggregation window."""
    self_s, calls, counts = window["self_s"], window["calls"], window["counts"]
    if name == "evaluation.metrics.s":
        return sum(self_s.get(f, 0.0) for f in METRIC_FUNCTIONS)
    if name == "model.keys_values.calls_per_step":
        steps = counts.get("training.steps", 0)
        return counts.get("model.keys_values.in_train", 0) / steps if steps else 0.0
    span, _, stat = name.rpartition(".")
    if stat in ("s", "self_s"):
        return self_s.get(span, 0.0)
    if stat == "calls":
        return calls.get(span, 0)
    return counts.get(name, 0)
