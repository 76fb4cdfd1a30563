"""amarec benchmark: the real CLI pipeline on seeded rating logs.

    python3 bench/run.py --workload ml1m-train --seed 1 --seconds 40 --trace 0

A run writes its inputs under ``.bench_work/<workload>/``, invokes
``amarec prep``, ``train``, ``evaluate`` and ``explain`` in-process through
``amarec.cli.main(argv)``, checks every output, and prints one JSON object
as the last line of standard output:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
With ``--trace 0`` the metrics are the end-to-end metrics named in
``BENCHMARK.json``; with ``--trace 1`` they are its per-layer metrics.
Each run also writes ``.bench_out/result-<workload>-trace<t>.json`` with
the machine's provenance and derived figures, and a traced run writes its
spans to ``.bench_out/spans-<workload>*.npz``.

Phases of a run:

1. Set-up, in a child process (this script with ``--setup-out``) so that generating and parsing the log do
   not count toward the measured process's peak memory: write the log from
   the seed, run ``prep`` at least five times and for at least two seconds
   (``setup_s`` is the median), write item embeddings with ``embed`` for the
   checks, and for ``ml1m-rank`` a model drawn from the seed.
2. Measurement: repeat ``train``, ``evaluate`` (AMA, POP, PureSVD) and
   ``explain`` (``--histogram``, ``--modes``) for ``--seconds``; timings
   are medians over the repetitions. A traced run instead alternates
   untraced and traced cycles of the workload's focus commands; per-layer
   figures are medians per focus cycle (per ``prep`` for set-up layers),
   so counts repeat exactly.
3. Checks, each counted as one operation (a nonzero exit of a command is a
   failed operation too).

Catalog width and history lengths set per-user cost, so the ML-1M-shaped
workloads keep ML-1M's 3,706-item catalog and history lengths but sample
300 of its 6,040 users, so that a run repeats every command several times
within its time budget.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import struct
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, replace
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
# One BLAS thread unless the caller chose otherwise: on a shared two-core
# host a second BLAS thread made the pipeline slower and its timings noisier.
# It must be set before numpy loads BLAS; set-up processes inherit it.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

import gen  # noqa: E402
import tracing  # noqa: E402

COMMANDS = ("train", "eval_ama", "eval_pop", "eval_puresvd",
            "explain_histogram", "explain_modes")
MODES_N = 10          # items per mode listed by explain --modes
TOP_K = 10            # recommendations per user in explain reports
CHECKED_USERS = 3     # users whose top-10 is recomputed from the model file
ML1M_USERS = 300
# ML-1M's 6,040 users make 12 batches of 512 per epoch; a smaller sample
# keeps 12 optimizer steps per epoch by shrinking the batch.
STEPS_PER_EPOCH = 12
SETUP_TIMEOUT_S = 150


@dataclass(frozen=True)
class Workload:
    log_format: str       # movielens-dat | amazon-csv
    shape: gen.LogShape
    tiny: gen.LogShape    # the shape the self-test runs
    epochs: int           # epochs per train command
    split: str            # split that evaluate scores
    generated_model: bool  # rank a model drawn from the seed, not the trained one
    focus: tuple          # commands repeated for --seconds


_ML_TINY = replace(gen.ML1M, users=60, items=300, mean_extra=20.0,
                   singletons=3, late_items=4)
_AMAZON_TINY = replace(gen.AMAZON, users=150, items=1500, mean_extra=6.0,
                       singletons=3, late_items=4)

# Why each workload exists is recorded in BENCHMARK.json. amazon-wide is
# runnable but not listed there: with 1-2 held-out items per user over an
# ~8.7k-item catalog, R-Precision is 0 or nearly so for every scorer at a
# size that fits a run, and BENCHMARK.json's end-to-end metrics must be
# nonzero and steady on every workload it lists.
WORKLOADS = {
    "ml1m-train": Workload(
        log_format="movielens-dat", shape=replace(gen.ML1M, users=ML1M_USERS),
        tiny=_ML_TINY, epochs=2, split="test", generated_model=False,
        focus=("train",)),
    "ml1m-rank": Workload(
        log_format="movielens-dat", shape=replace(gen.ML1M, users=ML1M_USERS),
        tiny=_ML_TINY, epochs=1, split="test", generated_model=True,
        focus=("eval_ama", "eval_pop", "eval_puresvd", "explain_histogram",
               "explain_modes")),
    "amazon-wide": Workload(
        log_format="amazon-csv", shape=gen.AMAZON, tiny=_AMAZON_TINY, epochs=1,
        split="validation", generated_model=False, focus=("train", "eval_ama")),
}


class CommandFailed(Exception):
    pass


class Bench:
    """Runs CLI commands in-process and counts checks as operations."""

    def __init__(self, work, workload, tiny, tracer=None):
        self.work = Path(work)
        self.wl = workload
        self.shape = workload.tiny if tiny else workload.shape
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def path(self, name):
        return str(self.work / name)

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)
        return ok

    def absorb(self, other):
        self.attempted += other["attempted"]
        self.failed += other["failed"]
        self.errors += other["errors"]

    def cli(self, argv, traced=False, epochs=None):
        """Wall time of ``amarec <argv>``; a nonzero exit raises CommandFailed."""
        from amarec import cli

        out, err = io.StringIO(), io.StringIO()
        with contextlib.ExitStack() as stack:
            if traced:
                self.tracer.new_run(" ".join(argv))
                stack.enter_context(tracing.installed(self.tracer))
            if epochs is not None:
                stack.enter_context(epoch_clock(epochs))
            stack.enter_context(contextlib.redirect_stdout(out))
            stack.enter_context(contextlib.redirect_stderr(err))
            start = time.perf_counter()
            try:
                code = cli.main(argv)
            except SystemExit as exc:   # argparse rejects the command line
                code = exc.code
            except Exception:           # an error the CLI does not handle
                code = "an uncaught exception"
                err.write(traceback.format_exc())
            seconds = time.perf_counter() - start
        if not self.check(code == 0, f"amarec {' '.join(argv)} exited {code}: "
                                     f"{err.getvalue().strip()}"):
            raise CommandFailed(self.errors[-1])
        return seconds


@contextlib.contextmanager
def epoch_clock(sink):
    """Record epoch wall times through ``train``'s per-epoch callback."""
    training = importlib.import_module("amarec.training")
    inner = training.train

    def train(data, V, cfg, params=None, callback=None):
        last = [time.perf_counter()]

        def tick(epoch, current):
            now = time.perf_counter()
            sink.append(now - last[0])
            last[0] = now
            if callback is not None:
                callback(epoch, current)

        return inner(data, V, cfg, params=params, callback=tick)

    training.train = train
    try:
        yield
    finally:
        training.train = inner


def argv_for(cmd, bench, model):
    wl = bench.wl
    data = ["--data", bench.path("split")]
    if cmd == "train":
        batch = math.ceil(bench.shape.users / STEPS_PER_EPOCH)
        return ["train", *data, "--preset", "ml1m-ama", "--set", f"epochs={wl.epochs}",
                "--set", f"batch_size={batch}", "--out", bench.path("trained.model"),
                "--log-prefix", bench.path("train")]
    if cmd.startswith("eval_"):
        scorer = cmd[5:]
        which = ["--model", model] if scorer == "ama" else ["--baseline", scorer]
        return ["evaluate", *data, "--preset", f"ml1m-{scorer}", *which,
                "--split", wl.split, "--out", bench.path(f"{cmd}.json")]
    if cmd == "explain_histogram":
        return ["explain", *data, "--preset", "ml1m-ama", "--model", model,
                "--histogram", "--k", str(TOP_K), "--out", bench.path("histogram.csv")]
    if cmd == "explain_modes":
        return ["explain", *data, "--preset", "ml1m-ama", "--model", model,
                "--modes", "--n", str(MODES_N), "--out", bench.path("modes.csv")]
    raise ValueError(cmd)


# ---------------------------------------------------------------- set-up


def prepare_inputs(name, seed, work, tiny, trace):
    """Set-up phase; runs in its own process. Returns timings and check counts."""
    wl = WORKLOADS[name]
    tracer = tracing.Tracer() if trace else None
    bench = Bench(work, wl, tiny, tracer)
    if wl.log_format == "movielens-dat":
        log = bench.path("ratings.dat")
        lines = gen.write_movielens(log, bench.shape, seed)
    else:
        log = bench.path("ratings.csv")
        lines = gen.write_amazon(log, bench.shape, seed)
    prep = ["prep", "--input", log, "--format", wl.log_format, "--threshold", "3",
            "--out", bench.path("split")]
    prep_s, windows = [], []
    try:
        while len(prep_s) < 5 or (sum(prep_s) < 2.0 and len(prep_s) < 25):
            if tracer:
                tracer.reset()
            prep_s.append(bench.cli(prep, traced=bool(tracer)))
            if tracer:
                windows.append(tracer.window())
        bench.cli(["embed", "--data", bench.path("split"), "--preset", "ml1m-ama",
                   "--out", bench.path("items.emb")])
        if wl.generated_model:
            write_generated_model(bench, seed)
    except CommandFailed:
        pass
    if tracer:
        tracer.save(ROOT / ".bench_out" / f"spans-{name}-prep.npz",
                    {"workload": name, "seed": seed})
    return {"prep_s": prep_s, "windows": windows, "lines": lines,
            "attempted": bench.attempted, "failed": bench.failed, "errors": bench.errors}


def write_generated_model(bench, seed):
    from amarec.model import AmaConfig, save_model

    V = read_embeddings(bench.path("items.emb"))
    with open(bench.path("items.emb.json"), encoding="utf-8") as fh:
        meta = json.load(fh)
    cfg = AmaConfig(h=V.shape[1], d=3, kappa=3, alpha=1.0, lam=1e-5, rho=0.3,
                    epochs=0, seed=meta["seed"])
    params = gen.random_model(cfg, V, seed)
    save_model(params, cfg, bench.path("generated.model"))


# ---------------------------------------------------------------- file readers


def read_embeddings(path):
    raw = Path(path).read_bytes()
    if raw[:8] != b"AMAEMB01":
        raise ValueError(f"{path}: not an embedding file")
    rows, cols = struct.unpack_from("<QQ", raw, 8)
    return np.frombuffer(raw, "<f8", rows * cols, 24).reshape(rows, cols)


def read_model(path):
    """The five parameter matrices of an AMAMDL01 file, parsed without amarec."""
    raw = Path(path).read_bytes()
    if raw[:8] != b"AMAMDL01":
        raise ValueError(f"{path}: not a model file")
    _, n, h, d, kappa = struct.unpack_from("<IQQQQ", raw, 8)
    shapes = (("W_k", (h, kappa)), ("W_v", (h, h)), ("Q", (d, kappa)),
              ("B", (d, h)), ("S", (n, h)))
    offset, model = 44, {}
    for key, (r, c) in shapes:
        model[key] = np.frombuffer(raw, "<f8", r * c, offset).reshape(r, c)
        offset += 8 * r * c
    if offset != len(raw):
        raise ValueError(f"{path}: {len(raw) - offset} unexpected trailing bytes")
    return model


def read_rows(path):
    """user index -> item indices of a split CSV written by prep."""
    rows = defaultdict(list)
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for user, item in reader:
            rows[int(user)].append(int(item))
    return rows


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def reference_scores(model, V, obs):
    """Straight-line forward pass: masked attention, modes, maxout scores."""
    kappa = model["Q"].shape[1]
    Vo = V[obs]
    logits = model["Q"] @ (Vo @ model["W_k"]).T / math.sqrt(kappa)
    weights = np.exp(logits - logits.max(axis=1, keepdims=True))
    weights /= weights.sum(axis=1, keepdims=True)
    modes = weights @ (Vo @ model["W_v"]) + model["B"]
    return (modes @ model["S"].T).max(axis=0)


# ---------------------------------------------------------------- checks


class Checks:
    """Output checks; each call is one counted operation."""

    def __init__(self, bench):
        self.bench = bench
        b = bench.path
        self.split = read_json(b("split/split.json"))
        self.train_rows = read_rows(b("split/train.csv"))
        self.target_users = len(read_rows(b(f"split/{bench.wl.split}.csv")))
        self.objectives = []

    def report(self, cmd):
        report = read_json(self.bench.path(f"{cmd}.json"))
        means = [v["mean"] for v in report["metrics"].values()]
        self.bench.check(all(math.isfinite(x) and 0.0 <= x <= 1.0 for x in means),
                         f"{cmd}: report metric outside [0, 1]: {means}")
        self.bench.check(report["num_users"] == self.target_users,
                         f"{cmd}: num_users {report['num_users']} != "
                         f"{self.target_users} users with a target row")
        return report

    def train(self):
        objective = read_json(self.bench.path("train.json"))[-1]["objective"]
        self.bench.check(math.isfinite(objective), f"train: objective {objective}")
        if self.objectives:
            self.bench.check(objective == self.objectives[0],
                             f"train: objective {objective!r} differs from the "
                             f"first run's {self.objectives[0]!r} on identical input")
        self.objectives.append(objective)

    def histogram(self):
        with open(self.bench.path("histogram.csv"), encoding="utf-8") as fh:
            total = sum(int(row["num_users"]) for row in csv.DictReader(fh))
        self.bench.check(total == len(self.train_rows),
                         f"histogram sums to {total}, not {len(self.train_rows)}")

    def modes(self, model):
        d = read_json(model + ".json")["d"]
        with open(self.bench.path("modes.csv"), encoding="utf-8") as fh:
            rows = sum(1 for _ in csv.DictReader(fh))
        self.bench.check(rows == d * MODES_N, f"--modes listed {rows} rows, not {d * MODES_N}")

    def user_top_k(self, model_path, seed):
        """Recompute the top-k that explain --user reports for a seeded sample."""
        bench = self.bench
        try:
            model = read_model(model_path)
            V = read_embeddings(bench.path("items.emb"))
        except (OSError, ValueError) as exc:
            bench.check(False, f"unreadable model or embeddings: {exc}")
            return
        item_index = {item: j for j, item in enumerate(self.split["item_ids"])}
        users = sorted(self.train_rows)
        rng = np.random.default_rng([seed, 4])
        for u in rng.choice(users, size=min(CHECKED_USERS, len(users)), replace=False):
            uid = self.split["user_ids"][u]
            bench.cli(["explain", "--data", bench.path("split"), "--preset", "ml1m-ama",
                       "--model", model_path, "--user", str(uid), "--k", str(TOP_K),
                       "--out", bench.path("user.json")])
            reported = [item_index[r["item"]]
                        for r in read_json(bench.path("user.json"))["recommendations"]]
            obs = np.array(sorted(self.train_rows[u]))
            scores = reference_scores(model, V, obs)
            scores[obs] = -np.inf
            n = scores.size
            expected = np.lexsort((np.arange(n), -scores))[:TOP_K].tolist()
            # A reordering is accepted only between scores equal to rounding.
            same = len(reported) == len(expected) and all(
                a == b or abs(scores[a] - scores[b]) <= 1e-9 * max(1.0, abs(scores[a]))
                for a, b in zip(reported, expected))
            bench.check(same, f"explain --user {uid}: top-{TOP_K} {reported} != "
                              f"reference forward {expected}")


# ---------------------------------------------------------------- measurement


def run_command(cmd, bench, checks, model, record, traced=False):
    """Run one command, check its output and record its figures."""
    epochs = record["epoch_s"] if cmd == "train" else None
    seconds = bench.cli(argv_for(cmd, bench, model), traced=traced, epochs=epochs)
    record["times"][cmd].append(seconds)
    try:
        if cmd == "train":
            checks.train()
        elif cmd.startswith("eval_"):
            report = checks.report(cmd)
            record["users"][cmd] = report["num_users"]
            if cmd == "eval_ama":
                record["ama"] = report["metrics"]
        elif cmd == "explain_histogram":
            checks.histogram()
        elif cmd == "explain_modes":
            checks.modes(model)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        bench.check(False, f"{cmd}: unreadable output: {exc!r}")
        raise CommandFailed(bench.errors[-1]) from exc
    return seconds


def measure(bench, seconds, seed, model, trace):
    """Command cycles for ``seconds``; returns the recorded figures.

    An untraced run repeats the whole pipeline, because every end-to-end
    metric is reported on every workload. A traced run alternates untraced
    and traced cycles of the workload's focus commands.
    """
    focus = bench.wl.focus
    plan = ((False, focus), (True, focus)) if trace else ((False, COMMANDS),)
    record = {"times": defaultdict(list), "epoch_s": [], "users": {}, "ama": None,
              "cycles": [], "traced_cycles": [], "windows": []}
    checks = Checks(bench)
    deadline = time.perf_counter() + seconds
    while True:
        begun = time.perf_counter()
        for traced, commands in plan:
            if traced:
                bench.tracer.reset()
            cycle = sum(run_command(cmd, bench, checks, model, record, traced)
                        for cmd in commands)
            record["traced_cycles" if traced else "cycles"].append(cycle)
            if traced:
                record["windows"].append(bench.tracer.window())
        now = time.perf_counter()
        if now + (now - begun) > deadline:
            break
    checks.user_top_k(model, seed)
    record["objectives"] = checks.objectives
    record["train_users"] = len(checks.train_rows)
    return record


def end_to_end(setup, record):
    med = statistics.median
    times = record["times"]
    setup_s = med(setup["prep_s"])
    return {
        "setup_s": setup_s,
        "train_epoch_s": med(record["epoch_s"]),
        "train_s": med(times["train"]),
        "train_objective": record["objectives"][-1],
        "eval_ama_users_per_s": record["users"]["eval_ama"] / med(times["eval_ama"]),
        "eval_pop_users_per_s": record["users"]["eval_pop"] / med(times["eval_pop"]),
        "eval_puresvd_users_per_s":
            record["users"]["eval_puresvd"] / med(times["eval_puresvd"]),
        "ama_r_precision": record["ama"]["R-Precision"]["mean"],
        "ama_ndcg": record["ama"]["NDCG"]["mean"],
        "explain_histogram_s": med(times["explain_histogram"]),
        "explain_modes_s": med(times["explain_modes"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pipeline_s": setup_s + sum(med(times[c]) for c in COMMANDS),
    }


def per_layer(names, setup, record):
    med = statistics.median
    values = {}
    for name in names:
        if name == "trace.overhead_ratio":
            values[name] = med(record["traced_cycles"]) / med(record["cycles"])
            continue
        value = 0.0
        for windows in (setup["windows"], record["windows"]):
            if windows:
                value += med(tracing.layer_value(name, w) for w in windows)
        values[name] = value
    return values


def derived(metrics, record):
    """Figures printed for comparison but not gated."""
    users = record["train_users"]
    epoch_ms_user = 1000.0 * metrics["train_epoch_s"] / users
    ml1m_epoch_s = epoch_ms_user * 6040 / 1000.0
    return {
        "train_users": users,
        "hours_300_epochs_at_this_size": metrics["train_epoch_s"] * 300 / 3600,
        "epoch_ms_per_user": epoch_ms_user,
        "ml1m_6040_users_epoch_s": ml1m_epoch_s,
        "ml1m_6040_users_hours_300_epochs": ml1m_epoch_s * 300 / 3600,
        "eval_ms_per_user": {
            cmd: 1000.0 / metrics[f"{cmd}_users_per_s"]
            for cmd in ("eval_ama", "eval_pop", "eval_puresvd")},
    }


# ---------------------------------------------------------------- provenance


def provenance():
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "amarec").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".conf"):
            digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads_env": {k: v for k, v in sorted(os.environ.items())
                        if k.endswith("_NUM_THREADS")},
        "git_commit": git_commit(),
        "source_sha256": digest.hexdigest(),
    }


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


# ---------------------------------------------------------------- main


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="smoke-test size used by bench/selftest.py")
    p.add_argument("--setup-out", help=argparse.SUPPRESS)  # set-up child: result file
    return p.parse_args(argv)


def run_setup(args, work):
    """Run the set-up phase in a child process and wait for it to end.

    A plain child that is waited for leaves nothing running after the
    benchmark exits; ``subprocess.run`` kills and reaps it on a timeout or
    on any exception, including the SystemExit that SIGTERM raises in main.
    """
    out = work / "setup.json"
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "0", "--trace", str(args.trace),
            "--setup-out", str(out)]
    if args.tiny:
        argv.append("--tiny")
    try:
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"set-up took more than {SETUP_TIMEOUT_S} s"
    if proc.returncode != 0 or not out.is_file():
        return None, f"set-up exited {proc.returncode}: {proc.stderr.strip()}"
    return read_json(out), None


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "amarec" / "__init__.py").is_file():
        print(f"error: no amarec sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    import amarec

    if Path(amarec.__file__).resolve().parent != ROOT / "src" / "amarec":
        print(f"error: imported amarec from {amarec.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    work = ROOT / ".bench_work" / (args.workload + ("-tiny" if args.tiny else ""))
    if args.setup_out:
        setup = prepare_inputs(args.workload, args.seed, str(work), args.tiny,
                               bool(args.trace))
        with open(args.setup_out, "w", encoding="utf-8") as fh:
            json.dump(setup, fh)
        return 0
    # A caller may stop a run with SIGTERM; raising SystemExit lets
    # run_setup kill and reap its child before the process ends.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    spec = read_json(ROOT / "BENCHMARK.json")
    wl = WORKLOADS[args.workload]
    out_dir = ROOT / ".bench_out"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    out_dir.mkdir(exist_ok=True)

    tracer = tracing.Tracer() if args.trace else None
    bench = Bench(work, wl, args.tiny, tracer)
    setup, error = run_setup(args, work)
    if setup is None:
        bench.check(False, error)
        setup = {"prep_s": [], "windows": [], "lines": None}
    else:
        bench.absorb(setup)

    metrics, extra = {}, {}
    if bench.failed == 0:
        model = bench.path("generated.model" if wl.generated_model else "trained.model")
        try:
            record = measure(bench, args.seconds, args.seed, model, args.trace)
        except CommandFailed:
            record = None
        if record is not None and bench.failed == 0:
            if args.trace:
                names = [m["name"] for m in spec["per_layer"]]
                values = per_layer(names, setup, record)
                extra["traced_cycle_s"] = record["traced_cycles"]
                extra["untraced_cycle_s"] = record["cycles"]
            else:
                names = [m["name"] for m in spec["end_to_end"]]
                values = end_to_end(setup, record)
                extra["derived"] = derived(values, record)
            units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
            metrics = {n: {"value": values[n], "unit": units[n]} for n in names}
            extra["command_s"] = dict(record["times"])
            extra["epoch_s"] = record["epoch_s"]
    if tracer is not None:
        tracer.save(out_dir / f"spans-{args.workload}.npz",
                    {"workload": args.workload, "seed": args.seed})

    result = {"correct": bench.failed == 0, "attempted": bench.attempted,
              "failed": bench.failed, "metrics": metrics}
    prov = provenance()
    with open(out_dir / f"result-{args.workload}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "lines": setup["lines"],
                   "prep_s": setup["prep_s"], "provenance": prov,
                   "errors": bench.errors, **extra, **result}, fh, indent=2)
    print("provenance:", json.dumps(prov))
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:>14.6g} {m['unit']}")
    if "derived" in extra:
        print("derived (not gated):", json.dumps(extra["derived"]))
    for error in bench.errors:
        print("check failed:", error, file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
