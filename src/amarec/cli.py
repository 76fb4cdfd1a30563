"""Command-line entry point: prep, embed, train, evaluate, explain.

Configuration is a flat ``key=value`` file (or a shipped preset) with
``--set key=value`` overrides. Recognized keys, with the conventional
symbol in parentheses:

  h             embedding size (h); PureSVD's rank
  d             preference-mode count (d)
  kappa         key/query size (kappa)
  alpha         confidence (alpha): an observed entry weighs 1 + alpha ln 2
  lambda        decoder regularization (lambda)
  rho           corruption rate (rho)
  epochs        training epochs (epsilon)
  gamma         randomized-SVD power iterations (gamma)
  seed          RNG seed
  learning_rate optimizer step size
  batch_size    users per optimizer step

Unset keys take AmaConfig's defaults; AmaConfig checks every value, before
any SVD. h, gamma and seed build the item embeddings, in embed, train and
PureSVD alike. train records every key of the run next to the model and
stores the embeddings it trained with beside the model file, as MODEL.emb;
with --model, evaluate and explain read those embeddings (a model saved
without them has them rebuilt from its recorded h, gamma and seed), and a
configured h, gamma, seed, d or kappa must equal the model's.
evaluate and explain check but do not read the training-only keys epochs,
learning_rate, batch_size, alpha, lambda and rho. evaluate takes exactly
one of --model and --baseline; any preset works with any command.

The default data directory comes from $AMAREC_DATA_DIR when --data is
omitted.
"""

from __future__ import annotations

import argparse
import functools
import importlib.resources
import json
import os
import sys


from amarec import baselines, dataset, evaluation, explain as explain_mod, linalg, training
from amarec.fileio import atomic_open
from amarec.model import AmaConfig, load_model, save_model


class CliError(Exception):
    pass


# config key -> the AmaConfig field it sets
_RUN_KEYS = {**{k: k for k in ("h", "d", "kappa", "alpha", "rho", "epochs", "seed",
                               "learning_rate", "batch_size", "gamma")}, "lambda": "lam"}


def parse_config_text(text, source="<config>"):
    """The ``key=value`` lines of ``text``; a key may be set only once."""
    cfg, first = {}, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError(f"{source}:{lineno}: expected key=value, got {raw!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        if key in first:
            raise CliError(f"{source}:{lineno}: {key} is set again, first at line {first[key]}")
        first[key] = lineno
        cfg[key] = _coerce(key, value, f"{source}:{lineno}")
    return cfg


def _coerce(key, value, where):
    """A known key's value: an int, or failing that a float."""
    if key not in _RUN_KEYS:
        raise CliError(f"{where}: unknown config key {key!r}")
    for parse in (int, float):
        try:
            return parse(value)
        except ValueError:
            pass
    raise CliError(f"{where}: bad value {value!r} for {key}")


def load_preset(name):
    ref = importlib.resources.files("amarec").joinpath(f"presets/{name}.conf")
    if not ref.is_file():
        available = sorted(
            p.name[:-5]
            for p in importlib.resources.files("amarec").joinpath("presets").iterdir()
            if p.name.endswith(".conf")
        )
        raise CliError(f"unknown preset {name!r}; available: {', '.join(available)}")
    return parse_config_text(ref.read_text(encoding="utf-8"), source=f"preset {name}")


def _gather_config(args):
    """(cfg, run): the keys the preset, file and --set give, and their AmaConfig."""
    cfg = {}
    if args.preset:
        cfg.update(load_preset(args.preset))
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg.update(parse_config_text(fh.read(), source=args.config))
    for item in args.set or []:
        if "=" not in item:
            raise CliError(f"--set expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        cfg[key.strip()] = _coerce(key.strip(), value.strip(), "--set")
    return cfg, _run_config(cfg)


def _run_config(cfg):
    """The AmaConfig of the keys ``cfg`` sets. AmaConfig's messages start with
    the field, which is renamed to the key that sets it."""
    try:
        return AmaConfig(**{arg: cfg[key] for key, arg in _RUN_KEYS.items() if key in cfg})
    except ValueError as exc:
        field, _, rest = str(exc).partition(" ")
        key = {arg: key for key, arg in _RUN_KEYS.items()}.get(field, field)
        raise CliError(f"{key} {rest}") from None


def _data_dir(args):
    if args.data:
        return args.data
    env = os.environ.get("AMAREC_DATA_DIR")
    if env:
        return env
    raise CliError("no data directory: pass --data or set AMAREC_DATA_DIR")


def cmd_prep(args):
    try:
        fractions = tuple(float(f) for f in args.fractions.split(","))
    except ValueError:
        raise CliError(f"--fractions takes numbers, got {args.fractions!r}") from None
    ratings = dataset.parse_ratings(args.input, args.format,
                                    amazon_columns=args.amazon_columns)
    if not len(ratings):
        raise CliError(f"empty dataset: {args.input} holds no ratings")
    ratings = dataset.binarize(ratings, args.threshold)
    if not len(ratings):
        raise CliError("empty dataset: no ratings exceed the threshold")
    data = dataset.temporal_split(ratings, fractions)
    dataset.save_split(data, args.out, threshold=args.threshold, fractions=fractions)
    m, n = data.shape
    print(f"wrote splits to {args.out}: {m} users x {n} items, "
          f"{data.train.nnz}/{data.validation.nnz}/{data.test.nnz} interactions")


def cmd_embed(args):
    data = dataset.load_split(_data_dir(args))
    _, run = _gather_config(args)
    V = linalg.embed_items(data.train, run)
    linalg.save_embeddings(V, args.out, {"gamma": run.gamma, "h": run.h, "seed": run.seed,
                                         "source_hash": linalg.matrix_hash(data.train)})
    print(f"wrote {V.shape[0]}x{V.shape[1]} item embeddings to {args.out}")


def cmd_train(args):
    if args.checkpoint_every < 0:
        raise CliError("--checkpoint-every takes an integer >= 0, "
                       f"got {args.checkpoint_every}")
    # refuse an unwritable output now, not after the last epoch
    for flag, path in (("--out", args.out), ("--log-prefix", args.log_prefix)):
        parent = os.path.dirname(path or "")
        if parent and not os.path.isdir(parent):
            raise CliError(f"{flag} {path}: directory {parent} does not exist")
    data = dataset.load_split(_data_dir(args))
    _, run = _gather_config(args)
    V = linalg.embed_items(data.train, run)
    provenance = {"item_index_hash": linalg.matrix_hash(data.train), "V": V}

    def checkpoint(epoch, params):
        if args.checkpoint_every and (epoch + 1) % args.checkpoint_every == 0:
            save_model(params, run, args.out, **provenance)

    params, log = training.train(data, V, run, callback=checkpoint)
    save_model(params, run, args.out, **provenance)
    if args.log_prefix:
        with atomic_open(args.log_prefix + ".json", "w", encoding="utf-8") as fh:
            fh.write(json.dumps(log, indent=2) + "\n")
    last = log[-1]["objective"] if log else float("nan")
    print(f"trained {run.epochs} epochs; final mean objective {last:.6g}; "
          f"model written to {args.out}")


def _load_ama(path, data, cfg):
    """(params, V) of a model file: the V stored beside it, or for a model
    saved without one, V rebuilt from the run config ``load_model`` returns.
    Rejects a configured h, gamma, seed, d or kappa that disagrees with that
    config, and a split other than the one the model was trained on."""
    params, run, trained_on, V = load_model(path)
    for key in ("h", "gamma", "seed", "d", "kappa"):
        if key in cfg and cfg[key] != getattr(run, key):
            raise CliError(f"{path} was trained with {key}={getattr(run, key)}, "
                           f"but the configuration gives {key}={cfg[key]}")
    if data.shape[1] != params.S.shape[0]:
        raise CliError(f"{path} scores {params.S.shape[0]} items, "
                       f"but the split has {data.shape[1]}")
    if trained_on and trained_on != linalg.matrix_hash(data.train):
        raise CliError(f"{path} was trained on a different train matrix")
    if V is None:
        V = linalg.embed_items(data.train, run)
    return params, V


def _scorer_for(args, data, cfg, run):
    if args.model:
        return baselines.ama_scorer(*_load_ama(args.model, data, cfg))
    if args.baseline == "pop":
        return baselines.pop_scorer(data.train)
    return baselines.puresvd_scorer(linalg.embed_items(data.train, run))


def _cutoffs(flag, text):
    """The comma-separated cutoffs given to ``flag``; each must be an integer
    >= 1, and none may repeat."""
    try:
        values = tuple(int(v) for v in str(text).split(","))
        positive = min(values) >= 1
    except ValueError:
        positive = False
    if not positive:
        raise CliError(f"{flag} takes integers >= 1, got {text}")
    if len(set(values)) < len(values):
        raise CliError(f"{flag} repeats a cutoff, got {text}")
    return values


def cmd_evaluate(args):
    ks = _cutoffs("--ks", args.ks)
    data = dataset.load_split(_data_dir(args))
    scorer = _scorer_for(args, data, *_gather_config(args))
    report = evaluation.evaluate(scorer, data, split=args.split, ks=ks)
    print(report.table())
    if args.out:
        with atomic_open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
        print(f"report written to {args.out}")


def cmd_explain(args):
    _cutoffs("--k", args.k)
    _cutoffs("--n", args.n)
    if args.user is None and not args.histogram and not args.modes:
        raise CliError("pass one of --user, --histogram, --modes")
    if args.out and (args.user is not None) + args.histogram + args.modes > 1:
        raise CliError("--out names one file; pass only one of --user, --histogram, --modes")
    if args.dot and args.user is None:
        raise CliError("--dot draws the per-user report; pass --user with it")
    data = dataset.load_split(_data_dir(args))
    cfg, _ = _gather_config(args)
    params, V = _load_ama(args.model, data, cfg)
    item_ids = list(data.item_ids)
    if args.user is not None:
        u = data.user_index.get(args.user)
        if u is None:
            raise CliError(f"unknown user id {args.user!r}")
        exp = explain_mod.explain_user(params, V, data.train[u], u, k=args.k)
        out = args.out or f"user_{args.user}.json"
        with atomic_open(out, "w", encoding="utf-8") as fh:
            fh.write(exp.to_json(item_ids=item_ids))
        if args.dot:
            with atomic_open(args.dot, "w", encoding="utf-8") as fh:
                fh.write(explain_mod.user_explanation_dot(exp, item_ids=item_ids))
        print(f"user explanation written to {out}")
    if args.histogram:
        hist = explain_mod.mode_usage(params, V, data, k=args.k)
        out = args.out or "mode_usage.csv"
        explain_mod.save_histogram_csv(hist, out)
        print(f"mode-usage histogram written to {out}")
    if args.modes:
        top = explain_mod.mode_top_items(params, V, data, n_top=args.n)
        out = args.out or "mode_top_items.csv"
        explain_mod.save_mode_top_items_csv(top, out, item_ids=item_ids)
        print(f"per-mode top items written to {out}")


@functools.cache
def build_parser():
    """The parser of every command, built once per process; ``main`` runs the
    command through ``cmd_<command>``, looked up when it runs."""
    p = argparse.ArgumentParser(
        prog="amarec",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common_cfg(sp):
        sp.add_argument("--preset", help="shipped preset name, e.g. ml1m-ama")
        sp.add_argument("--config", help="key=value config file")
        sp.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override a single config key")
        sp.add_argument("--data", help="split directory (default $AMAREC_DATA_DIR)")

    sp = sub.add_parser("prep", help="parse, binarize and split a rating file")
    sp.add_argument("--input", required=True)
    sp.add_argument("--format", required=True, choices=["movielens-dat", "amazon-csv"])
    sp.add_argument("--threshold", type=float, default=3.0,
                    help="keep ratings strictly above this value")
    sp.add_argument("--fractions", default="0.5,0.2,0.3")
    sp.add_argument("--amazon-columns", default="item,user,rating,timestamp")
    sp.add_argument("--out", required=True)

    sp = sub.add_parser("embed", help="compute item embeddings from the train split")
    common_cfg(sp)
    sp.add_argument("--out", required=True)

    sp = sub.add_parser("train", help="embed and train a model")
    common_cfg(sp)
    sp.add_argument("--out", required=True, help="model output path")
    sp.add_argument("--log-prefix", help="write the train log as PREFIX.json")
    sp.add_argument("--checkpoint-every", type=int, default=0)

    sp = sub.add_parser("evaluate", help="rank and score a model or baseline")
    common_cfg(sp)
    scorer = sp.add_mutually_exclusive_group(required=True)
    scorer.add_argument("--model", help="trained model file")
    scorer.add_argument("--baseline", choices=["pop", "puresvd"])
    sp.add_argument("--split", default="test", choices=["validation", "test"])
    sp.add_argument("--ks", default="5,10,20")
    sp.add_argument("--out", help="JSON report path")

    sp = sub.add_parser("explain", help="attention-based explanation reports")
    common_cfg(sp)
    sp.add_argument("--model", required=True)
    sp.add_argument("--user", help="external user id for a per-user report")
    sp.add_argument("--histogram", action="store_true",
                    help="mode-usage histogram over users")
    sp.add_argument("--modes", action="store_true",
                    help="top attended items per mode")
    sp.add_argument("--k", type=int, default=10, help="recommendations per user")
    sp.add_argument("--n", type=int, default=10, help="items per mode listing")
    sp.add_argument("--out", help="output path")
    sp.add_argument("--dot", help="also write a DOT graph (per-user report only)")
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        globals()[f"cmd_{args.command}"](args)
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
