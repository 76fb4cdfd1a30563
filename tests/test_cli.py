import argparse
import json
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from amarec import baselines, cli, dataset, linalg
from amarec.cli import CliError, _gather_config, load_preset, main, parse_config_text
from conftest import synthetic_events, write_movielens_file


@pytest.fixture()
def ratings_file(tmp_path):
    path = tmp_path / "ratings.dat"
    write_movielens_file(path, synthetic_events(m=25, n=15, per_user=12, seed=4))
    return path


@pytest.fixture()
def prepped(tmp_path, ratings_file):
    out = tmp_path / "data"
    assert main(["prep", "--input", str(ratings_file), "--format", "movielens-dat",
                 "--threshold", "2", "--out", str(out)]) == 0
    return out


def fast_overrides():
    return ["--set", "h=4", "--set", "d=2", "--set", "kappa=2", "--set", "epochs=5",
            "--set", "gamma=3", "--set", "batch_size=8"]


class TestConfig:
    def test_parse_config_text(self):
        cfg = parse_config_text("h=40\nlambda=1e-5  # comment\n\nd = 3\n")
        assert cfg == {"h": 40, "lambda": 1e-5, "d": 3}

    def test_unknown_key(self):
        with pytest.raises(CliError):
            parse_config_text("bogus=1")

    def test_repeated_key_rejected_naming_both_lines(self):
        with pytest.raises(CliError, match=r"^run\.conf:4: h is set again, first at line 1$"):
            parse_config_text("h=4\nd=3\n\n h = 6\n", source="run.conf")

    def test_repeated_key_in_a_config_file_exits_1_before_training(self, tmp_path, prepped,
                                                                    capsys):
        conf, model = tmp_path / "run.conf", tmp_path / "model.bin"
        conf.write_text("epochs=2\nd=2\nepochs=3\n")
        rc = main(["train", "--data", str(prepped), "--config", str(conf), "--out", str(model)])
        assert rc == 1 and not model.exists()
        assert f"{conf}:3: epochs is set again, first at line 1" in capsys.readouterr().err

    def test_set_overrides_a_file_key_and_the_last_set_wins(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("h=4\nd=2\n")
        args = argparse.Namespace(preset="ml1m-ama", config=str(conf), set=["h=6", "h=8"])
        cfg, run = _gather_config(args)
        assert (cfg["h"], cfg["d"], cfg["epochs"]) == (8, 2, 300)
        assert (run.h, run.d, run.epochs, run.lam) == (8, 2, 300, 1e-5)

    def test_bad_value(self):
        with pytest.raises(CliError, match=r"^<config>:1: bad value 'forty' for h$"):
            parse_config_text("h=forty")

    def test_non_integer_in_a_config_file_refused_by_the_run_config(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("d=2\nh=4.5\n")
        args = argparse.Namespace(preset=None, config=str(conf), set=None)
        with pytest.raises(CliError, match=r"^h must be an integer, got 4\.5$"):
            _gather_config(args)

    def test_line_without_equals_rejected_at_its_line(self):
        with pytest.raises(CliError, match=r"^run\.conf:2: expected key=value, got ' h 4'$"):
            parse_config_text("d=2\n h 4\n", source="run.conf")

    def test_set_without_equals_rejected(self):
        args = argparse.Namespace(preset=None, config=None, set=["h=6", "h6"])
        with pytest.raises(CliError, match="^--set expects key=value, got 'h6'$"):
            _gather_config(args)

    def test_ml1m_preset_values(self):
        cfg = load_preset("ml1m-ama")
        assert cfg["h"] == 40 and cfg["alpha"] == 1.0 and cfg["lambda"] == 1e-5
        assert cfg["epochs"] == 300 and cfg["gamma"] == 10
        assert cfg["rho"] == 0.3 and cfg["d"] == 3 and cfg["kappa"] == 3

    def test_amazon_music_preset_values(self):
        cfg = load_preset("amazon-music-ama")
        assert cfg["h"] == 200 and cfg["alpha"] == 10.0 and cfg["lambda"] == 1e-4
        assert cfg["epochs"] == 300 and cfg["gamma"] == 10
        assert cfg["rho"] == 0.4 and cfg["d"] == 5

    def test_unknown_preset(self):
        with pytest.raises(CliError, match="available"):
            load_preset("ml1m-deep")


def test_parser_is_built_once_and_main_runs_the_bound_command(monkeypatch):
    # main parses with one parser per process and calls cmd_<command> as the
    # module binds it when main runs, so a wrapper bound there (as the
    # bench's tracer binds one) sees the call
    assert cli.build_parser() is cli.build_parser()
    seen = []
    monkeypatch.setattr(cli, "cmd_evaluate", lambda args: seen.append(args.baseline))
    assert main(["evaluate", "--baseline", "pop"]) == 0
    assert seen == ["pop"]


def test_a_programming_error_in_a_command_propagates(monkeypatch):
    # only the intended errors (CliError, ValueError, OSError) become exit 1;
    # a KeyError is a bug and keeps its traceback
    def broken(args):
        raise KeyError("x")

    monkeypatch.setattr(cli, "cmd_evaluate", broken)
    with pytest.raises(KeyError, match="x"):
        main(["evaluate", "--baseline", "pop"])


class TestPrep:
    def test_writes_splits_and_sidecar(self, prepped):
        for name in ("train.csv", "validation.csv", "test.csv", "split.json"):
            assert (prepped / name).exists()
        meta = json.loads((prepped / "split.json").read_text())
        assert meta["threshold"] == 2.0
        assert meta["fractions"] == [0.5, 0.2, 0.3]
        assert meta["content_hash"]

    def test_missing_input_nonzero_exit(self, tmp_path, capsys):
        rc = main(["prep", "--input", str(tmp_path / "nope.dat"),
                   "--format", "movielens-dat", "--out", str(tmp_path / "o")])
        assert rc != 0
        assert "nope.dat" in capsys.readouterr().err

    def test_threshold_too_high_empty_dataset(self, tmp_path, ratings_file, capsys):
        rc = main(["prep", "--input", str(ratings_file), "--format", "movielens-dat",
                   "--threshold", "5", "--out", str(tmp_path / "o")])
        assert rc != 0
        assert "empty dataset" in capsys.readouterr().err

    @pytest.mark.parametrize("format", ["movielens-dat", "amazon-csv"])
    @pytest.mark.parametrize("text", ["", "\n\n"], ids=["empty", "blank"])
    def test_empty_input_exit_1_naming_it(self, tmp_path, capsys, format, text):
        path, out = tmp_path / "ratings", tmp_path / "o"
        path.write_text(text)
        rc = main(["prep", "--input", str(path), "--format", format, "--out", str(out)])
        assert rc == 1 and not out.exists()
        assert f"error: empty dataset: {path} holds no ratings" in capsys.readouterr().err

    def test_nan_threshold_rejected(self, tmp_path, ratings_file, capsys):
        out = tmp_path / "o"
        rc = main(["prep", "--input", str(ratings_file), "--format", "movielens-dat",
                   "--threshold", "nan", "--out", str(out)])
        assert rc == 1 and not out.exists()
        assert "threshold must be a number below +inf, got nan" in capsys.readouterr().err

    @pytest.mark.parametrize("fractions, message", [
        ("a,0.2,0.3", "--fractions takes numbers, got 'a,0.2,0.3'"),
        ("nan,0.2,0.3", "bad fractions (nan, 0.2, 0.3)"),
    ])
    def test_bad_fractions_exit_1_naming_them(self, tmp_path, ratings_file, capsys,
                                              fractions, message):
        rc = main(["prep", "--input", str(ratings_file), "--format", "movielens-dat",
                   "--fractions", fractions, "--out", str(tmp_path / "o")])
        assert rc == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_field_beyond_csv_limit_exit_1_at_its_line(self, tmp_path, capsys):
        path = tmp_path / "ratings.csv"
        path.write_text("i1,u1,5,10\n" + "x" * 200_000 + ",u2,5,11\n")
        rc = main(["prep", "--input", str(path), "--format", "amazon-csv",
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "error: line 2: field larger than field limit" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestTrainEvaluateExplain:
    def test_full_pipeline(self, tmp_path, prepped, capsys):
        model = tmp_path / "model.bin"
        rc = main(["train", "--data", str(prepped), "--out", str(model),
                   "--log-prefix", str(tmp_path / "trainlog"), *fast_overrides()])
        assert rc == 0
        assert model.exists() and (tmp_path / "trainlog.json").exists()

        report = tmp_path / "report.json"
        rc = main(["evaluate", "--data", str(prepped), "--model", str(model),
                   "--split", "test", "--ks", "5,10,20", "--out", str(report),
                   *fast_overrides()])
        assert rc == 0
        metrics = json.loads(report.read_text())["metrics"]
        expected_cols = (["R-Precision", "NDCG"]
                         + [f"{m}@{k}" for m in ("MAP", "Precision", "Recall")
                            for k in (5, 10, 20)])
        assert sorted(metrics) == sorted(expected_cols)

        rc = main(["explain", "--data", str(prepped), "--model", str(model),
                   "--histogram", "--out", str(tmp_path / "hist.csv"),
                   *fast_overrides()])
        assert rc == 0
        rc = main(["explain", "--data", str(prepped), "--model", str(model),
                   "--modes", "--out", str(tmp_path / "modes.csv"),
                   *fast_overrides()])
        assert rc == 0
        uid = json.loads((prepped / "split.json").read_text())["user_ids"][0]
        rc = main(["explain", "--data", str(prepped), "--model", str(model),
                   "--user", uid, "--out", str(tmp_path / "user.json"),
                   "--dot", str(tmp_path / "user.dot"), *fast_overrides()])
        assert rc == 0
        assert (tmp_path / "user.dot").read_text().startswith("digraph")

    def test_log_prefix_writes_one_json_record_per_epoch(self, tmp_path, prepped):
        rc = main(["train", "--data", str(prepped), "--out", str(tmp_path / "m.bin"),
                   "--log-prefix", str(tmp_path / "log"), *fast_overrides(),
                   "--set", "epochs=3"])
        assert rc == 0
        assert sorted(p.name for p in tmp_path.glob("log*")) == ["log.json"]
        log = json.loads((tmp_path / "log.json").read_text())
        assert [sorted(record) for record in log] == [["epoch", "objective", "seconds"]] * 3
        assert [record["epoch"] for record in log] == [0, 1, 2]

    def test_negative_checkpoint_every_rejected(self, tmp_path, capsys):
        rc = main(["train", "--data", str(tmp_path / "unread"), "--out",
                   str(tmp_path / "m.bin"), "--checkpoint-every", "-1"])
        assert rc == 1 and not (tmp_path / "m.bin").exists()
        assert "--checkpoint-every takes an integer >= 0, got -1" in capsys.readouterr().err

    def test_evaluate_report_keys(self, tmp_path, prepped):
        report = tmp_path / "report.json"
        rc = main(["evaluate", "--data", str(prepped), "--baseline", "pop",
                   "--ks", "5", "--out", str(report)])
        assert rc == 0
        assert sorted(json.loads(report.read_text())) == ["ks", "metrics", "num_users",
                                                          "split"]

    @pytest.mark.parametrize("views", [["--user", "u1", "--histogram"],
                                       ["--histogram", "--modes"],
                                       ["--user", "u1", "--modes"]])
    def test_explain_out_with_several_views_rejected(self, tmp_path, capsys, views):
        out = tmp_path / "out"
        rc = main(["explain", "--data", str(tmp_path / "unread"), "--model",
                   str(tmp_path / "m.bin"), *views, "--out", str(out)])
        assert rc == 1 and not out.exists()
        assert "pass only one of --user, --histogram, --modes" in capsys.readouterr().err

    def test_embed_command(self, tmp_path, prepped):
        emb = tmp_path / "emb.bin"
        rc = main(["embed", "--data", str(prepped), "--out", str(emb),
                   *fast_overrides()])
        assert rc == 0
        from amarec.linalg import load_embeddings

        V = load_embeddings(emb)
        assert V.shape[1] == 4
        assert (tmp_path / "emb.bin.json").exists()

    def test_evaluate_baselines(self, tmp_path, prepped):
        rc = main(["evaluate", "--data", str(prepped), "--baseline", "pop",
                   "--ks", "5"])
        assert rc == 0
        rc = main(["evaluate", "--data", str(prepped), "--baseline", "puresvd",
                   "--set", "h=4", "--set", "gamma=3", "--ks", "5"])
        assert rc == 0

    def test_non_integer_value_of_integer_key_rejected(self, prepped, capsys, monkeypatch):
        svds = []
        monkeypatch.setattr(linalg, "randomized_svd", lambda *a, **kw: svds.append(a))
        rc = main(["evaluate", "--data", str(prepped), "--baseline", "puresvd",
                   "--set", "h=4.7"])
        assert rc == 1 and svds == []
        assert capsys.readouterr().err == "error: h must be an integer, got 4.7\n"

    @pytest.mark.parametrize("argv", [["embed", "--out", "emb.bin"],
                                      ["evaluate", "--baseline", "puresvd"],
                                      ["train", "--out", "m.bin"]])
    @pytest.mark.parametrize("setting, least", [("seed=-1", 0), ("gamma=-1", 0), ("h=-3", 1),
                                                ("epochs=-1", 0)])
    def test_negative_integer_rejected_before_any_svd(self, tmp_path, prepped, capsys,
                                                      monkeypatch, argv, setting, least):
        def no_svd(*args, **kwargs):
            raise AssertionError("the randomized SVD ran")

        monkeypatch.setattr(linalg, "embed_items", no_svd)
        monkeypatch.setattr(linalg, "randomized_svd", no_svd)
        argv = [str(tmp_path / a) if a.endswith(".bin") else a for a in argv]
        rc = main([*argv, "--data", str(prepped), "--set", setting])
        assert rc == 1 and not list(tmp_path.glob("*.bin"))
        key, value = setting.split("=")
        assert capsys.readouterr().err == f"error: {key} must be >= {least}, got {value}\n"

    @pytest.mark.parametrize("argv, setting, message", [
        (["evaluate", "--baseline", "pop"], "rho=1", "rho must lie in [0, 1), got 1.0"),
        (["explain", "--histogram", "--model", "m.bin"], "alpha=-1",
         "alpha must lie in [0, inf), got -1.0"),
    ])
    def test_evaluate_and_explain_refuse_a_training_only_key_out_of_range(
            self, tmp_path, prepped, capsys, argv, setting, message):
        # they do not read the training-only keys, but they check them
        argv = [str(tmp_path / a) if a == "m.bin" else a for a in argv]
        out = tmp_path / "out"
        rc = main([*argv, "--data", str(prepped), "--set", setting, "--out", str(out)])
        assert rc == 1 and not out.exists()
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_rank_is_an_unknown_key(self, tmp_path, prepped, capsys):
        # PureSVD's rank is h: the one SVD factor is the run config's V
        emb = tmp_path / "emb.bin"
        rc = main(["embed", "--data", str(prepped), "--out", str(emb), "--set", "rank=7"])
        assert rc == 1 and not emb.exists()
        assert capsys.readouterr().err == "error: --set: unknown config key 'rank'\n"

    def test_puresvd_scores_with_the_embedding_that_embed_writes(self, tmp_path, monkeypatch):
        # a split wide and tall enough for the preset's h=50
        ratings, split = tmp_path / "ratings.dat", tmp_path / "data"
        write_movielens_file(ratings, synthetic_events(m=80, n=70, per_user=40, seed=5))
        assert main(["prep", "--input", str(ratings), "--format", "movielens-dat",
                     "--threshold", "0", "--out", str(split)]) == 0
        emb = tmp_path / "emb.bin"
        assert main(["embed", "--data", str(split), "--preset", "ml1m-puresvd",
                     "--out", str(emb)]) == 0
        scored = []
        scorer = baselines.puresvd_scorer
        monkeypatch.setattr(baselines, "puresvd_scorer", lambda V: scored.append(V) or scorer(V))
        assert main(["evaluate", "--data", str(split), "--baseline", "puresvd",
                     "--preset", "ml1m-puresvd", "--ks", "5"]) == 0
        (V,) = scored
        assert V.shape == (70, 50)
        assert linalg.load_embeddings(emb).tobytes() == V.tobytes()

    @pytest.mark.parametrize("argv, h", [(["embed", "--out", "emb.bin"], 5000),
                                         (["embed", "--out", "emb.bin"], 0),
                                         (["train", "--out", "m.bin"], 5000),
                                         (["train", "--out", "m.bin"], 0)])
    def test_embedding_size_out_of_range_names_h(self, tmp_path, prepped, capsys, argv, h):
        # embed and train check one run config, so they refuse an h alike
        argv = [str(tmp_path / a) if a.endswith(".bin") else a for a in argv]
        rc = main([*argv, "--data", str(prepped), "--set", f"h={h}"])
        assert rc == 1 and not list(tmp_path.glob("*.bin"))
        err = capsys.readouterr().err
        assert (f"error: h={h} out of range: the embedding size must lie in [1, " if h else
                "error: h must be >= 1, got 0\n") in err
        assert "rank" not in err

    @pytest.mark.parametrize("setting, message", [
        ("d=0", "d must be >= 1, got 0"),
        ("kappa=0", "kappa must be >= 1, got 0"),
        ("batch_size=0", "batch_size must be >= 1, got 0"),
        ("alpha=-1", "alpha must lie in [0, inf), got -1.0"),
        ("lambda=-1", "lambda must lie in [0, inf), got -1.0"),
        ("rho=1", "rho must lie in [0, 1), got 1.0"),
        ("learning_rate=0", "learning_rate must lie in (0, inf), got 0.0"),
    ])
    def test_embed_refuses_what_train_refuses_before_any_svd(self, tmp_path, prepped, capsys,
                                                             monkeypatch, setting, message):
        def no_svd(*args, **kwargs):
            raise AssertionError("the randomized SVD ran")

        monkeypatch.setattr(linalg, "embed_items", no_svd)
        for command, out in (("embed", "emb.bin"), ("train", "m.bin")):
            rc = main([command, "--data", str(prepped), "--out", str(tmp_path / out),
                       "--set", setting])
            assert rc == 1 and not list(tmp_path.glob("*.bin*")), command
            assert f"error: {message}\n" in capsys.readouterr().err, command

    @pytest.mark.parametrize("h, message", [
        (0, "h must be >= 1, got 0\n"),
        (5000, "h=5000 out of range: the embedding size must lie in [1, "),
    ])
    def test_puresvd_rank_out_of_range_names_h(self, prepped, capsys, h, message):
        rc = main(["evaluate", "--data", str(prepped), "--baseline", "puresvd",
                   "--set", f"h={h}"])
        assert rc == 1
        assert f"error: {message}" in capsys.readouterr().err

    def test_unknown_split_nonzero(self, prepped, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["evaluate", "--data", str(prepped), "--baseline", "pop",
                  "--split", "dev"])
        assert exc.value.code == 2  # argparse rejects the choice

    def test_invalid_config_rejected_before_training(self, tmp_path, prepped, capsys):
        rc = main(["train", "--data", str(prepped), "--out", str(tmp_path / "m.bin"),
                   "--set", "d=0"])
        assert rc == 1
        assert "d" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["--set", "--config"])
    def test_algorithm_key_rejected_before_any_svd(self, tmp_path, prepped, capsys,
                                                   monkeypatch, source):
        # the command line alone picks the scorer; a config may not
        conf = tmp_path / "run.conf"
        conf.write_text("h=4\nalgorithm=ama\n")
        given = ["--set", "algorithm=pop"] if source == "--set" else ["--config", str(conf)]
        svds = []
        monkeypatch.setattr(linalg, "randomized_svd", lambda *a, **kw: svds.append(a))
        rc = main(["evaluate", "--data", str(prepped), "--baseline", "puresvd", *given])
        assert rc == 1 and svds == []
        where = "--set" if source == "--set" else f"{conf}:2"
        assert capsys.readouterr().err == f"error: {where}: unknown config key 'algorithm'\n"

    @pytest.mark.parametrize("key", ["alpha", "lambda", "rho", "learning_rate"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_float_rejected_before_any_svd(self, tmp_path, prepped, capsys,
                                                      monkeypatch, key, value):
        def no_svd(*args, **kwargs):
            raise AssertionError("the randomized SVD ran")

        monkeypatch.setattr(linalg, "embed_items", no_svd)
        out = tmp_path / "m.bin"
        rc = main(["train", "--data", str(prepped), "--out", str(out), "--set", f"{key}={value}"])
        assert rc == 1 and not out.exists()
        interval = {"rho": "[0, 1)", "learning_rate": "(0, inf)"}.get(key, "[0, inf)")
        assert capsys.readouterr().err == (f"error: {key} must lie in {interval}, "
                                           f"got {float(value)}\n")

    def test_out_of_range_setting_named_by_its_config_key(self, tmp_path, prepped, capsys):
        # the field is AmaConfig's `lam`; the user set the key `lambda`
        out = tmp_path / "m.bin"
        rc = main(["train", "--data", str(prepped), "--out", str(out), "--set", "lambda=-1"])
        assert rc == 1 and not out.exists()
        assert capsys.readouterr().err == "error: lambda must lie in [0, inf), got -1.0\n"

    def test_rho_one_refused(self, tmp_path, prepped, capsys):
        # at rho=1 corruption drops every entry, so no user would be trained
        out = tmp_path / "m.bin"
        rc = main(["train", "--data", str(prepped), "--out", str(out), "--set", "rho=1"])
        assert rc == 1 and not out.exists()
        assert capsys.readouterr().err == "error: rho must lie in [0, 1), got 1.0\n"

    # a step of 1e300 overflows the decode, and the overflow turns into NaNs
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_diverging_train_exits_1_without_a_model(self, tmp_path, prepped, capsys):
        out = tmp_path / "m.bin"
        rc = main(["train", "--data", str(prepped), "--out", str(out), *fast_overrides(),
                   "--set", "learning_rate=1e300"])
        assert rc == 1 and not out.exists()
        assert "error: non-finite objective" in capsys.readouterr().err

    @pytest.mark.parametrize("setting", ["optimizer=adam", "scale=none", "oversample=10"])
    def test_removed_key_rejected_before_any_svd(self, tmp_path, prepped, capsys,
                                                 monkeypatch, setting):
        svds = []
        monkeypatch.setattr(linalg, "randomized_svd", lambda *a, **kw: svds.append(a))
        rc = main(["train", "--data", str(prepped), "--out", str(tmp_path / "m.bin"),
                   "--set", setting])
        assert rc == 1 and svds == []
        key = setting.split("=")[0]
        assert f"unknown config key {key!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("cut", ["line-end", "mid-line"])
    def test_cut_train_file_rejected_before_any_svd(self, prepped, capsys, monkeypatch, cut):
        path = prepped / "train.csv"
        text = path.read_text()
        lines = text.splitlines(keepends=True)
        path.write_text("".join(lines[:-2]) if cut == "line-end" else text[:text.rindex(",")])
        svds = []
        monkeypatch.setattr(linalg, "randomized_svd", lambda *a, **kw: svds.append(a))
        rc = main(["evaluate", "--data", str(prepped), "--baseline", "puresvd"])
        assert rc == 1 and svds == []
        err = capsys.readouterr().err
        assert str(path) in err
        if cut == "line-end":
            assert f"holds {len(lines) - 3} interactions, but split.json records" in err
        else:
            assert f"line {len(lines)}: {path}: expected user_idx,item_idx, got '" in err

    def test_empty_validation_file_rejected(self, prepped, capsys):
        path = prepped / "validation.csv"
        path.write_bytes(b"")
        assert main(["evaluate", "--data", str(prepped), "--baseline", "pop"]) == 1
        assert f"line 1: {path}: empty file" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag, value", [
        (["evaluate", "--baseline", "pop"], "--ks", "5,0"),
        (["evaluate", "--baseline", "pop"], "--ks", "-3"),
        (["explain", "--histogram", "--model", "m.bin"], "--k", "0"),
        (["explain", "--histogram", "--model", "m.bin"], "--k", "-2"),
        (["explain", "--modes", "--model", "m.bin"], "--n", "-1"),
        (["evaluate", "--baseline", "pop"], "--ks", "5,x"),
    ])
    def test_non_positive_cutoff_rejected(self, tmp_path, prepped, capsys, command, flag,
                                          value):
        out = tmp_path / "out"
        rc = main([*command, f"{flag}={value}", "--data", str(prepped), "--out", str(out)])
        assert rc == 1 and not out.exists()
        assert f"{flag} takes integers >= 1, got {value}" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["5,5", "10,5,10"])
    def test_repeated_cutoff_rejected(self, tmp_path, prepped, capsys, value):
        out = tmp_path / "out"
        rc = main(["evaluate", "--baseline", "pop", f"--ks={value}", "--data", str(prepped),
                   "--out", str(out)])
        assert rc == 1 and not out.exists()
        assert f"--ks repeats a cutoff, got {value}" in capsys.readouterr().err

    def test_data_dir_from_env(self, tmp_path, prepped, monkeypatch):
        monkeypatch.setenv("AMAREC_DATA_DIR", str(prepped))
        rc = main(["evaluate", "--baseline", "pop", "--ks", "5"])
        assert rc == 0

    def test_no_data_dir_rejected(self, monkeypatch, capsys):
        monkeypatch.delenv("AMAREC_DATA_DIR", raising=False)
        assert main(["evaluate", "--baseline", "pop"]) == 1
        assert capsys.readouterr().err == (
            "error: no data directory: pass --data or set AMAREC_DATA_DIR\n")

    def test_evaluate_without_a_scorer_rejected(self, tmp_path, prepped, capsys, monkeypatch):
        out = tmp_path / "report.json"
        monkeypatch.setattr(dataset, "load_split", lambda *a: pytest.fail("split read"))
        with pytest.raises(SystemExit) as exc:
            main(["evaluate", "--data", str(prepped), "--out", str(out)])
        assert exc.value.code == 2 and not out.exists()
        assert "one of the arguments --model --baseline is required" in (
            capsys.readouterr().err)

    @pytest.mark.parametrize("flag", ["--out", "--log-prefix"])
    def test_train_refuses_a_missing_output_directory_before_the_split_is_read(
            self, tmp_path, capsys, monkeypatch, flag):
        monkeypatch.setattr(dataset, "load_split", lambda *a: pytest.fail("split read"))
        missing = tmp_path / "missing"
        paths = {"--out": str(tmp_path / "m.bin"), flag: str(missing / "x")}
        rc = main(["train", "--data", str(tmp_path), *[a for kv in paths.items() for a in kv]])
        assert rc == 1 and not missing.exists() and not (tmp_path / "m.bin").exists()
        assert capsys.readouterr().err == (
            f"error: {flag} {missing / 'x'}: directory {missing} does not exist\n")

    def test_unwritable_report_named_as_given(self, tmp_path, prepped, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc = main(["evaluate", "--data", str(prepped), "--baseline", "pop",
                   "--out", "missing/r.json"])
        err = capsys.readouterr().err
        assert rc == 1 and "'missing/r.json'" in err and ".tmp" not in err

    def test_model_and_baseline_together_rejected(self, tmp_path, prepped, capsys):
        out = tmp_path / "report.json"
        with pytest.raises(SystemExit) as exc:
            main(["evaluate", "--data", str(prepped), "--model", str(tmp_path / "m.bin"),
                  "--baseline", "pop", "--out", str(out)])
        assert exc.value.code == 2 and not out.exists()
        assert "argument --baseline: not allowed with argument --model" in (
            capsys.readouterr().err)

    def test_explain_without_a_report_rejected_before_the_split_is_read(self, tmp_path, capsys):
        rc = main(["explain", "--data", str(tmp_path / "no-split"), "--model",
                   str(tmp_path / "m.bin")])
        assert rc == 1
        assert capsys.readouterr().err == "error: pass one of --user, --histogram, --modes\n"

    def test_dot_without_user_rejected_before_the_split_is_read(self, tmp_path, capsys):
        dot = tmp_path / "x.dot"
        rc = main(["explain", "--data", str(tmp_path / "no-split"), "--model",
                   str(tmp_path / "m.bin"), "--histogram", "--dot", str(dot)])
        assert rc == 1 and not dot.exists()
        assert "--dot draws the per-user report; pass --user with it" in (
            capsys.readouterr().err)

    def test_split_repeating_a_user_id_rejected_by_explain(self, tmp_path, prepped, capsys):
        model, out = tmp_path / "model.bin", tmp_path / "user.json"
        assert main(["train", "--data", str(prepped), "--out", str(model),
                     *fast_overrides(), "--set", "epochs=0"]) == 0
        path = prepped / "split.json"
        meta = json.loads(path.read_text())
        user = meta["user_ids"][1] = meta["user_ids"][0]
        path.write_text(json.dumps(meta))
        rc = main(["explain", "--data", str(prepped), "--model", str(model), "--user", user,
                   "--out", str(out), *fast_overrides()])
        assert rc == 1 and not out.exists()
        assert f"{path}: user_ids repeats the id {user!r}" in capsys.readouterr().err

    def test_unknown_user_explain(self, tmp_path, prepped, capsys):
        model = tmp_path / "model.bin"
        assert main(["train", "--data", str(prepped), "--out", str(model),
                     *fast_overrides(), "--set", "epochs=0"]) == 0
        capsys.readouterr()
        rc = main(["explain", "--data", str(prepped), "--model", str(model),
                   "--user", "ghost", *fast_overrides()])
        assert rc == 1
        assert "unknown user id 'ghost'" in capsys.readouterr().err


def test_readme_cli_block_parses_and_its_presets_load():
    # every command of the fenced block under "## CLI" parses as written, and
    # every preset the README names ships
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## CLI\n.*?```\n(.*?)```", readme, re.S | re.M).group(1)
    commands = [line.split() for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("amarec ")]
    assert len(commands) >= 7
    for argv in commands:
        cli.build_parser().parse_args(argv[1:])
    presets = set(re.findall(r"(?:--preset |`)((?:ml1m|amazon-\w+)-[\w-]+)", readme))
    assert {"ml1m-ama", "ml1m-pop", "ml1m-puresvd"} <= presets
    for name in presets:
        load_preset(name)


def test_unknown_split_raises_systemexit_guard():
    # argparse exits with code 2 on bad choices; ensure main() surfaces it
    with pytest.raises(SystemExit):
        main(["evaluate", "--split", "dev", "--data", "x", "--frobnicate"])


def _glibc():
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


_REUSE_PROBE = """
import resource, sys
import numpy as np
if sys.argv[1]:
    import amarec.training


def allocate():   # 27 touched arrays of 3 MiB, below numpy's huge-page size
    arrays = [np.ones(3 << 17) for _ in range(27)]
    del arrays


allocate()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
allocate()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not _glibc(), reason="the allocator setting applies to glibc only")
def test_importing_the_library_keeps_freed_memory_for_reuse():
    # a script that trains through the library, not the CLI, gets the same
    # allocator policy; the probe without the import shows the fault it avoids
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}

    def faults(imported):
        run = subprocess.run([sys.executable, "-c", _REUSE_PROBE, "1" if imported else ""],
                             env=env, capture_output=True, text=True, check=True, timeout=60)
        return int(run.stdout)

    assert faults(imported=True) < 1000 < faults(imported=False)


@pytest.mark.skipif(not _glibc(), reason="the allocator setting applies to glibc only")
def test_main_keeps_freed_memory_for_reuse(tmp_path, capsys):
    # about 81 MB freed at the top of the heap is more than glibc's adaptive
    # trim threshold (at most 64 MB) would keep, so without the setting that
    # importing amarec applies, the second round faults every page in again
    # (about 20,000 faults)
    main(["prep", "--input", str(tmp_path / "nope.dat"), "--format", "movielens-dat",
          "--out", str(tmp_path / "o")])

    def allocate():   # 27 touched arrays of 3 MiB, below numpy's huge-page size
        arrays = [np.ones(3 << 17) for _ in range(27)]
        del arrays

    allocate()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    allocate()
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 1000
