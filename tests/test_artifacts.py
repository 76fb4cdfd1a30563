"""Artifact provenance: the model decides its embeddings, loaders reject damaged
files, and the CLI's documented keys and shipped presets stay in step."""

import builtins
import dataclasses
import hashlib
import json
import re
import struct
import types

import importlib.resources
import numpy as np
import pytest
import scipy.sparse as sp

from amarec import cli, fileio, linalg, training
from amarec import model as model_module
from amarec.cli import main
from amarec.dataset import binarize, load_split, save_split, temporal_split
from amarec.linalg import load_embeddings, save_embeddings
from amarec.model import AmaConfig, init_params, load_model, save_model
from conftest import synthetic_events, write_movielens_file
from oracles import float64_init_oracle

SMALL = ["--set", "d=2", "--set", "kappa=2", "--set", "epochs=2", "--set", "batch_size=8"]


def prep(tmp_path, name, seed):
    ratings = tmp_path / f"{name}.dat"
    write_movielens_file(ratings, synthetic_events(m=25, n=15, per_user=12, seed=seed))
    out = tmp_path / name
    assert main(["prep", "--input", str(ratings), "--format", "movielens-dat",
                 "--threshold", "2", "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A split and a model trained on it with h=4 and the default gamma=10 and
    seed=0."""
    tmp = tmp_path_factory.mktemp("trained")
    data = prep(tmp, "data", seed=4)
    model = tmp / "model.bin"
    assert main(["train", "--data", str(data), "--out", str(model),
                 "--set", "h=4", *SMALL]) == 0
    return tmp, data, model


def without_stored_v(model, path, edit=lambda sidecar: None):
    """A copy of ``model`` at ``path`` as if saved without V, its sidecar
    changed by ``edit``."""
    sidecar = json.loads(model.with_name(model.name + ".json").read_text())
    del sidecar["embedding_sha256"]
    edit(sidecar)
    path.write_bytes(model.read_bytes())
    path.with_name(path.name + ".json").write_text(json.dumps(sidecar))
    return path


def run_config(model):
    """The AmaConfig that ``model``'s sidecar records."""
    return AmaConfig(**json.loads(model.with_name(model.name + ".json").read_text())["config"])


def evaluate(data, model, *extra):
    return main(["evaluate", "--data", str(data), "--model", str(model), "--ks", "5",
                 *extra])


class TestModelDecidesEmbeddings:
    def test_sidecar_records_recipe_and_train_hash(self, trained):
        _, _, model = trained
        sidecar = json.loads((model.parent / "model.bin.json").read_text())
        assert "embedding" not in sidecar   # the config holds h, gamma and seed
        cfg = run_config(model)
        assert (cfg.h, cfg.gamma, cfg.seed) == (4, 10, 0)
        assert len(sidecar["item_index_hash"]) == 64

    def test_checkpoint_records_recipe_and_train_hash(self, tmp_path, monkeypatch):
        # a run stopped after its first checkpoint leaves that checkpoint as the model
        class Stopped(Exception):
            pass

        inner = training.train

        def stopped_after_first_epoch(data, V, cfg, params=None, callback=None):
            def then_stop(epoch, current):
                callback(epoch, current)
                raise Stopped

            return inner(data, V, cfg, params=params, callback=then_stop)

        monkeypatch.setattr(training, "train", stopped_after_first_epoch)
        data, model = prep(tmp_path, "data", seed=4), tmp_path / "ckpt.bin"
        with pytest.raises(Stopped):
            main(["train", "--data", str(data), "--out", str(model), "--checkpoint-every",
                  "1", "--set", "h=4", "--set", "gamma=3", *SMALL])
        sidecar = json.loads((tmp_path / "ckpt.bin.json").read_text())
        assert "embedding" not in sidecar
        cfg = run_config(model)
        assert (cfg.h, cfg.gamma, cfg.seed) == (4, 3, 0)
        assert len(sidecar["item_index_hash"]) == 64
        assert load_model(model)[3] is not None   # the checkpoint stores its V

    def test_sidecar_records_the_optimizer_settings(self, tmp_path):
        data, model = prep(tmp_path, "data", seed=4), tmp_path / "m.bin"
        assert main(["train", "--data", str(data), "--out", str(model), "--set", "h=4",
                     *SMALL, "--set", "learning_rate=0.01", "--set", "batch_size=7"]) == 0
        config = json.loads((tmp_path / "m.bin.json").read_text())["config"]
        assert (config["learning_rate"], config["batch_size"]) == (0.01, 7)
        assert config == dataclasses.asdict(run_config(model))

    def test_embed_records_full_recipe(self, trained):
        tmp, data, _ = trained
        emb = tmp / "emb.bin"
        assert main(["embed", "--data", str(data), "--out", str(emb),
                     "--set", "h=4", "--set", "gamma=3"]) == 0
        meta = json.loads((tmp / "emb.bin.json").read_text())
        assert meta.pop("source_hash") == linalg.matrix_hash(load_split(data).train)
        assert meta == {"h": 4, "gamma": 3, "seed": 0}

    @pytest.mark.parametrize("command", ["evaluate", "explain"])
    @pytest.mark.parametrize("key,given,recorded", [
        ("gamma", "3", "10"), ("h", "5", "4"), ("seed", "1", "0"),
    ])
    def test_mismatched_recipe_key_rejected(self, trained, capsys, command, key,
                                            given, recorded):
        _, data, model = trained
        what = ["--ks", "5"] if command == "evaluate" else ["--histogram"]
        rc = main([command, "--data", str(data), "--model", str(model), *what,
                   "--set", f"{key}={given}"])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"{key}={recorded}" in err and f"{key}={given}" in err

    @pytest.mark.parametrize("command", ["evaluate", "explain"])
    @pytest.mark.parametrize("key,given,recorded", [
        ("gamma", "3", "10"), ("h", "5", "4"), ("seed", "1", "0"),
    ])
    def test_mismatched_key_on_a_model_saved_without_v_rejected_before_any_svd(
            self, trained, tmp_path, capsys, monkeypatch, command, key, given, recorded):
        # such a model rebuilds its V, but only after the configuration agrees with it
        def no_svd(*args, **kwargs):
            raise AssertionError("the randomized SVD ran")

        _, data, model = trained
        bare = without_stored_v(model, tmp_path / "bare.bin")
        monkeypatch.setattr(linalg, "embed_items", no_svd)
        what = ["--ks", "5"] if command == "evaluate" else ["--histogram"]
        assert main([command, "--data", str(data), "--model", str(bare), *what,
                     "--set", f"{key}={given}"]) == 1
        assert (f"{bare} was trained with {key}={recorded}, but the configuration gives "
                f"{key}={given}") in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["evaluate", "explain"])
    @pytest.mark.parametrize("key,value", [
        ("scale", "sqrt-sigma"), ("oversample", 3), ("power_iters", 2),
    ])
    def test_retired_embedding_key_in_the_config_refused(self, trained, tmp_path, capsys,
                                                         command, key, value):
        # V is rebuilt from h, gamma and seed alone, so a config that records
        # another embedding setting names a V this version cannot build
        _, data, model = trained
        recorded = without_stored_v(model, tmp_path / "other.bin",
                                    lambda sc: sc["config"].update({key: value}))
        what = ["--ks", "5"] if command == "evaluate" else ["--histogram"]
        assert main([command, "--data", str(data), "--model", str(recorded), *what]) == 1
        assert (f"model sidecar {recorded}.json: unknown config key {key!r}"
                in capsys.readouterr().err)

    def test_report_independent_of_matching_flags(self, trained):
        tmp, data, model = trained
        bare, flagged = tmp / "bare.json", tmp / "flagged.json"
        assert evaluate(data, model, "--out", str(bare)) == 0
        assert evaluate(data, model, "--out", str(flagged), "--set", "h=4",
                        "--set", "gamma=10", "--set", "seed=0") == 0
        assert bare.read_bytes() == flagged.read_bytes()

    @pytest.mark.parametrize("command", ["evaluate", "explain"])
    @pytest.mark.parametrize("key,given,recorded", [("d", "5", "2"), ("kappa", "3", "2")])
    def test_size_key_that_disagrees_with_the_arrays_rejected(self, trained, capsys, command,
                                                              key, given, recorded):
        _, data, model = trained
        what = ["--ks", "5"] if command == "evaluate" else ["--histogram"]
        rc = main([command, "--data", str(data), "--model", str(model), *what,
                   "--set", f"{key}={given}"])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"{key}={recorded}" in err and f"{key}={given}" in err

    def test_training_only_keys_not_read(self, trained):
        # the model was trained with epochs=2, batch_size=8 and the default
        # learning rate, alpha, lambda and rho; evaluate reads none of them
        tmp, data, model = trained
        bare, flagged = tmp / "bare-run.json", tmp / "flagged-run.json"
        assert evaluate(data, model, "--out", str(bare)) == 0
        assert evaluate(data, model, "--out", str(flagged), "--set", "epochs=9",
                        "--set", "batch_size=3", "--set", "learning_rate=0.5",
                        "--set", "alpha=7", "--set", "lambda=0.2", "--set", "rho=0.9",
                        "--set", "d=2", "--set", "kappa=2") == 0
        assert bare.read_bytes() == flagged.read_bytes()

    def test_different_train_matrix_rejected(self, trained, capsys):
        tmp, data, model = trained
        other = prep(tmp, "other", seed=5)
        split = json.loads((other / "split.json").read_text())
        assert len(split["item_ids"]) == len(json.loads(
            (data / "split.json").read_text())["item_ids"])
        assert evaluate(other, model) == 1
        assert "different train matrix" in capsys.readouterr().err

    def test_item_count_mismatch_rejected(self, trained, capsys):
        tmp, data, _ = trained
        cfg = AmaConfig(h=4, d=2, kappa=2)
        n = len(json.loads((data / "split.json").read_text())["item_ids"])
        path = tmp / "wide.bin"
        save_model(init_params(n + 1, cfg), cfg, path)
        assert evaluate(data, path) == 1
        assert f"{n + 1} items" in capsys.readouterr().err

    def test_sidecar_without_recipe_means_default_recipe(self, trained, capsys):
        tmp, data, _ = trained
        cfg = AmaConfig(h=4, d=2, kappa=2)
        n = len(json.loads((data / "split.json").read_text())["item_ids"])
        path = tmp / "drawn.bin"
        save_model(init_params(n, cfg), cfg, path)
        assert "embedding" not in json.loads((tmp / "drawn.bin.json").read_text())
        assert evaluate(data, path, "--set", "gamma=10", "--set", "seed=0") == 0
        assert evaluate(data, path, "--set", "gamma=3") == 1
        assert "gamma=10" in capsys.readouterr().err

    def test_one_read_of_the_sidecar_per_command(self, trained, tmp_path, monkeypatch):
        _, data, model = trained
        real_open, opened = builtins.open, []

        def counting_open(file, *args, **kwargs):
            opened.append(str(file))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        for argv in (["evaluate", "--ks", "5"], ["explain", "--histogram", "--k", "5"]):
            opened.clear()
            assert main([*argv, "--data", str(data), "--model", str(model),
                         "--out", str(tmp_path / "out")]) == 0
            assert opened.count(f"{model}.json") == 1, argv

    def test_explain_unknown_user_with_matching_flags(self, trained, capsys):
        _, data, model = trained
        rc = main(["explain", "--data", str(data), "--model", str(model),
                   "--user", "ghost", "--set", "h=4", *SMALL])
        assert rc == 1
        assert "unknown user" in capsys.readouterr().err


class TestStoredEmbedding:
    """train stores its V beside the model; evaluate and explain read it."""

    @staticmethod
    def reports(data, model, out):
        """Runs evaluate on both splits and every explain report on ``model``,
        writing into the directory ``out``; returns each output's bytes."""
        out.mkdir()
        uid = json.loads((data / "split.json").read_text())["user_ids"][0]
        runs = [["evaluate", "--ks", "5", "--out", str(out / "test.json")],
                ["evaluate", "--ks", "5", "--split", "validation",
                 "--out", str(out / "validation.json")],
                ["explain", "--histogram", "--k", "5", "--out", str(out / "hist.csv")],
                ["explain", "--modes", "--n", "3", "--out", str(out / "modes.csv")],
                ["explain", "--user", uid, "--k", "5", "--out", str(out / "user.json"),
                 "--dot", str(out / "user.dot")]]
        for argv in runs:
            assert main([*argv, "--data", str(data), "--model", str(model)]) == 0, argv
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    def test_train_writes_the_v_pair_embed_writes(self, tmp_path):
        data = prep(tmp_path, "data", seed=4)
        flags = ["--data", str(data), "--preset", "ml1m-ama", "--set", "h=4",
                 "--set", "gamma=3", "--set", "seed=2"]
        assert main(["train", *flags, *SMALL, "--out", str(tmp_path / "m")]) == 0
        assert main(["embed", *flags, "--out", str(tmp_path / "items.emb")]) == 0
        for suffix in ("", ".json"):
            assert (tmp_path / f"m.emb{suffix}").read_bytes() == \
                (tmp_path / f"items.emb{suffix}").read_bytes(), suffix
        payload = (tmp_path / "m.emb").read_bytes()[24:]
        sidecar = json.loads((tmp_path / "m.json").read_text())
        assert sidecar["embedding_sha256"] == hashlib.sha256(payload).hexdigest()

    def test_commands_on_a_trained_model_run_no_svd(self, trained, tmp_path, monkeypatch):
        def no_svd(*args, **kwargs):
            raise AssertionError("the randomized SVD ran")

        _, data, model = trained
        monkeypatch.setattr(linalg, "embed_items", no_svd)
        monkeypatch.setattr(linalg, "randomized_svd", no_svd)
        assert len(self.reports(data, model, tmp_path / "out")) == 6

    def test_stored_and_rebuilt_v_give_identical_outputs(self, trained, tmp_path):
        _, data, model = trained
        params, cfg, trained_on, V = load_model(model)
        assert V is not None
        bare = tmp_path / "bare.bin"
        save_model(params, cfg, bare, item_index_hash=trained_on)
        assert load_model(bare)[3] is None and not (tmp_path / "bare.bin.emb").exists()
        stored = self.reports(data, model, tmp_path / "stored")
        assert stored == self.reports(data, bare, tmp_path / "rebuilt")

    def test_a_save_without_v_removes_the_pair_an_earlier_save_left(self, trained, tmp_path):
        _, _, model = trained
        params, cfg, trained_on, V = load_model(model)
        path = tmp_path / "m.bin"
        save_model(params, cfg, path, item_index_hash=trained_on, V=V)
        assert (tmp_path / "m.bin.emb").exists() and (tmp_path / "m.bin.emb.json").exists()
        save_model(params, cfg, path, item_index_hash=trained_on)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.bin", "m.bin.json"]
        assert load_model(path)[3] is None

    def test_a_model_saved_without_v_rebuilds_it_with_its_gamma(self, tmp_path, capsys):
        # the bench saves its drawn model so, and a rebuild must use the gamma it was made with
        data, model = prep(tmp_path, "data", seed=4), tmp_path / "m.bin"
        assert main(["train", "--data", str(data), "--out", str(model), "--set", "h=4",
                     "--set", "gamma=3", *SMALL]) == 0
        params, _, trained_on, _ = load_model(model)
        bare = tmp_path / "bare.bin"
        save_model(params, run_config(model), bare, item_index_hash=trained_on)
        stored = self.reports(data, model, tmp_path / "stored")
        assert stored == self.reports(data, bare, tmp_path / "rebuilt")
        for path in (model, bare):
            assert evaluate(data, path, "--set", "gamma=10") == 1
            assert (f"{path} was trained with gamma=3, but the configuration gives gamma=10"
                    in capsys.readouterr().err)

    @staticmethod
    def assert_older_sidecar_refused(data, model, tmp_path, capsys, edit, message):
        """A copy of ``model`` and its V pair, its sidecar changed by ``edit`` into
        the form an earlier version wrote, is refused by ``load_model``,
        ``evaluate`` and ``explain`` with ``message``, which names the sidecar
        ``{older}.json``."""
        older = tmp_path / "older.bin"
        for suffix in ("", ".emb", ".emb.json"):
            (tmp_path / f"older.bin{suffix}").write_bytes(
                model.with_name(model.name + suffix).read_bytes())
        sidecar = json.loads(model.with_name(model.name + ".json").read_text())
        edit(sidecar)
        (tmp_path / "older.bin.json").write_text(json.dumps(sidecar))
        message = message.format(older=older)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_model(older)
        for argv in (["evaluate", "--ks", "5"], ["explain", "--histogram", "--k", "5"]):
            out = tmp_path / "out"
            assert main([*argv, "--data", str(data), "--model", str(older),
                         "--out", str(out)]) == 1
            assert not out.exists() and message in capsys.readouterr().err

    def test_a_sidecar_without_the_optimizer_settings_refused(self, trained, tmp_path,
                                                               capsys):
        # sidecars written before learning_rate and batch_size were recorded lack them
        _, data, model = trained

        def edit(sidecar):
            sidecar["config"].pop("learning_rate")
            sidecar["config"].pop("batch_size")

        self.assert_older_sidecar_refused(
            data, model, tmp_path, capsys, edit,
            "model sidecar {older}.json: config lacks the key 'batch_size'")

    def test_a_sidecar_recording_gamma_in_an_embedding_object_refused(self, trained, tmp_path,
                                                                      capsys):
        # sidecars written before gamma joined the config held it in an embedding object
        _, data, model = trained

        def edit(sidecar):
            sidecar["embedding"] = {"h": 4, "gamma": sidecar["config"].pop("gamma"), "seed": 0}

        self.assert_older_sidecar_refused(
            data, model, tmp_path, capsys, edit,
            "model sidecar {older}.json: config lacks the key 'gamma'")

    def test_nan_in_the_stored_v_stops_explain(self, trained, tmp_path, capsys):
        _, data, model = trained
        copy = tmp_path / "nan.bin"
        for suffix in ("", ".emb", ".emb.json"):
            (tmp_path / f"nan.bin{suffix}").write_bytes(
                model.with_name(model.name + suffix).read_bytes())
        emb = tmp_path / "nan.bin.emb"
        raw = bytearray(emb.read_bytes())
        raw[-8:] = struct.pack("<d", float("nan"))
        emb.write_bytes(bytes(raw))
        sidecar = json.loads(model.with_name(model.name + ".json").read_text())
        sidecar["embedding_sha256"] = hashlib.sha256(raw[24:]).hexdigest()
        (tmp_path / "nan.bin.json").write_text(json.dumps(sidecar))
        out = tmp_path / "modes.csv"
        assert main(["explain", "--data", str(data), "--model", str(copy), "--modes",
                     "--out", str(out)]) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert f"damaged embedding file {emb}: it holds a non-finite value" in err
        assert f"model sidecar {copy}.json" in err


class TestAlgorithmKey:
    def test_pop_preset_alone_matches_baseline_flag(self, trained):
        tmp, data, _ = trained
        by_preset, by_flag = tmp / "pop_preset.json", tmp / "pop_flag.json"
        assert main(["evaluate", "--data", str(data), "--preset", "ml1m-pop",
                     "--out", str(by_preset)]) == 0
        assert main(["evaluate", "--data", str(data), "--baseline", "pop",
                     "--out", str(by_flag)]) == 0
        assert by_preset.read_bytes() == by_flag.read_bytes()

    @pytest.mark.parametrize("preset,which", [
        ("ml1m-pop", "--model"), ("ml1m-puresvd", "--baseline=pop"),
        ("ml1m-ama", "--baseline=pop"),
    ])
    def test_contradicting_scorer_rejected(self, trained, capsys, preset, which):
        _, data, model = trained
        which = ["--model", str(model)] if which == "--model" else [which]
        assert main(["evaluate", "--data", str(data), "--preset", preset, *which]) == 1
        assert "algorithm=" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "explain"])
    def test_train_and_explain_need_ama(self, trained, capsys, command):
        tmp, data, model = trained
        extra = ["--out", str(tmp / "x.bin")] if command == "train" else [
            "--model", str(model), "--histogram"]
        assert main([command, "--data", str(data), "--preset", "ml1m-puresvd",
                     *extra]) == 1
        assert "algorithm=ama" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["embed", "explain", "train", "evaluate"])
    def test_no_threads_flag(self, trained, command):
        _, data, _ = trained
        with pytest.raises(SystemExit) as exc:
            main([command, "--data", str(data), "--threads", "2", "--out", "x"])
        assert exc.value.code == 2


class TestDrift:
    def test_documented_keys_equal_parsed_keys(self):
        block = cli.__doc__.split("Recognized keys", 1)[1].split("\n\n", 1)[1]
        block = block.split("\n\n", 1)[0]
        documented = {re.match(r"\s+(\w+)\s", line).group(1) for line in block.splitlines()}
        assert documented == cli._RUN_KEYS.keys() | cli._CHOICES.keys()

    def test_every_parsed_key_reaches_a_consumer(self):
        # a key parses only if AmaConfig or the scorer choice reads it
        for key in cli._RUN_KEYS.keys() | cli._CHOICES.keys():
            value = cli._CHOICES.get(key, ("2",))[0]
            assert cli.parse_config_text(f"{key}={value}") == {key: int(value) if value == "2"
                                                                else value}
        for key in ("rank", "lam", "iters", "oversample", "scale"):
            with pytest.raises(cli.CliError, match=f"unknown config key {key!r}"):
                cli.parse_config_text(f"{key}=2")

    def test_every_config_field_is_set_by_one_key(self):
        # lam is set as lambda and every other field by its own name, so a
        # field added without a key, two keys for one field, or a key that
        # names no field fails here
        fields = sorted(f.name for f in dataclasses.fields(AmaConfig))
        assert sorted(cli._RUN_KEYS.values()) == fields and cli._RUN_KEYS["lambda"] == "lam"
        defaults = AmaConfig()
        cfg = cli.parse_config_text("\n".join(
            f"{key}={i + 2 if isinstance(getattr(defaults, field), int) else 1 / (i + 2)}"
            for i, (key, field) in enumerate(cli._RUN_KEYS.items())))
        run = cli._run_config(cfg)
        assert {key: getattr(run, field) for key, field in cli._RUN_KEYS.items()} == cfg

    def test_every_preset_builds(self):
        presets = importlib.resources.files("amarec").joinpath("presets")
        names = sorted(p.name[:-5] for p in presets.iterdir() if p.name.endswith(".conf"))
        assert len(names) == 9
        rng = np.random.default_rng(0)
        train = sp.csr_matrix((rng.random((220, 220)) < 0.1).astype(np.float64))
        data = types.SimpleNamespace(train=train)
        for name in names:
            cfg = cli.load_preset(name)
            run = cli._run_config(cfg)
            assert (run.h, run.gamma) == (cfg.get("h", 40), cfg.get("gamma", 10))
            if cfg["algorithm"] == "ama":
                assert run.lam == cfg["lambda"] and run.d == cfg["d"]
            else:
                args = types.SimpleNamespace(model=None, baseline=None)
                scores = cli._scorer_for(args, data, cfg, run)(train[:1], np.array([0]))
                assert scores.shape == (1, 220)


class TestDamagedFiles:
    @pytest.fixture()
    def model_path(self, tmp_path):
        cfg = AmaConfig(h=3, d=2, kappa=2)
        path = tmp_path / "m.bin"
        save_model(init_params(5, cfg), cfg, path)
        return path

    def test_truncated_model_rejected(self, model_path):
        model_path.write_bytes(model_path.read_bytes()[:-8])
        with pytest.raises(ValueError, match="damaged model file"):
            load_model(model_path)

    def test_model_with_trailing_bytes_rejected(self, model_path):
        model_path.write_bytes(model_path.read_bytes() + b"\0")
        with pytest.raises(ValueError, match="damaged model file"):
            load_model(model_path)

    def test_model_with_bad_magic_rejected(self, model_path):
        model_path.write_bytes(b"AMAMDL02" + model_path.read_bytes()[8:])
        with pytest.raises(ValueError, match=f"^bad magic bytes in {re.escape(str(model_path))}$"):
            load_model(model_path)

    def test_model_of_another_version_rejected(self, model_path):
        raw = model_path.read_bytes()
        model_path.write_bytes(raw[:8] + struct.pack("<I", 2) + raw[12:])
        with pytest.raises(ValueError, match="^unsupported model version 2$"):
            load_model(model_path)

    def test_model_header_truncated_rejected(self, model_path):
        model_path.write_bytes(model_path.read_bytes()[:20])
        with pytest.raises(ValueError, match="damaged model file"):
            load_model(model_path)

    @pytest.mark.parametrize("name", ["W_k", "S"])
    @pytest.mark.parametrize("value", [np.nan, -np.inf])
    def test_non_finite_parameter_rejected(self, model_path, name, value):
        params, cfg = load_model(model_path)[0], run_config(model_path)
        getattr(params, name)[-1, -1] = value
        save_model(params, cfg, model_path)
        with pytest.raises(ValueError, match=f"parameter {name} holds a non-finite value"):
            load_model(model_path)

    def test_non_finite_parameter_stops_evaluate_and_explain(self, trained, tmp_path, capsys):
        _, data, model = trained
        params, cfg = load_model(model)[0], run_config(model)
        params.S[0, 0] = np.nan
        bad = tmp_path / "nan.bin"
        save_model(params, cfg, bad)
        (tmp_path / "nan.bin.json").write_text((model.parent / "model.bin.json").read_text())
        for argv in (["evaluate", "--ks", "5"], ["explain", "--histogram", "--k", "5"]):
            out = tmp_path / "out"
            assert main([*argv, "--data", str(data), "--model", str(bad), "--out", str(out)]) == 1
            assert not out.exists()
            assert "parameter S holds a non-finite value" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["n", "h", "d", "kappa"])
    def test_sidecar_dims_disagree_rejected(self, model_path, key):
        sidecar_path = model_path.parent / "m.bin.json"
        sidecar = json.loads(sidecar_path.read_text())
        sidecar[key] += 1
        sidecar_path.write_text(json.dumps(sidecar))
        with pytest.raises(ValueError, match=f"{key}="):
            load_model(model_path)

    @pytest.mark.parametrize("edit, field", [
        (lambda sc: sc["config"].update(kappa=12),
         "the config gives kappa=12, but the parameters have kappa=2"),
        (lambda sc: sc["config"].update(h=4), "the config gives h=4, but the parameters have h=3"),
        (lambda sc: sc["config"].update(beta=1), "unknown config key 'beta'"),
        (lambda sc: sc["config"].pop("rho"), "config lacks the key 'rho'"),
        (lambda sc: sc["config"].update(h="3"), "config: h must be an integer, got '3'"),
        (lambda sc: sc["config"].update(d=True), "config: d must be an integer, got True"),
        (lambda sc: sc["config"].update(lam=float("nan")),
         "config: lam must lie in [0, inf), got nan"),
        (lambda sc: sc["config"].update(rho=1.5), "config: rho must lie in [0, 1)"),
        (lambda sc: sc.update(config=[3]), "config must be a JSON object"),
        (lambda sc: sc.pop("item_index_hash"), "item_index_hash must be a string, got None"),
        (lambda sc: sc.update(item_index_hash=7), "item_index_hash must be a string, got 7"),
        (lambda sc: sc["config"].update(gamma=-2), "config: gamma must be >= 0, got -2"),
        (lambda sc: sc["config"].update(gamma="3"), "config: gamma must be an integer, got '3'"),
        (lambda sc: sc["config"].update(gamma=3.0), "config: gamma must be an integer, got 3.0"),
        (lambda sc: sc["config"].update(gamma=True),
         "config: gamma must be an integer, got True"),
        (lambda sc: sc["config"].update(seed=-1), "config: seed must be >= 0, got -1"),
        (lambda sc: sc["config"].update(learning_rate=0),
         "config: learning_rate must lie in (0, inf), got 0.0"),
        (lambda sc: sc["config"].update(learning_rate=float("nan")),
         "config: learning_rate must lie in (0, inf), got nan"),
        (lambda sc: sc["config"].update(batch_size=1.5),
         "config: batch_size must be an integer, got 1.5"),
        (lambda sc: sc["config"].update(batch_size=True),
         "config: batch_size must be an integer, got True"),
        (lambda sc: sc["config"].update(rho=True), "config: rho must be a real number, got True"),
        (lambda sc: sc["config"].update(alpha="1.0"),
         "config: alpha must be a real number, got '1.0'"),
    ], ids=["config-kappa", "config-h", "unknown-key", "missing-key", "string-h", "bool-d",
            "nan-lam", "rho-range", "config-list", "no-hash", "int-hash",
            "config-negative-gamma", "config-string-gamma", "config-float-gamma",
            "config-bool-gamma", "config-negative-seed", "zero-learning-rate",
            "nan-learning-rate", "float-batch-size", "bool-batch-size", "bool-rho",
            "string-alpha"])
    def test_malformed_sidecar_rejected_naming_file_and_field(self, model_path, edit, field):
        sidecar_path = model_path.parent / "m.bin.json"
        sidecar = json.loads(sidecar_path.read_text())
        edit(sidecar)
        sidecar_path.write_text(json.dumps(sidecar))
        with pytest.raises(ValueError) as exc:
            load_model(model_path)
        assert str(exc.value).startswith(f"model sidecar {sidecar_path}")
        assert field in str(exc.value)

    def test_sidecar_that_is_not_an_object_rejected(self, model_path):
        sidecar_path = model_path.parent / "m.bin.json"
        sidecar_path.write_text("[1, 2]\n")
        with pytest.raises(ValueError, match=re.escape(f"{sidecar_path} is not a JSON object")):
            load_model(model_path)

    @pytest.mark.parametrize("text", [b"{oops", b"\xff{}"], ids=["truncated", "not-utf-8"])
    def test_unreadable_sidecar_names_the_file(self, trained, tmp_path, capsys, text):
        _, data, model = trained
        bad = tmp_path / "m.bin"
        bad.write_bytes(model.read_bytes())
        (tmp_path / "m.bin.json").write_bytes(text)
        assert evaluate(data, bad) == 1
        assert capsys.readouterr().err.startswith(
            f"error: model sidecar {bad}.json is not readable JSON: ")

    def test_sidecar_without_recipe_or_hash_loads(self, model_path):
        sidecar = json.loads((model_path.parent / "m.bin.json").read_text())
        assert "embedding" not in sidecar and sidecar["item_index_hash"] == ""
        assert sidecar["config"] == dataclasses.asdict(AmaConfig(h=3, d=2, kappa=2))
        assert load_model(model_path)[1:] == (AmaConfig(h=3, d=2, kappa=2), "", None)

    @pytest.mark.parametrize("changes", [
        {"seed": 7}, {"gamma": 2}, {"gamma": 0},
        {"alpha": 2.0, "lam": 0.1, "rho": 0.5, "epochs": 0, "learning_rate": 0.01,
         "batch_size": 4},
        {"gamma": 2, "seed": 5, "epochs": 7},
    ], ids=["seed-7", "gamma-2", "gamma-0", "training-keys", "gamma-seed-epochs"])
    def test_load_model_returns_the_recorded_config(self, model_path, changes):
        sidecar_path = model_path.parent / "m.bin.json"
        sidecar = json.loads(sidecar_path.read_text())
        sidecar["config"].update(changes)
        sidecar_path.write_text(json.dumps(sidecar))
        assert load_model(model_path)[1:] == (AmaConfig(h=3, d=2, kappa=2, **changes), "",
                                              None)

    def test_config_disagreeing_with_header_stops_evaluate_and_explain(self, trained,
                                                                       tmp_path, capsys):
        _, data, model = trained
        bad = tmp_path / "kappa.bin"
        bad.write_bytes(model.read_bytes())
        sidecar = json.loads((model.parent / "model.bin.json").read_text())
        sidecar["config"]["kappa"] = 12
        (tmp_path / "kappa.bin.json").write_text(json.dumps(sidecar))
        for argv in (["evaluate", "--ks", "5"], ["explain", "--histogram", "--k", "5"]):
            out = tmp_path / "out"
            assert main([*argv, "--data", str(data), "--model", str(bad), "--out", str(out)]) == 1
            assert not out.exists()
            assert (f"model sidecar {bad}.json: the config gives kappa=12, but the "
                    "parameters have kappa=2") in capsys.readouterr().err

    @pytest.fixture()
    def with_v(self, tmp_path):
        """A model saved with V, and that V."""
        cfg = AmaConfig(h=3, d=2, kappa=2)
        V = np.random.default_rng(2).standard_normal((5, 3))
        path = tmp_path / "v.bin"
        save_model(init_params(5, cfg), cfg, path, item_index_hash="abc", V=V)
        return path, V

    @staticmethod
    def record(path, value):
        sidecar_path = path.with_name(path.name + ".json")
        sidecar = json.loads(sidecar_path.read_text())
        sidecar["embedding_sha256"] = value
        sidecar_path.write_text(json.dumps(sidecar))

    @pytest.mark.parametrize("value", ["abc", "g" * 64, "A" * 64, 7, None])
    def test_malformed_recorded_hash_rejected(self, with_v, value):
        path, _ = with_v
        self.record(path, value)
        with pytest.raises(ValueError, match=re.escape(
                f"model sidecar {path}.json: embedding_sha256 must be 64 lowercase hex "
                f"digits, got {value!r}")):
            load_model(path)

    @pytest.mark.parametrize("damage", [lambda emb: emb.unlink(),
                                        lambda emb: emb.write_bytes(emb.read_bytes()[:-8]),
                                        lambda emb: emb.write_bytes(b"AMAEMB01\0")],
                             ids=["missing", "truncated", "header-truncated"])
    def test_missing_or_damaged_stored_v_rejected(self, with_v, damage):
        path, _ = with_v
        damage(path.with_name(path.name + ".emb"))
        with pytest.raises(ValueError, match=re.escape(
                f"model sidecar {path}.json records an embedding, but {path}.emb is "
                "unreadable")):
            load_model(path)

    def test_stored_v_of_another_shape_rejected(self, with_v):
        path, V = with_v
        wide = np.hstack([V, V[:, :1]])
        save_embeddings(wide, f"{path}.emb", meta={})
        self.record(path, hashlib.sha256(wide.tobytes()).hexdigest())
        with pytest.raises(ValueError, match=re.escape(
                f"model sidecar {path}.json records an embedding, but {path}.emb is 5x4, "
                "not n=5 x h=3")):
            load_model(path)

    def test_stored_v_other_than_recorded_rejected(self, with_v):
        path, V = with_v
        save_embeddings(V + 1.0, f"{path}.emb", meta={})
        with pytest.raises(ValueError, match=re.escape(
                f"{path}.emb is not the embedding model sidecar {path}.json records: "
                "its SHA-256 differs")):
            load_model(path)

    def test_embeddings_header_truncated_rejected(self, tmp_path):
        path = tmp_path / "e.bin"
        save_embeddings(np.ones((4, 3)), path, meta={"h": 3})
        path.write_bytes(path.read_bytes()[:10])
        with pytest.raises(ValueError, match=re.escape(
                f"damaged embedding file {path}: header truncated at 10 bytes")):
            load_embeddings(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_embedding_rejected(self, tmp_path, value):
        path = tmp_path / "e.bin"
        V = np.ones((4, 3))
        V[2, 1] = value
        save_embeddings(V, path, meta={"h": 3})
        with pytest.raises(ValueError, match=re.escape(
                f"damaged embedding file {path}: it holds a non-finite value")):
            load_embeddings(path)

    @pytest.mark.parametrize("cut", [-8, 1])
    def test_embeddings_wrong_length_rejected(self, tmp_path, cut):
        path = tmp_path / "e.bin"
        save_embeddings(np.ones((4, 3)), path, meta={"h": 3})
        raw = path.read_bytes()
        path.write_bytes(raw[:cut] if cut < 0 else raw + b"\0" * cut)
        with pytest.raises(ValueError, match="damaged embedding file"):
            load_embeddings(path)


class TestAtomicWrites:
    """A write that fails part way through leaves the previous file and its
    sidecar whole, and no temporary file behind."""

    @staticmethod
    def fail_after(monkeypatch, limit, failing=lambda path, mode: "b" in mode):
        """Files opened by atomic writers for which ``failing(path, mode)`` holds,
        binary files by default, take ``limit`` bytes, then fail as a full disk
        would."""
        class Failing:
            def __init__(self, fh):
                self.fh, self.left = fh, limit

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                if len(data) > self.left:
                    self.fh.write(data[:self.left])
                    raise OSError(28, "No space left on device")
                self.left -= len(data)
                return self.fh.write(data)

        def fake_open(path, mode="r", **kw):
            fh = open(path, mode, **kw)
            return Failing(fh) if failing(str(path), mode) else fh

        monkeypatch.setattr(fileio, "open", fake_open, raising=False)

    @staticmethod
    def snapshot(directory):
        return {p.name: p.read_bytes() for p in directory.iterdir()}

    def test_model_layout_unchanged(self, tmp_path):
        cfg = AmaConfig(h=3, d=2, kappa=2)
        params = init_params(5, cfg, np.random.default_rng(3))
        save_model(params, cfg, tmp_path / "m.bin", item_index_hash="abc")
        # the float32 parameters init_params builds are stored widened to float64
        payload = b"".join(getattr(params, k).astype("<f8").tobytes()
                           for k in ("W_k", "W_v", "Q", "B", "S"))
        assert (tmp_path / "m.bin").read_bytes() == \
            b"AMAMDL01" + struct.pack("<IQQQQ", 1, 5, 3, 2, 2) + payload
        sidecar = {"config": dataclasses.asdict(cfg), "item_index_hash": "abc",
                   "n": 5, "h": 3, "d": 2, "kappa": 2}
        assert (tmp_path / "m.bin.json").read_text() == \
            json.dumps(sidecar, indent=2, sort_keys=True) + "\n"
        assert sorted(self.snapshot(tmp_path)) == ["m.bin", "m.bin.json"]

    def test_model_write_failing_mid_payload_keeps_previous(self, tmp_path, monkeypatch):
        cfg = AmaConfig(h=3, d=2, kappa=2)
        path = tmp_path / "m.bin"
        save_model(init_params(5, cfg), cfg, path, item_index_hash="old")
        before = self.snapshot(tmp_path)
        self.fail_after(monkeypatch, 100)   # the header is 44 bytes
        with pytest.raises(OSError):
            save_model(init_params(5, cfg, np.random.default_rng(1)), cfg, path,
                       item_index_hash="new")
        assert self.snapshot(tmp_path) == before
        load_model(path)

    @pytest.mark.parametrize("key", ["h", "d", "kappa"])
    def test_save_with_a_config_other_than_the_arrays_refused_before_any_open(
            self, tmp_path, monkeypatch, key):
        cfg = AmaConfig(h=3, d=2, kappa=2)
        path = tmp_path / "m.bin"
        save_model(init_params(5, cfg), cfg, path, item_index_hash="old")
        before = self.snapshot(tmp_path)
        opened = []
        monkeypatch.setattr(model_module, "atomic_open", lambda *a, **kw: opened.append(a))
        with pytest.raises(ValueError, match=f"^the config gives {key}=5, but the parameters "
                                             f"have {key}={getattr(cfg, key)}$"):
            save_model(init_params(5, cfg, np.random.default_rng(1)),
                       dataclasses.replace(cfg, **{key: 5}), path, item_index_hash="new")
        assert opened == [] and self.snapshot(tmp_path) == before

    def test_model_with_v_layout(self, tmp_path):
        cfg = AmaConfig(h=3, d=2, kappa=2, gamma=1)
        params = init_params(5, cfg, np.random.default_rng(3))
        V = np.random.default_rng(4).standard_normal((5, 3))
        save_model(params, cfg, tmp_path / "bare.bin", item_index_hash="abc")
        save_model(params, cfg, tmp_path / "m.bin", item_index_hash="abc", V=V)
        files = self.snapshot(tmp_path)
        assert sorted(files) == ["bare.bin", "bare.bin.json", "m.bin", "m.bin.emb",
                                 "m.bin.emb.json", "m.bin.json"]
        assert files["m.bin"] == files["bare.bin"]   # AMAMDL01 is unchanged
        assert files["m.bin.emb"] == b"AMAEMB01" + struct.pack("<QQ", 5, 3) + V.tobytes()
        assert json.loads(files["m.bin.emb.json"]) == {"h": 3, "gamma": 1, "seed": 0,
                                                       "source_hash": "abc"}
        sidecar = json.loads(files["m.bin.json"])
        assert sidecar.pop("embedding_sha256") == hashlib.sha256(V.tobytes()).hexdigest()
        assert sidecar == json.loads(files["bare.bin.json"])

    def test_save_with_v_of_another_shape_refused_before_any_open(self, tmp_path,
                                                                  monkeypatch):
        cfg = AmaConfig(h=3, d=2, kappa=2)
        opened = []
        monkeypatch.setattr(model_module, "atomic_open", lambda *a, **kw: opened.append(a))
        for shape in ((5, 4), (6, 3), (15,)):
            with pytest.raises(ValueError, match=re.escape(
                    f"the embedding is {'x'.join(map(str, shape))}, but the parameters "
                    "have n=5 h=3")):
                save_model(init_params(5, cfg), cfg, tmp_path / "m.bin", V=np.ones(shape))
        assert opened == [] and self.snapshot(tmp_path) == {}

    @pytest.mark.parametrize("name", ["m.bin", "m.bin.json", "m.bin.emb", "m.bin.emb.json"])
    def test_model_with_v_failing_in_any_file_keeps_all_four(self, tmp_path, monkeypatch,
                                                             name):
        cfg = AmaConfig(h=3, d=2, kappa=2)
        path = tmp_path / "m.bin"
        save_model(init_params(5, cfg), cfg, path, item_index_hash="old", V=np.ones((5, 3)))
        before = self.snapshot(tmp_path)
        # a temporary file is named <file>.<pid>.tmp
        self.fail_after(monkeypatch, 5, failing=lambda path, mode:
                        path.rsplit(".", 2)[0] == str(tmp_path / name))
        with pytest.raises(OSError):
            save_model(init_params(5, cfg, np.random.default_rng(1)), cfg, path,
                       item_index_hash="new", V=np.zeros((5, 3)))
        assert self.snapshot(tmp_path) == before
        np.testing.assert_array_equal(load_model(path)[3], np.ones((5, 3)))

    def test_embeddings_write_failing_mid_payload_keeps_previous(self, tmp_path, monkeypatch):
        path = tmp_path / "items.emb"
        save_embeddings(np.ones((4, 3)), path, meta={"h": 3})
        before = self.snapshot(tmp_path)
        self.fail_after(monkeypatch, 40)   # the header is 24 bytes
        with pytest.raises(OSError):
            save_embeddings(np.zeros((4, 3)), path, meta={"h": 4})
        assert self.snapshot(tmp_path) == before
        np.testing.assert_array_equal(load_embeddings(path), np.ones((4, 3)))

    def test_embeddings_sidecar_failing_mid_way_keeps_both_previous(self, tmp_path,
                                                                    monkeypatch):
        path = tmp_path / "items.emb"
        save_embeddings(np.ones((4, 3)), path, meta={"h": 3})
        before = self.snapshot(tmp_path)
        self.fail_after(monkeypatch, 5, failing=lambda path, mode: ".emb.json" in path)
        with pytest.raises(OSError):
            save_embeddings(np.zeros((4, 3)), path, meta={"h": 4})
        assert self.snapshot(tmp_path) == before   # the new payload was not swapped in

    def test_report_write_failing_mid_way_keeps_previous(self, trained, tmp_path, monkeypatch):
        _, data, model = trained
        report = tmp_path / "report.json"
        assert evaluate(data, model, "--out", str(report)) == 0
        before = self.snapshot(tmp_path)
        self.fail_after(monkeypatch, 50, failing=lambda path, mode: True)
        assert evaluate(data, model, "--split", "validation", "--out", str(report)) == 1
        assert self.snapshot(tmp_path) == before
        assert json.loads(report.read_text())["split"] == "test"

    def test_split_write_failing_in_its_last_file_keeps_previous_split(self, tmp_path,
                                                                       monkeypatch):
        out = prep(tmp_path, "data", seed=4)
        before = self.snapshot(out)
        other = temporal_split(binarize(synthetic_events(m=25, n=15, per_user=12, seed=5), 2))
        self.fail_after(monkeypatch, 10, failing=lambda path, mode: "split.json" in path)
        with pytest.raises(OSError):
            save_split(other, out)
        assert self.snapshot(out) == before   # the CSVs written whole were not swapped in


class TestGoldenBytes:
    """The SHA-256 of what today's writers produce, so no change to the model
    format or to the numbers behind it goes unnoticed: a change that means to
    move them updates these values and says why."""

    @staticmethod
    def digests(path, suffixes):
        return {suffix: hashlib.sha256(path.with_name(path.name + suffix).read_bytes()).hexdigest()
                for suffix in suffixes}

    # what train writes beside the model: its sidecar and its float64 V
    SIDE_FILES = {
        ".json": "b6beac9b2e0ff929ce460f3c6ce31225f77770fe9912bc16d4ed7724ab7a7070",
        ".emb": "75a1cc812dfbfc0361fb1897a1d99ad3a9da8007ab6fbc02a428c4493668b26e",
        ".emb.json": "716f03c53791bc3db2e17382fb3e225ee93f1e4a49052f28406aa35fe18898a4",
    }

    def trained(self, tiny_split, tmp_path):
        save_split(tiny_split, tmp_path / "data", threshold=2)
        model = tmp_path / "m.bin"
        assert main(["train", "--data", str(tmp_path / "data"), "--out", str(model),
                     "--set", "h=4", *SMALL]) == 0
        return self.digests(model, ("", ".json", ".emb", ".emb.json"))

    def test_cli_train_writes_these_four_files(self, tiny_split, tmp_path):
        # train runs in float32; the float64 run of the next test keeps the
        # model digest this test pinned while train ran in float64
        assert self.trained(tiny_split, tmp_path) == {
            "": "1f3b863894d4039082e5b6714eca0ad4f89d4f0171d29ebf30d41d1542ea555b",
            **self.SIDE_FILES}

    def test_training_from_float64_parameters_writes_the_float64_digest(
            self, tiny_split, tmp_path, monkeypatch):
        # the same run from float64 parameters goes through the same kernel
        # in float64 and writes the bytes it wrote before the kernel built its
        # error from the CSR rows: sparse targets move no byte
        monkeypatch.setattr(training, "init_params", float64_init_oracle)
        assert self.trained(tiny_split, tmp_path) == {
            "": "11e3b142ccc0b67597b9a4b28db2bb1f9063ee5ec759d3fe42eee82c7e76f93d",
            **self.SIDE_FILES}

    def test_a_drawn_model_saved_without_v_as_the_bench_saves_it(self, tmp_path):
        # float64 draws, as the bench's drawn model is
        cfg = AmaConfig(h=5, d=3, kappa=3, alpha=1.0, lam=1e-5, rho=0.3, epochs=0, seed=0)
        rng = np.random.default_rng(11)
        params = float64_init_oracle(7, cfg, rng)
        params.B[:] = rng.standard_normal(params.B.shape)
        params.S[:] = rng.standard_normal(params.S.shape)
        save_model(params, cfg, tmp_path / "g.model")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["g.model", "g.model.json"]
        assert self.digests(tmp_path / "g.model", ("", ".json")) == {
            "": "2b4a7047a41e445a51efb9ea94b223e7dd1b68b62ef4dbc5a999dac6ccda34d0",
            ".json": "992c8fdbe8f1296e692e017495158b3b803e4319a1c11cc80f36e9668880d9f7",
        }
