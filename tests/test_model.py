import ast
import contextlib
import json
import math
import re
from dataclasses import asdict, fields
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from amarec import model
from amarec.model import (
    AmaConfig,
    AmaParameters,
    DegenerateUser,
    Forward,
    Segments,
    argmax_mode,
    attend,
    batch_gradients,
    confidence_weights,
    corrupt,
    decode_maxout,
    encode,
    init_params,
    keys_values,
    load_model,
    parameter_count,
    save_model,
)
from conftest import csr_rows
from oracles import corrupt_oracle, forward_oracle, loss_oracle


def random_params(n, cfg, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    return AmaParameters(
        W_k=scale * rng.standard_normal((cfg.h, cfg.kappa)),
        W_v=scale * rng.standard_normal((cfg.h, cfg.h)),
        Q=scale * rng.standard_normal((cfg.d, cfg.kappa)),
        B=scale * rng.standard_normal((cfg.d, cfg.h)),
        S=scale * rng.standard_normal((n, cfg.h)),
    )


def attend_one(K, Q, obs):
    """The batched attend stage on a batch of one user, as d x n_obs."""
    obs = np.asarray(obs, dtype=np.intp)
    return attend(K[obs], Q, Segments.of(csr_rows([obs], K.shape[0]))).T


def encode_one(A, V_obs, W_v, B):
    """The modes of the batched encode stage on one user's d x n_obs attention, as d x h."""
    return encode(A.T, V_obs, Segments.of(csr_rows([np.arange(A.shape[1])], A.shape[1])),
                  W_v, B)[1][0]


def decode_one(U, S):
    """The batched maxout decoder on one user's d x h modes, with its
    attribution: (scores, mode_of)."""
    scores, per_mode = decode_maxout(U[None], S)
    return scores[0], argmax_mode(per_mode, scores)[0]


def padded_gemm(X, Y):
    """The block GEMM of the users X (B x d x k) and Y (k x m): X zero-padded
    to one block of ``_block_users(d)`` users (B at most that), as one GEMM."""
    users, d, k = X.shape
    padded = np.zeros((model._block_users(d) * d, k))
    padded[:users * d] = X.reshape(-1, k)
    return (padded @ Y)[:users * d].reshape(users, d, -1)


def test_only_model_names_the_decode_block_helpers():
    # the decode block stays behind Forward: another module reads its size
    # as Forward.block and never names the helpers that build the block
    helpers = {"_block_users", "_padded", "_block_matmul"}

    def names(path):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                yield node.id
            elif isinstance(node, ast.Attribute):
                yield node.attr
            elif isinstance(node, ast.alias):
                yield node.name

    modules = {path.name: set(names(path)) for path in Path(model.__file__).parent.glob("*.py")}
    assert helpers <= modules.pop("model.py") and "explain.py" in modules
    assert {name: sorted(used & helpers) for name, used in modules.items() if used & helpers} == {}


@contextlib.contextmanager
def recording_decode():
    """Record (U, scores, mode_of) of every decode that ``batch_gradients``
    makes inside the block, with the modes its attribution gives."""
    calls = []

    def record(U, S):
        scores, per_mode = decode_maxout(U, S)
        calls.append((U, scores, argmax_mode(per_mode, scores)))
        return scores, per_mode

    with mock.patch("amarec.model.decode_maxout", record):
        yield calls


def small_instance(seed, m=4, n=6, h=3, d=2, kappa=2, alpha=1.0, lam=0.01):
    cfg = AmaConfig(h=h, d=d, kappa=kappa, alpha=alpha, lam=lam, rho=0.0,
                    epochs=1, seed=seed)
    rng = np.random.default_rng(seed)
    V = rng.standard_normal((n, h))
    params = random_params(n, cfg, seed=seed + 1)
    r = np.zeros(n)
    obs = rng.choice(n, size=rng.integers(2, n), replace=False)
    r[obs] = 1.0
    return cfg, V, params, r, np.sort(obs)


def user_objective(r, obs, params, V, cfg):
    """One user's objective, gradients and scores: ``batch_gradients`` on a
    batch of one, plus the decoder penalty lam ||S||^2 and its gradient."""
    with recording_decode() as calls:
        grads, losses = batch_gradients(csr_rows([np.flatnonzero(r)], len(r)),
                                        csr_rows([obs], len(r)), params, V, cfg.alpha)
    grads["S"] += 2.0 * cfg.lam * params.S
    objective = float(losses[0]) + cfg.lam * float(np.sum(params.S * params.S))
    (_, scores, _), = calls
    return objective, grads, scores[0]


def config_values(name):
    """Values to try for the AmaConfig field ``name``: Python and numpy ints
    and floats (NaN and the infinities among them), bools and strings. The
    size fields draw small ints, as the parameters are built at those sizes."""
    ints = st.integers(-2, 5) if name in ("h", "d", "kappa") else st.integers(-2 ** 70, 2 ** 70)
    return st.one_of(
        ints, ints.filter(lambda v: abs(v) < 2 ** 31).flatmap(
            lambda v: st.sampled_from([np.int64(v), np.int32(v)])),
        st.floats(), st.floats().map(np.float64), st.floats(width=32).map(np.float32),
        st.booleans(), st.booleans().map(np.bool_), st.text(max_size=3))


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            AmaConfig(d=0)
        with pytest.raises(ValueError):
            AmaConfig(rho=1.5)
        with pytest.raises(ValueError):
            AmaConfig(alpha=-1)

    @pytest.mark.parametrize("key", ["alpha", "lam"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_weight_rejected(self, key, value):
        with pytest.raises(ValueError, match=re.escape(f"{key} must lie in [0, inf), got {value}")):
            AmaConfig(**{key: value})

    @pytest.mark.parametrize("key", ["h", "d", "kappa", "epochs", "seed"])
    @pytest.mark.parametrize("value", [2.5, 2.0, True, "3"])
    def test_non_integer_field_rejected(self, key, value):
        with pytest.raises(ValueError, match=f"^{key} must be an integer, got {value!r}$"):
            AmaConfig(**{key: value})

    @pytest.mark.parametrize("key", ["epochs", "seed"])
    def test_negative_count_or_seed_rejected(self, key):
        with pytest.raises(ValueError, match=f"^{key} must be >= 0, got -1$"):
            AmaConfig(**{key: -1})

    @pytest.mark.parametrize("key", ["h", "d", "kappa", "batch_size"])
    def test_zero_size_rejected_naming_the_field(self, key):
        with pytest.raises(ValueError, match=f"^{key} must be >= 1, got 0$"):
            AmaConfig(**{key: 0})

    def test_numpy_integer_field_becomes_an_int(self, tmp_path):
        cfg = AmaConfig(h=np.int64(3), d=2, kappa=2, seed=np.int32(7))
        assert cfg == AmaConfig(h=3, d=2, kappa=2, seed=7)
        assert type(cfg.h) is int and type(cfg.seed) is int
        save_model(init_params(5, cfg), cfg, tmp_path / "m.bin")   # the sidecar holds ints
        load_model(tmp_path / "m.bin")
        assert json.loads((tmp_path / "m.bin.json").read_text())["config"] == asdict(cfg)

    @pytest.mark.parametrize("key", ["alpha", "lam", "rho", "learning_rate"])
    @pytest.mark.parametrize("value", [True, np.bool_(False), "0", None])
    def test_non_real_float_field_rejected_naming_the_field(self, key, value):
        with pytest.raises(ValueError, match=f"^{key} must be a real number, got "
                                             f"{re.escape(repr(value))}$"):
            AmaConfig(**{key: value})

    def test_numpy_or_int_float_field_becomes_a_float(self, tmp_path):
        cfg = AmaConfig(h=3, d=2, kappa=2, alpha=np.float32(1), lam=np.float64(0.5), rho=0,
                        learning_rate=np.float16(0.25))
        assert cfg == AmaConfig(h=3, d=2, kappa=2, alpha=1.0, lam=0.5, rho=0.0,
                                learning_rate=0.25)
        assert all(type(getattr(cfg, key)) is float
                   for key in ("alpha", "lam", "rho", "learning_rate"))
        save_model(init_params(5, cfg), cfg, tmp_path / "m.bin")   # the sidecar holds floats
        load_model(tmp_path / "m.bin")
        assert json.loads((tmp_path / "m.bin.json").read_text())["config"] == asdict(cfg)

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(field_value=st.sampled_from([f.name for f in fields(AmaConfig)]).flatmap(
        lambda name: st.tuples(st.just(name), config_values(name))))
    @example(field_value=("rho", True))
    @example(field_value=("lam", "0"))
    @example(field_value=("alpha", np.float32(1)))
    @example(field_value=("alpha", 10 ** 400))
    @example(field_value=("learning_rate", 0))
    def test_a_config_that_constructs_loads_back_and_any_other_is_refused_at_load(
            self, tmp_path, field_value):
        name, value = field_value
        path, sizes = tmp_path / "m.bin", {"h": 3, "d": 2, "kappa": 2}
        sidecar_path = tmp_path / "m.bin.json"
        try:
            cfg = AmaConfig(**{**sizes, name: value})
        except ValueError as exc:
            assert str(exc).startswith(f"{name} must ")
            # the same value, as JSON holds it, in a sidecar today's save_model wrote
            cfg = AmaConfig(**sizes)
            save_model(init_params(5, cfg), cfg, path)
            sidecar = json.loads(sidecar_path.read_text())
            sidecar["config"][name] = value.item() if isinstance(value, np.generic) else value
            sidecar_path.write_text(json.dumps(sidecar))
            with pytest.raises(ValueError, match="^" + re.escape(
                    f"model sidecar {path}.json: config: {name} must ")):
                load_model(path)
        else:
            assert all(type(getattr(cfg, f.name)) is type(f.default) for f in fields(AmaConfig))
            save_model(init_params(5, cfg), cfg, path)
            load_model(path)
            assert json.loads(sidecar_path.read_text())["config"] == asdict(cfg)

    def test_parameter_count_formula(self):
        cfg = AmaConfig(h=4, d=2, kappa=3)
        assert parameter_count(10, cfg) == 10 * 4 + 16 + 8 + (4 + 2) * 3


class TestKeysValues:
    def test_identity_map(self):
        cfg = AmaConfig(h=3, d=1, kappa=3)
        params = random_params(5, cfg)
        params.W_k = np.eye(3)
        V = np.random.default_rng(0).standard_normal((5, 3))
        K = keys_values(V, params)
        np.testing.assert_array_equal(K, V)

    def test_zero_embedding(self):
        cfg = AmaConfig(h=3, d=1, kappa=2)
        params = random_params(4, cfg)
        V = np.zeros((4, 3))
        assert not keys_values(V, params).any()

    def test_hand_arithmetic(self):
        cfg = AmaConfig(h=2, d=1, kappa=1)
        params = random_params(1, cfg)
        params.W_k = np.array([[3.0], [4.0]])
        K = keys_values(np.array([[1.0, 2.0]]), params)
        assert K[0, 0] == 11.0

    def test_dim_mismatch(self):
        cfg = AmaConfig(h=3, d=1, kappa=2)
        params = random_params(4, cfg)
        with pytest.raises(ValueError):
            keys_values(np.zeros((4, 5)), params)


class TestAttend:
    def test_singleton_weight_one(self):
        K = np.random.default_rng(0).standard_normal((5, 2))
        Q = np.random.default_rng(1).standard_normal((3, 2))
        A = attend_one(K, Q, [2])
        np.testing.assert_array_equal(A, np.ones((3, 1)))

    def test_equal_logits_uniform(self):
        K = np.zeros((4, 2))
        Q = np.random.default_rng(0).standard_normal((2, 2))
        A = attend_one(K, Q, [0, 3])
        np.testing.assert_allclose(A, 0.5, atol=1e-15)

    def test_log3_gap_quarter_three_quarters(self):
        # scaled logits 0 and ln 3 -> weights (0.25, 0.75)
        kappa = 4
        K = np.array([[0.0], [math.log(3.0) * math.sqrt(kappa)]])
        K = np.hstack([K, np.zeros((2, kappa - 1))])
        Q = np.array([[1.0] + [0.0] * (kappa - 1)])
        A = attend_one(K, Q, [0, 1])
        np.testing.assert_allclose(A, [[0.25, 0.75]], atol=1e-12)

    def test_rows_normalized(self):
        rng = np.random.default_rng(3)
        K = rng.standard_normal((9, 3))
        Q = rng.standard_normal((4, 3))
        A = attend_one(K, Q, [1, 4, 6, 8])
        np.testing.assert_allclose(A.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(A >= 0)

    def test_empty_obs_raises(self):
        with pytest.raises(ValueError):
            attend_one(np.zeros((3, 2)), np.zeros((1, 2)), [])

    def test_block_without_users_named(self):
        cfg = AmaConfig(h=3, d=2, kappa=2)
        V = np.random.default_rng(0).standard_normal((4, 3))
        with pytest.raises(ValueError, match="the block has no users"):
            Forward(random_params(4, cfg), V)(csr_rows([], 4))

    @pytest.mark.parametrize("items", [3, 7])
    def test_embedding_of_another_catalog_rejected(self, items):
        # a V with more rows would score silently, one with fewer index past its end
        cfg = AmaConfig(h=3, d=2, kappa=2)
        V = np.random.default_rng(0).standard_normal((items, 3))
        with pytest.raises(ValueError, match=f"embedding has {items} items, but the model has 5"):
            Forward(random_params(5, cfg), V)


class TestEncode:
    def test_single_item_no_bias(self):
        V_obs = np.array([[1.0, 2.0, 3.0]])
        A = np.ones((2, 1))
        U = encode_one(A, V_obs, np.eye(3), np.zeros((2, 3)))
        np.testing.assert_array_equal(U, np.tile(V_obs, (2, 1)))

    def test_uniform_midpoint_plus_bias(self):
        V_obs = np.array([[0.0, 2.0], [4.0, 0.0]])
        A = np.full((1, 2), 0.5)
        B = np.array([[1.0, 1.0]])
        np.testing.assert_array_equal(encode_one(A, V_obs, np.eye(2), B), [[3.0, 2.0]])

    def test_w_v_applies_after_the_attention_sum(self):
        V_obs = np.eye(2)
        W_v = np.array([[1.0, 2.0], [3.0, 4.0]])
        B = np.array([[1.0, -1.0]])
        segs = Segments.of(csr_rows([[0, 1]], 2))
        Z, U = encode(np.full((2, 1), 0.5), V_obs, segs, W_v, B)
        np.testing.assert_array_equal(Z, [[[0.5, 0.5]]])
        np.testing.assert_array_equal(U, [[[3.0, 2.0]]])   # Z W_v + B

    def test_zero_values_gives_bias(self):
        B = np.random.default_rng(0).standard_normal((3, 4))
        U = encode_one(np.full((3, 2), 0.5), np.zeros((2, 4)), np.eye(4), B)
        np.testing.assert_array_equal(U, B)


class TestDecodeMaxout:
    def test_single_mode_is_dot_product(self):
        rng = np.random.default_rng(0)
        U = rng.standard_normal((1, 3))
        S = rng.standard_normal((5, 3))
        scores, mode_of = decode_one(U, S)
        np.testing.assert_allclose(scores, S @ U[0], atol=1e-15)
        assert np.all(mode_of == 0)

    def test_hand_example(self):
        U = np.array([[1.0, 0.0], [0.0, 1.0]])
        scores, mode_of = decode_one(U, np.array([[2.0, 3.0]]))
        assert scores[0] == 3.0 and mode_of[0] == 1

    def test_max_of_negatives(self):
        U = np.array([[1.0], [1.0]])
        S = np.array([[-5.0]])
        # force distinct per-mode scores -5 and -2
        U = np.array([[1.0], [0.4]])
        scores, mode_of = decode_one(U, S)
        assert scores[0] == pytest.approx(-2.0)
        assert mode_of[0] == 1

    def test_dominance_and_tiebreak(self):
        rng = np.random.default_rng(5)
        U = rng.standard_normal((3, 4))
        S = rng.standard_normal((7, 4))
        scores, mode_of = decode_one(U, S)
        per_mode = U @ S.T
        assert np.all(scores[None, :] >= per_mode - 1e-15)
        for j in range(7):
            assert per_mode[mode_of[j], j] == scores[j]
        # exact tie goes to the lowest mode
        U_tie = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        _, mode_of_tie = decode_one(U_tie, np.array([[1.0, 0.0]]))
        assert mode_of_tie[0] == 0

    def test_decode_returns_the_per_mode_gemm_and_its_max(self):
        rng = np.random.default_rng(6)
        U = rng.standard_normal((4, 3, 5))
        S = rng.standard_normal((9, 5))
        scores, per_mode = decode_maxout(U, S)
        assert per_mode.tobytes() == padded_gemm(U, S.T).tobytes()
        assert scores.tobytes() == per_mode.max(axis=1).tobytes()


# per-mode scores drawn from few values, so that exact ties, -0.0 against 0.0
# and NaN scores are common
PLANTED = np.array([-1.0, -0.0, 0.0, 0.5, 1.0, np.nan])


@settings(max_examples=200, deadline=None)
@given(shape=st.tuples(st.integers(1, 4), st.integers(1, 5), st.integers(1, 8)),
       seed=st.integers(0, 2**32 - 1), picks=st.lists(st.integers(0, 7), max_size=10))
def test_attribution_at_some_items_equals_the_full_attribution_there(shape, seed, picks):
    # mode_usage and explain_user attribute only the items they list
    nb, d, n = shape
    rng = np.random.default_rng(seed)
    per_mode = PLANTED[rng.integers(0, PLANTED.size - int(rng.integers(0, 2)), (nb, d, n))]
    scores = per_mode.max(axis=1)
    full = argmax_mode(per_mode, scores)
    # the lowest maximizing mode, with -0.0 == 0.0, and mode 0 for a NaN score
    lowest = np.where(np.isnan(scores), 0, np.argmax(per_mode == scores[:, None], axis=1))
    assert np.array_equal(full, lowest)
    items = np.array([j % n for j in picks], dtype=np.intp)   # any order, repeats too
    assert np.array_equal(argmax_mode(per_mode[:, :, items], scores[:, items]),
                          full[:, items])


class TestConfidenceWeights:
    def test_alpha_zero(self):
        np.testing.assert_array_equal(confidence_weights(np.array([0.0, 1.0]), 0.0), 1.0)

    def test_alpha_one(self):
        w = confidence_weights(np.array([1.0]), 1.0)
        assert w[0] == pytest.approx(1.0 + math.log(2.0))

    def test_alpha_ten(self):
        w = confidence_weights(np.array([1.0]), 10.0)
        assert w[0] == pytest.approx(7.9315, abs=1e-4)


class TestCorrupt:
    def test_rho_zero_identity(self):
        obs = np.array([1, 4, 7])
        out = corrupt(csr_rows([obs], 8), 0.0, np.random.default_rng(0))
        np.testing.assert_array_equal(out.indices, obs)

    def test_rho_one_empties(self):
        out = corrupt(csr_rows([np.arange(50)], 50), 1.0, np.random.default_rng(0))
        assert out.nnz == 0

    def test_binomial_concentration(self):
        rng = np.random.default_rng(123)
        obs = np.arange(10_000)
        kept = corrupt(csr_rows([obs], obs.size), 0.3, rng)
        assert abs(kept.nnz / 10_000 - 0.70) < 0.02

    def test_unobserved_untouched(self):
        # corrupt only ever returns a subset of the observed indices
        obs = np.array([3, 5, 9])
        out = corrupt(csr_rows([obs], 10), 0.5, np.random.default_rng(2))
        assert set(out.indices.tolist()) <= set(obs.tolist())


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 9),
       sizes=st.lists(st.sampled_from([0, 0, 1, 1, 2, 5, 9]), min_size=1, max_size=8),
       rho=st.sampled_from([0.0, 0.3, 1.0]))
def test_corrupt_equals_per_user_oracle(seed, n, sizes, rho):
    # random CSR blocks with empty and one-entry rows: the one draw over the
    # block keeps what the per-user loop keeps, empties the same rows, and
    # leaves the stream where the loop leaves it
    rng = np.random.default_rng(seed)
    rows = [np.sort(rng.choice(n, size=min(k, n), replace=False)) for k in sizes]
    mine, theirs = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    out = corrupt(csr_rows(rows, n), rho, mine)
    ref = corrupt_oracle(rows, rho, theirs)
    assert out.shape == (len(rows), n)
    assert np.array_equal(out.indices, np.concatenate(ref))
    assert np.array_equal(np.diff(out.indptr), [kept.size for kept in ref])
    assert np.array_equal(out.data, np.ones(out.nnz))
    assert mine.random() == theirs.random()


class TestLoss:
    def test_perfect_reconstruction_zero(self):
        cfg = AmaConfig(h=2, d=1, kappa=2, alpha=1.0, lam=0.0, rho=0.0)
        n = 3
        params = random_params(n, cfg, seed=0)
        params.B[:] = 0.0
        # single mode; pick S so that scores equal r exactly
        V = np.eye(3, 2)
        obs = np.array([0, 2])
        u = forward_oracle(obs, params, V, cfg.kappa)["U"][0]
        r = np.array([1.0, 0.0, 1.0])
        # solve s_j . u = r_j by setting s_j = r_j * u / ||u||^2
        params.S = np.outer(r, u / (u @ u))
        val, _, scores = user_objective(r, obs, params, V, cfg)
        assert val == pytest.approx(0.0, abs=1e-20)
        np.testing.assert_allclose(scores, r, atol=1e-12)

    def test_zero_decoder_gives_weighted_target_norm(self):
        cfg = AmaConfig(h=3, d=2, kappa=2, alpha=2.0, lam=0.5, rho=0.0)
        n = 5
        params = random_params(n, cfg, seed=1)
        params.S = np.zeros((n, 3))
        V = np.random.default_rng(0).standard_normal((n, 3))
        r = np.array([1.0, 0.0, 1.0, 0.0, 0.0])
        val, _, _ = user_objective(r, np.array([0, 2]), params, V, cfg)
        expected = np.dot(confidence_weights(r, 2.0), r * r)
        assert val == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_straight_line_oracle(self, seed):
        cfg, V, params, r, obs = small_instance(seed)
        val, _, _ = user_objective(r, obs, params, V, cfg)
        assert val == pytest.approx(loss_oracle(r, obs, params, V, cfg), abs=1e-10)

    def test_degenerate_user_signal(self):
        cfg, V, params, r, obs = small_instance(0)
        with pytest.raises(DegenerateUser):
            user_objective(r, np.array([], dtype=np.intp), params, V, cfg)


class TestMaskSufficiency:
    def test_unobserved_embedding_changes_irrelevant(self):
        cfg, V, params, r, obs = small_instance(3)

        def encoding(Vmat):
            return encode_one(attend_one(keys_values(Vmat, params), params.Q, obs), Vmat[obs],
                              params.W_v, params.B)

        U1 = encoding(V)
        V2 = V.copy()
        outside = [j for j in range(V.shape[0]) if j not in set(obs.tolist())]
        V2[outside] += 100.0
        U2 = encoding(V2)
        assert np.array_equal(U1, U2)


def test_model_save_load_roundtrip(tmp_path):
    cfg, V, params, r, obs = small_instance(9)
    from amarec.model import load_model, save_model

    path = tmp_path / "model.bin"
    save_model(params, cfg, path, item_index_hash="abc")
    loaded, _, trained_on, stored = load_model(path)
    assert trained_on == "abc" and stored is None
    assert json.loads((tmp_path / "model.bin.json").read_text())["config"] == asdict(cfg)
    for name in ("W_k", "W_v", "Q", "B", "S"):
        np.testing.assert_array_equal(getattr(loaded, name), getattr(params, name))
    save_model(params, cfg, path, item_index_hash="abc", V=V)
    np.testing.assert_array_equal(load_model(path)[3], V)
