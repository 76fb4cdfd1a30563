import dataclasses
import json
import math
import re

import numpy as np
import pytest

from amarec.linalg import randomized_svd
from amarec import model, training
from amarec.model import AmaConfig, PARAM_NAMES, batch_gradients, init_params
from amarec.training import AdamState, NonFiniteObjective, adam_step, train
from conftest import csr_rows
from oracles import corrupt_oracle, float64_init_oracle


def embeddings_for(data, cfg):
    return randomized_svd(data.train, rank=cfg.h, power_iters=5, seed=cfg.seed).right


def tiny_train_config(**kw):
    return AmaConfig(**{**dict(h=4, d=2, kappa=2, alpha=1.0, lam=1e-4, rho=0.3, epochs=5,
                               seed=1, batch_size=8), **kw})


class TestOptimizers:
    def test_adam_constant_gradient_step_approaches_lr(self):
        # with a fixed gradient, m_hat/sqrt(v_hat) -> 1, so |step| -> lr
        cfg = AmaConfig(h=2, d=1, kappa=1)
        params = init_params(2, cfg)
        state = AdamState(params)
        grads = {k: np.full_like(getattr(params, k), 3.0) for k in PARAM_NAMES}
        lr = 0.05
        prev = params.copy()
        for _ in range(200):
            prev = params.copy()
            adam_step(params, grads, state, lr)
        step = np.abs(params.W_v - prev.W_v)
        np.testing.assert_allclose(step, lr, rtol=1e-3)

    def test_adam_matches_textbook_update_bitwise_in_place(self):
        cfg = AmaConfig(h=3, d=2, kappa=2)
        rng = np.random.default_rng(7)
        params = init_params(5, cfg, rng)
        state, lr = AdamState(params), 0.01
        b1, b2, eps = state.beta1, state.beta2, state.eps
        buffers = [getattr(params, k) for k in PARAM_NAMES] + [*state.m.values(),
                                                               *state.v.values()]
        ref = {k: getattr(params, k).copy() for k in PARAM_NAMES}
        m = {k: np.zeros_like(a) for k, a in ref.items()}
        v = {k: np.zeros_like(a) for k, a in ref.items()}
        for t in range(1, 6):   # in the parameters' dtype, float32
            grads = {k: rng.standard_normal(a.shape).astype(a.dtype) for k, a in ref.items()}
            adam_step(params, grads, state, lr)
            for k in PARAM_NAMES:
                g = grads[k]
                m[k] = b1 * m[k] + (1 - b1) * g
                v[k] = b2 * v[k] + (1 - b2) * g * g
                m_hat, v_hat = m[k] / (1 - b1 ** t), v[k] / (1 - b2 ** t)
                ref[k] = ref[k] - lr * m_hat / (np.sqrt(v_hat) + eps)
                np.testing.assert_array_equal(getattr(params, k), ref[k])
                np.testing.assert_array_equal(state.m[k], m[k])
                np.testing.assert_array_equal(state.v[k], v[k])
        now = [getattr(params, k) for k in PARAM_NAMES] + [*state.m.values(), *state.v.values()]
        assert all(a is b for a, b in zip(now, buffers))   # updated in place

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AmaConfig(learning_rate=0)
        with pytest.raises(ValueError):
            AmaConfig(batch_size=0)

    @pytest.mark.parametrize("value", [2.5, 8.0, True, "8"])
    def test_non_integer_batch_size_rejected(self, value):
        with pytest.raises(ValueError, match=f"^batch_size must be an integer, got {value!r}$"):
            AmaConfig(batch_size=value)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_learning_rate_rejected(self, value):
        with pytest.raises(ValueError,
                           match=re.escape(f"learning_rate must lie in (0, inf), got {value}")):
            AmaConfig(learning_rate=value)


class TestTrainLoop:
    def test_zero_epochs_identity(self, tiny_split):
        cfg = tiny_train_config(epochs=0)
        V = embeddings_for(tiny_split, cfg)
        init = init_params(tiny_split.shape[1], cfg, np.random.default_rng(cfg.seed))
        params, log = train(tiny_split, V, cfg)
        assert log == []
        for k in PARAM_NAMES:
            assert getattr(params, k).dtype == getattr(init, k).dtype == np.float32
            np.testing.assert_array_equal(getattr(params, k), getattr(init, k))

    def test_objective_decreases(self, tiny_split):
        cfg = tiny_train_config(epochs=50)
        V = embeddings_for(tiny_split, cfg)
        params, log = train(tiny_split, V, cfg)
        objectives = [record["objective"] for record in log]
        assert objectives[49] < objectives[0]

    def test_large_lambda_shrinks_decoder(self, tiny_split):
        warm = tiny_train_config(epochs=20, lam=0.0)
        V = embeddings_for(tiny_split, warm)
        params, _ = train(tiny_split, V, warm)
        norm_before = np.linalg.norm(params.S)
        assert norm_before > 0
        heavy = tiny_train_config(epochs=60, lam=1e6)
        params, _ = train(tiny_split, V, heavy, params=params)
        assert np.linalg.norm(params.S) < 1e-3 * norm_before

    def test_reproducible_bitwise(self, tiny_split):
        cfg = tiny_train_config(epochs=4)
        V = embeddings_for(tiny_split, cfg)
        a, _ = train(tiny_split, V, cfg)
        b, _ = train(tiny_split, V, cfg)
        for k in PARAM_NAMES:
            np.testing.assert_array_equal(getattr(a, k), getattr(b, k))

    def test_embeddings_never_modified(self, tiny_split):
        cfg = tiny_train_config(epochs=3)
        V = embeddings_for(tiny_split, cfg)
        snapshot = V.copy()
        train(tiny_split, V, cfg)
        np.testing.assert_array_equal(V, snapshot)

    def test_rho_just_below_one_skips_everyone(self, tiny_split):
        # rho=1 is refused; the largest float below 1 still drops every entry here
        cfg = tiny_train_config(epochs=2, rho=math.nextafter(1.0, 0.0))
        V = embeddings_for(tiny_split, cfg)
        init = init_params(tiny_split.shape[1], cfg, np.random.default_rng(cfg.seed))
        params, log = train(tiny_split, V, cfg)
        for k in PARAM_NAMES:
            assert getattr(params, k).dtype == getattr(init, k).dtype == np.float32
            np.testing.assert_array_equal(getattr(params, k), getattr(init, k))

    def test_log_files(self, tiny_split):
        cfg = tiny_train_config(epochs=2)
        V = embeddings_for(tiny_split, cfg)
        _, log = train(tiny_split, V, cfg)
        assert [list(record) for record in log] == [["epoch", "objective", "seconds"]] * 2
        assert [record["epoch"] for record in log] == [0, 1]
        assert json.loads(json.dumps(log)) == log   # what train --log-prefix writes

    def test_callback_sees_every_epoch(self, tiny_split):
        cfg = tiny_train_config(epochs=3)
        V = embeddings_for(tiny_split, cfg)
        seen = []
        train(tiny_split, V, cfg, callback=lambda e, p: seen.append(e))
        assert seen == [0, 1, 2]


# rho=1 is refused; the largest float below 1 drops every entry here
@pytest.mark.parametrize("rho", [0.0, 0.3, 0.9, math.nextafter(1.0, 0.0)])
def test_batches_match_the_per_user_loop(tiny_split, rho):
    # train's CSR batches against a per-user loop: each batch's users in
    # ascending order, corrupted one by one from the epoch's stream, those
    # left empty dropped; the parameters agree bitwise, in float32, as the
    # loop runs its float32 parameters against V narrowed to float32
    cfg = tiny_train_config(epochs=2, rho=rho)
    T = tiny_split.train
    m, n = T.shape
    V = embeddings_for(tiny_split, cfg)
    params, _ = train(tiny_split, V, cfg)
    ref = init_params(n, cfg, np.random.default_rng(cfg.seed))
    V = V.astype(np.float32)
    state, dropped = AdamState(ref), 0
    rows = [T.indices[T.indptr[u]:T.indptr[u + 1]] for u in range(m)]
    for epoch in range(cfg.epochs):
        rng = np.random.default_rng([cfg.seed, epoch])
        order = rng.permutation(m)
        for start in range(0, m, cfg.batch_size):
            batch = np.sort(order[start:start + cfg.batch_size])
            masks = corrupt_oracle([rows[u] for u in batch], cfg.rho, rng)
            used = [b for b, mask in enumerate(masks) if mask.size]
            dropped += batch.size - len(used)
            if used:
                grads, _ = batch_gradients(csr_rows([rows[batch[b]] for b in used], n),
                                           csr_rows([masks[b] for b in used], n), ref, V,
                                           cfg.alpha)
                grads["S"] += 2.0 * cfg.lam * ref.S
                ref = adam_step(ref, grads, state, cfg.learning_rate)
    for k in PARAM_NAMES:
        assert getattr(params, k).dtype == getattr(ref, k).dtype == np.float32
        np.testing.assert_array_equal(getattr(params, k), getattr(ref, k))
    if rho == 0.9:   # batches that lose some users and keep others
        assert 0 < dropped < cfg.epochs * m


def test_non_finite_objective_stops_at_its_batch(tiny_split):
    cfg = tiny_train_config()
    assert tiny_split.shape[0] >= 3 * cfg.batch_size
    V = embeddings_for(tiny_split, cfg)
    params = init_params(tiny_split.shape[1], cfg)
    params.S[0, 0] = np.nan
    with pytest.raises(NonFiniteObjective) as exc:
        train(tiny_split, V, cfg, params=params)
    assert (exc.value.epoch, exc.value.batch) == (0, 0)


def test_non_finite_objective_at_the_end_of_an_epoch_stops_it(tiny_split):
    # in float64, the one step of epoch 0 moves S by about 1e300, whose
    # square overflows; the overflow stops the run, not numpy's warning
    m, n = tiny_split.shape
    cfg = tiny_train_config(batch_size=m, learning_rate=1e300)   # one batch per epoch
    params, seen = float64_init_oracle(n, cfg), []
    with pytest.raises(NonFiniteObjective, match="^non-finite objective inf at epoch 0, "
                                                 "batch 0$") as exc:
        train(tiny_split, embeddings_for(tiny_split, cfg), cfg, params=params,
              callback=lambda epoch, p: seen.append(epoch))
    assert (exc.value.epoch, exc.value.batch) == (0, 0) and seen == []
    # the batch's losses were finite; the penalty on the updated S is not
    assert np.isfinite(params.S).all() and np.abs(params.S).max() > 1e299


@pytest.mark.parametrize("batches, batch, value", [(1, 0, "inf"), (3, 1, "nan")])
def test_a_float32_overflow_stops_at_its_epoch_and_batch(tiny_split, batches, batch, value):
    # the float64 case above in float32: a learning rate of 1e300 is infinite
    # there, so the first step leaves S non-finite; the run stops with
    # NonFiniteObjective, at the end of the epoch when it has one batch, and
    # at the next batch's losses when it has more, not with numpy's warning
    m, n = tiny_split.shape
    cfg = tiny_train_config(batch_size=-(-m // batches), learning_rate=1e300)
    params, seen = init_params(n, cfg), []
    with pytest.raises(NonFiniteObjective, match=f"^non-finite objective {value} at epoch 0, "
                                                 f"batch {batch}$") as exc:
        train(tiny_split, embeddings_for(tiny_split, cfg), cfg, params=params,
              callback=lambda epoch, p: seen.append(epoch))
    assert (exc.value.epoch, exc.value.batch) == (0, batch) and seen == []
    assert params.S.dtype == np.float32 and not np.isfinite(params.S).all()


def test_init_params_narrows_the_float64_draws():
    cfg = AmaConfig(h=5, d=3, kappa=2, seed=4)
    wide, narrow = float64_init_oracle(9, cfg), init_params(9, cfg)
    for k in PARAM_NAMES:
        assert getattr(narrow, k).dtype == np.float32
        assert getattr(narrow, k).tobytes() == getattr(wide, k).astype(np.float32).tobytes()


def test_a_float32_step_stays_float32(tiny_split, monkeypatch):
    # numpy widens a float32 array combined with a float64 array or numpy
    # scalar, silently; one step keeps every parameter, adam moment,
    # gradient, loss and forward output in float32
    steps, forwards = [], []
    step, forward = training.adam_step, model.Forward.__call__

    def record_step(params, grads, state, lr):
        steps.append((grads, state))
        return step(params, grads, state, lr)

    def record_forward(self, *args):
        out = forward(self, *args)
        forwards.append((self.K, self.V, *out[1:]))   # the keys, V, and all but segs
        return out

    monkeypatch.setattr(training, "adam_step", record_step)
    monkeypatch.setattr(model.Forward, "__call__", record_forward)
    cfg = tiny_train_config(epochs=1, batch_size=tiny_split.shape[0])   # one step
    params, log = train(tiny_split, embeddings_for(tiny_split, cfg), cfg)
    (grads, state), = steps
    arrays = [getattr(params, k) for k in PARAM_NAMES] + [*grads.values(), *state.m.values(),
                                                          *state.v.values()]
    assert forwards and all(a.dtype == np.float32 for a in arrays)
    assert all(a.dtype == np.float32 for out in forwards for a in out)
    assert np.isfinite(log[0]["objective"])


@pytest.mark.parametrize("sizes, n_more, message", [
    (dict(d=2), 0, "the config gives d=3, but the parameters have d=2"),
    (dict(kappa=2), 0, "the config gives kappa=3, but the parameters have kappa=2"),
    (dict(h=5), 0, "the config gives h=4, but the parameters have h=5"),
    ({}, 1, "the parameters score {n_plus} items, but the catalog has {n}"),
], ids=["d", "kappa", "h", "items"])
def test_params_that_disagree_with_the_config_stop_train_before_epoch_0(
        tiny_split, sizes, n_more, message):
    cfg = tiny_train_config(d=3, kappa=3, epochs=2)
    n = tiny_split.shape[1]
    params = init_params(n + n_more, tiny_train_config(**{"d": 3, "kappa": 3, **sizes}))
    seen = []
    with pytest.raises(ValueError, match=f"^{message.format(n=n, n_plus=n + 1)}$"):
        train(tiny_split, embeddings_for(tiny_split, cfg), cfg, params=params,
              callback=lambda epoch, p: seen.append(epoch))
    assert seen == []


@pytest.mark.parametrize("value", [5.0, 0.0])
def test_a_train_matrix_that_is_not_binary_stops_train_before_epoch_0(tiny_split, value):
    # the kernel reads only the pattern of the train matrix, while embed_items,
    # POP and mode_top_items read its values: a 5 or a stored 0 would train
    # as a 1 against a V built from the value
    train_mat = tiny_split.train.copy()
    train_mat.data[::3] = value
    data = dataclasses.replace(tiny_split, train=train_mat)
    cfg, seen = tiny_train_config(epochs=2), []
    with pytest.raises(ValueError, match=f"^the train matrix must be binary, but it stores "
                                         f"{value:g}$"):
        train(data, embeddings_for(tiny_split, cfg), cfg,
              callback=lambda epoch, p: seen.append(epoch))
    assert seen == []
