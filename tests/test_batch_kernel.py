"""The batched forward/backward kernel against the per-user reference, and
training's independence from the BLAS thread count and its memory peak."""

import os
import subprocess
import sys
import tracemalloc
from concurrent.futures import Future, ThreadPoolExecutor
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from amarec import model
from amarec.baselines import ama_scorer
from amarec.evaluation import BLOCK, evaluate
from amarec.explain import explain_user, mode_top_items, mode_usage
from amarec.model import (AmaConfig, DegenerateUser, PARAM_NAMES, Segments, attend,
                          batch_gradients, corrupt, decode_maxout, encode, keys_values)
from conftest import csr_rows, synthetic_events, write_movielens_file
from oracles import forward_oracle, gradients_oracle
from test_metrics import make_split
from test_model import random_params, recording_decode


def chunked(size):
    """Within the block, batch_gradients runs chunks of ``size`` users."""
    return mock.patch.object(model, "CHUNK", size)


def decoded(calls):
    """The (U, scores, mode_of) of a batch, from its chunks' recorded decodes."""
    return tuple(np.concatenate([call[i] for call in calls]) for i in range(3))


def batch_case(seed, n, h, d, kappa, users, rho, tied):
    """Random rows, masks corrupted as training does (users whose mask comes
    out empty are dropped), and parameters; ``tied`` zeroes S, so every
    per-mode score ties at 0 and every item routes to mode 0."""
    cfg = AmaConfig(h=h, d=d, kappa=kappa, alpha=1.5, lam=0.1, rho=rho, seed=seed)
    rng = np.random.default_rng(seed)
    V = rng.standard_normal((n, h))
    params = random_params(n, cfg, seed=seed + 1)
    if tied:
        params.S[:] = 0.0
    rows, masks, dropped = [], [], 0
    for _ in range(users):
        row = np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
        mask = corrupt(csr_rows([row], n), rho, rng).indices
        if mask.size == 0:
            dropped += 1
            continue
        r = np.zeros(n)
        r[row] = 1.0
        rows.append(r)
        masks.append(mask)
    return cfg, V, params, rows, masks, dropped


def clean_block(rows):
    """The dense binary rows of ``batch_case`` as a CSR block."""
    return csr_rows([np.flatnonzero(r) for r in rows], len(rows[0]))


# chunks of 2 or 3 users split most batches into several chunks, the last ragged
CHUNKS = st.sampled_from([2, 3, model.CHUNK])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 12), h=st.integers(1, 5),
       d=st.integers(1, 4), kappa=st.integers(1, 4), users=st.integers(1, 7),
       rho=st.sampled_from([0.0, 0.3, 0.7]), tied=st.booleans(), chunk=CHUNKS)
@example(seed=1, n=1, h=2, d=3, kappa=2, users=3, rho=0.0, tied=False, chunk=2)  # one-item masks
@example(seed=2, n=6, h=3, d=1, kappa=2, users=4, rho=0.3, tied=False, chunk=3)  # d = 1
@example(seed=3, n=7, h=3, d=3, kappa=2, users=5, rho=0.3, tied=True, chunk=2)   # all tied
@example(seed=9, n=4, h=2, d=2, kappa=1, users=7, rho=0.7, tied=False, chunk=2)  # drops users
@example(seed=5, n=9, h=3, d=3, kappa=2, users=7, rho=0.0, tied=False, chunk=3)  # 3, 3 and 1
def test_batch_equals_sum_of_per_user_oracle(seed, n, h, d, kappa, users, rho, tied, chunk):
    cfg, V, params, rows, masks, _ = batch_case(seed, n, h, d, kappa, users, rho, tied)
    if not masks:
        return
    with chunked(chunk), recording_decode() as calls:
        grads, losses = batch_gradients(clean_block(rows), csr_rows(masks, n), params, V,
                                        cfg.alpha)
    assert len(calls) == -(-len(masks) // chunk)
    _, scores, mode_of = decoded(calls)
    per_user = [gradients_oracle(r, mk, params, V, cfg) for r, mk in zip(rows, masks)]
    np.testing.assert_allclose(losses, [g["loss"] for g in per_user], rtol=1e-12, atol=0)
    for name in PARAM_NAMES:
        terms = np.array([g[name] for g in per_user])
        scale = np.abs(terms).sum(axis=0).max()
        err = np.abs(grads[name] - terms.sum(axis=0)).max()
        assert err <= 1e-12 * max(scale, 1e-300), f"{name}: {err:.3e} vs scale {scale:.3e}"
    assert scores.shape == mode_of.shape == (len(masks), n)
    if tied:
        assert not mode_of.any()


def within(x, ref, scale):
    """Elementwise |x - ref| <= 1e-12 * scale, the bound of a sum whose terms
    have absolute values adding up to ``scale``."""
    assert np.all(np.abs(x - ref) <= 1e-12 * scale), np.abs(x - ref).max()


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 12), h=st.integers(1, 5),
       d=st.integers(1, 4), kappa=st.integers(1, 4), users=st.integers(1, 7),
       rho=st.sampled_from([0.0, 0.3, 0.7]), tied=st.booleans(), chunk=CHUNKS)
@example(seed=1, n=1, h=2, d=3, kappa=2, users=3, rho=0.0, tied=False, chunk=2)  # one-item masks
@example(seed=2, n=6, h=3, d=1, kappa=2, users=4, rho=0.3, tied=False, chunk=3)  # d = 1
@example(seed=3, n=7, h=3, d=3, kappa=2, users=5, rho=0.3, tied=True, chunk=2)   # all tied
@example(seed=5, n=9, h=3, d=3, kappa=2, users=7, rho=0.0, tied=False, chunk=3)  # 3, 3 and 1
def test_one_forward_pass_for_training_scoring_and_explanation(seed, n, h, d, kappa, users,
                                                               rho, tied, chunk):
    cfg, V, params, rows, masks, _ = batch_case(seed, n, h, d, kappa, users, rho, tied)
    if not masks:
        return
    K = keys_values(V, params)
    S_T = np.ascontiguousarray(params.S.T)

    def stages(mks):
        segs = Segments.of(mks)
        A = attend(K[segs.obs], params.Q, segs)
        U = encode(A, V[segs.obs], segs, params.W_v, params.B)[1]
        return A, U, *decode_maxout(U, S_T)

    A, U, scores, mode_of = stages(csr_rows(masks, n))
    seg = Segments.of(csr_rows(masks, n)).seg
    for b, mk in enumerate(masks):
        # the batch equals each user run alone, bitwise
        A1, U1, scores1, mode_of1 = stages(csr_rows([mk], n))
        assert np.array_equal(A[seg == b], A1) and np.array_equal(U[b], U1[0])
        assert np.array_equal(scores[b], scores1[0])
        assert np.array_equal(mode_of[b], mode_of1[0])
        per_mode = np.matmul(U1, S_T)[0]   # the per-user GEMM the decode maximizes over
        assert np.array_equal(np.matmul(U, S_T)[b], per_mode)
        # maxout: the strict scan keeps the lowest of the tied modes
        assert np.array_equal(scores1[0], per_mode.max(axis=0))
        assert np.array_equal(mode_of1[0], per_mode.argmax(axis=0))
        # and the per-user oracle to 1e-12; its modes sum the values v_j W_v
        ref = forward_oracle(mk, params, V, cfg.kappa)
        np.testing.assert_allclose(A1.T, ref["A"], rtol=1e-12, atol=0)
        within(U1[0], ref["U"],
               np.abs(ref["A"]) @ np.abs(V[mk]) @ np.abs(params.W_v) + np.abs(params.B))
        scale = np.abs(ref["U"]) @ np.abs(params.S).T
        within(per_mode, ref["per_mode"], scale)
        within(ref["per_mode"][mode_of1[0], np.arange(n)], ref["scores"], scale.max(axis=0))
    if tied:
        assert not mode_of.any()

    # scoring and explanation return what training's decode returns, bitwise
    block = clean_block(rows)
    with chunked(chunk), recording_decode() as calls:
        batch_gradients(block, block, params, V, cfg.alpha)
    assert len(calls) == -(-len(rows) // chunk)
    trained_U, trained_scores, trained_modes = decoded(calls)
    trained_per_mode = np.matmul(trained_U, S_T)
    score = ama_scorer(params, V)
    assert np.array_equal(score(block, np.arange(len(rows))), trained_scores)
    for b in range(len(rows)):
        assert np.array_equal(score(block[b], np.array([b]))[0], trained_scores[b])
        for j, mode, per_mode in explain_user(params, V, block[b], b, k=n).recommendations:
            assert mode == trained_modes[b, j]
            assert np.array_equal(per_mode, trained_per_mode[b, :, j])


def test_examples_cover_the_degenerate_cases():
    one_item = batch_case(1, 1, 2, 3, 2, 3, 0.0, False)[4]
    assert one_item and all(mk.size == 1 for mk in one_item)
    assert batch_case(9, 4, 2, 2, 1, 7, 0.7, False)[5] > 0
    assert len(batch_case(5, 9, 3, 3, 2, 7, 0.0, False)[4]) == 7   # chunks of 3, 3 and 1


@pytest.mark.parametrize("chunk", [1, model.CHUNK])
def test_empty_mask_is_degenerate(chunk):
    cfg, V, params, rows, masks, _ = batch_case(4, 5, 2, 2, 2, 2, 0.0, False)
    with chunked(chunk), pytest.raises(DegenerateUser, match="^mask 1 has no observed"):
        batch_gradients(clean_block(rows), csr_rows([masks[0], masks[0][:0]], 5), params, V,
                        cfg.alpha)


def test_empty_batch_rejected():
    cfg, V, params, _, _, _ = batch_case(4, 5, 2, 2, 2, 2, 0.0, False)
    with pytest.raises(ValueError, match="at least one user"):
        batch_gradients(csr_rows([], 5), csr_rows([], 5), params, V, cfg.alpha)


def test_item_tables_built_once_per_call(monkeypatch):
    # every caller runs model.Forward, which builds the keys once:
    # one keys_values call per batch_gradients call, however many chunks it
    # runs, per evaluate, however many blocks it ranks, and per report
    calls = []
    monkeypatch.setattr(model, "keys_values", lambda *a: calls.append(1) or keys_values(*a))
    cfg, V, params, rows, masks, _ = batch_case(5, 9, 3, 3, 2, 7, 0.0, False)
    with chunked(3):
        batch_gradients(clean_block(rows), csr_rows(masks, 9), params, V, cfg.alpha)
    assert len(calls) == 1
    rng = np.random.default_rng(0)
    train = [rng.choice(9, size=3, replace=False).tolist() for _ in range(2 * BLOCK + 5)]
    data = make_split(train, [[] for _ in train], [[(row[0] + 1) % 9] for row in train], 9)
    evaluate(ama_scorer(params, V), data)
    assert len(calls) == 2
    explain_user(params, V, data.train[0], 0, k=3)
    mode_usage(params, V, data, k=3)
    mode_top_items(params, V, data, n_top=3)
    assert len(calls) == 5


class InlineHelper:
    """An executor that runs each task at submit, on the calling thread."""

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future


class CountingHelper(ThreadPoolExecutor):
    """The helper thread, counting the tasks it is given."""

    submitted = 0

    def submit(self, fn, *args):
        self.submitted += 1
        return super().submit(fn, *args)


@pytest.mark.parametrize("users", [model.CHUNK - 7, 2 * model.CHUNK + 9])
def test_helper_thread_changes_no_bytes(users, monkeypatch):
    # dS runs on the helper thread while the calling thread runs the rest of
    # the backward; the same GEMMs run, so computing dS inline gives the same
    # bytes, at a batch inside one chunk and at one spanning three
    cfg = AmaConfig(h=6, d=3, kappa=2, alpha=1.5)
    rng = np.random.default_rng(users)
    n = 200
    V = rng.standard_normal((n, cfg.h))
    params = random_params(n, cfg, seed=users + 1)
    rows = csr_rows([np.sort(rng.choice(n, size=int(rng.integers(1, 30)), replace=False))
                     for _ in range(users)], n)
    masks = corrupt(rows, 0.0, rng)
    helper = CountingHelper(1)
    monkeypatch.setattr(model, "_HELPER", helper)
    threaded, threaded_losses = batch_gradients(rows, masks, params, V, cfg.alpha)
    helper.shutdown()
    assert helper.submitted == -(-users // model.CHUNK)   # one dS per chunk
    monkeypatch.setattr(model, "_HELPER", InlineHelper())
    inline, inline_losses = batch_gradients(rows, masks, params, V, cfg.alpha)
    assert threaded_losses.tobytes() == inline_losses.tobytes()
    for name in PARAM_NAMES:
        assert threaded[name].tobytes() == inline[name].tobytes(), name


def test_outputs_do_not_depend_on_blas_threads(tmp_path):
    # At this size a batch-wide score GEMM, (B*d, h) @ (h, n), or a batch-wide
    # (B*d, n) @ (n, h) GEMM for the mode gradients gives different bytes under
    # 1 and 2 OpenBLAS threads on a 2-core x86-64 host. What training runs
    # instead keeps its bytes there: one (d, h) @ (h, h), one (d, h) @ (h, n)
    # and one (d, n) @ (n, h) GEMM per user, and the (n, B_c*d) @ (B_c*d, h)
    # and (h, B_c*d) @ (B_c*d, h) GEMMs for dS and the W_v gradient, whose
    # inner dimension is a chunk's modes; dS runs on the helper thread, beside
    # the calling thread's GEMMs. A batch of 70 users runs as chunks of 32, 32
    # and at most 6 users, summed across chunks.
    ratings = tmp_path / "ratings.dat"
    write_movielens_file(ratings, synthetic_events(m=100, n=2000, per_user=100, seed=5))
    src = str(Path(__file__).resolve().parents[1] / "src")

    def run(threads, *args):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads), "PYTHONHASHSEED": "0",
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-m", "amarec.cli", *args], env=env,
                              capture_output=True, text=True, timeout=300,
                              cwd=tmp_path / f"t{threads}")
        assert proc.returncode == 0, proc.stderr

    data = str(tmp_path / "data")
    (tmp_path / "t1").mkdir()
    (tmp_path / "t2").mkdir()
    run(1, "prep", "--input", str(ratings), "--format", "movielens-dat",
        "--threshold", "2", "--out", data)
    fast = ["--set", "gamma=2"]
    for threads in (1, 2):
        run(threads, "train", "--data", data, "--out", "model.bin", "--set", "epochs=2",
            "--set", "batch_size=25", *fast)
        run(threads, "train", "--data", data, "--out", "chunked.bin", "--set", "epochs=2",
            "--set", "batch_size=70", *fast)
        run(threads, "evaluate", "--data", data, "--model", "model.bin", "--out",
            "report.json", *fast)
        for baseline in ("pop", "puresvd"):
            run(threads, "evaluate", "--data", data, "--baseline", baseline, "--out",
                f"{baseline}.json", *fast)
        # without --out, each report goes to its default file name
        run(threads, "explain", "--data", data, "--model", "model.bin", "--user", "u000",
            "--dot", "user.dot", "--histogram", "--modes", *fast)
    names = ["model.bin", "model.bin.emb", "model.bin.emb.json", "chunked.bin", "report.json",
             "pop.json", "puresvd.json", "user_u000.json", "user.dot", "mode_usage.csv",
             "mode_top_items.csv"]
    for name in names:
        assert (tmp_path / "t1" / name).read_bytes() == (tmp_path / "t2" / name).read_bytes(), \
            name


def step_peak(nb, n, d, h):
    """The tracemalloc peak of one batch_gradients call on nb users with
    five observed items each, above what was allocated before the call."""
    cfg = AmaConfig(h=h, d=d, kappa=2, rho=0.0)
    rng = np.random.default_rng(3)
    V = rng.standard_normal((n, h))
    params = random_params(n, cfg, seed=4)
    masks = csr_rows([np.sort(rng.choice(n, size=5, replace=False)) for _ in range(nb)], n)
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        batch_gradients(masks, masks, params, V, cfg.alpha)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()


def test_step_memory_stays_below_two_mode_score_arrays():
    # At this shape one B x d x n float64 array dominates every other
    # temporary of the step. Keeping the per-mode scores alive through the
    # backward pass, next to the routed gradients, would peak near 2.75x.
    nb, n, d, h = 64, 4000, 5, 8
    peak = step_peak(nb, n, d, h)
    assert peak < 2.0 * nb * d * n * 8, peak / (nb * d * n * 8)


def test_step_memory_is_set_by_the_chunk_not_the_batch():
    # Nine chunks, the last ragged. One B x d x n array of the whole batch is
    # 8.2 chunk arrays, 2.7 times the bound.
    n, d, h = 4000, 5, 8
    chunk_array = model.CHUNK * d * n * 8   # one chunk's per-mode scores, in bytes
    peak = step_peak(8 * model.CHUNK + 5, n, d, h)
    assert peak < 3.0 * chunk_array, peak / chunk_array
