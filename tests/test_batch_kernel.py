"""The batched forward/backward kernel against the per-user reference, and
training's independence from the BLAS thread count and its memory peak."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from amarec import explain, model
from amarec.baselines import ama_scorer
from amarec.evaluation import evaluate
from amarec.explain import explain_user, mode_top_items, mode_usage
from amarec.dataset import _rows
from amarec.model import (BLOCK, AmaConfig, AmaParameters, DegenerateUser, PARAM_NAMES,
                          Segments, argmax_mode, attend, batch_gradients, corrupt,
                          decode_maxout, encode, keys_values)
from conftest import csr_rows, synthetic_events, write_movielens_file
from oracles import dense_error_oracle, forward_oracle, gradients_oracle
from test_metrics import make_split
from test_model import padded_gemm, random_params, recording_decode


def chunked(size):
    """Blocks of ``size`` users at every d: batch_gradients runs chunks of
    ``size`` users, and the decode, dU and the histogram blocks of that size."""
    return mock.patch.object(model, "_block_users", lambda d: size)


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
CHUNKS = st.sampled_from([2, 3, BLOCK])


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


def zeros_unsigned(x):
    """The bytes of x with -0.0 read as 0.0."""
    return (x + 0.0).tobytes()


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 12), h=st.integers(1, 5),
       d=st.integers(1, 5), kappa=st.integers(1, 4), users=st.integers(1, 7),
       rho=st.sampled_from([0.0, 0.3, 0.7]), alpha=st.sampled_from([0.0, 1.5]),
       tied=st.booleans(), chunk=CHUNKS)
@example(seed=1, n=1, h=2, d=3, kappa=2, users=3, rho=0.0, alpha=1.5, tied=False,
         chunk=2)   # every row is all observed
@example(seed=9, n=4, h=2, d=2, kappa=1, users=7, rho=0.7, alpha=0.0, tied=False,
         chunk=2)   # corruption empties rows, which train drops
@example(seed=3, n=7, h=3, d=5, kappa=2, users=5, rho=0.3, alpha=1.5, tied=True,
         chunk=BLOCK)   # every score is 0
def test_sparse_targets_give_the_dense_error(seed, n, h, d, kappa, users, rho, alpha, tied,
                                             chunk):
    # the error built from the scores and the CSR rows against the dense
    # target's: g, and so every gradient, byte-equal in float64 but for the
    # sign of a zero (-2 (0 - s) is -0.0 at s = 0, where 2 s is 0.0; adam
    # reads both alike), and the losses equal to rounding, as they sum in
    # another order. The batch is cut as train cuts it.
    cfg, V, params, rows, _, _ = batch_case(seed, n, h, d, kappa, users, 0.0, tied)
    clean = clean_block(rows)
    masks = corrupt(clean, rho, np.random.default_rng(seed))
    used = np.flatnonzero(np.diff(masks.indptr))
    if not used.size:
        return
    clean, masks = _rows(clean, used), _rows(masks, used)
    calls, error = [], model._error

    def recorded(scores, R, lo, alpha):
        calls.append((scores, lo, error(scores, R, lo, alpha)))
        return calls[-1][2]

    def dense(scores, R, lo, alpha):
        return dense_error_oracle(R[lo:lo + scores.shape[0]].toarray(), scores, alpha)

    with chunked(chunk):
        with mock.patch.object(model, "_error", recorded):
            grads, losses = batch_gradients(clean, masks, params, V, alpha)
        with mock.patch.object(model, "_error", dense):
            ref_grads, ref_losses = batch_gradients(clean, masks, params, V, alpha)
    assert [lo for _, lo, _ in calls] == list(range(0, used.size, chunk))
    for scores, lo, (g, _) in calls:
        ref_g = dense_error_oracle(clean[lo:lo + chunk].toarray(), scores, alpha)[0]
        assert zeros_unsigned(g) == zeros_unsigned(ref_g)
    for name in PARAM_NAMES:
        assert zeros_unsigned(grads[name]) == zeros_unsigned(ref_grads[name]), name
    np.testing.assert_allclose(losses, ref_losses, rtol=1e-14, atol=0)


def test_float32_gradients_agree_with_float64():
    # one instance at the bench's h, d and kappa, its float64 parameters and
    # V narrowed to float32: over 30 such instances the largest gap, relative
    # to a parameter's largest gradient entry, was 6.4e-7 (5.4 float32 ulps
    # of 1), and 1.4e-7 for a loss; the bounds are about 3 and 7 times that
    cfg = AmaConfig(h=40, d=3, kappa=3, alpha=1.0)
    rng = np.random.default_rng(0)
    n = 500
    V = rng.standard_normal((n, cfg.h)) / np.sqrt(n)
    params = random_params(n, cfg, seed=1, scale=0.3)
    rows = csr_rows([np.sort(rng.choice(n, size=int(rng.integers(2, 60)), replace=False))
                     for _ in range(70)], n)
    masks = corrupt(rows, 0.3, rng)
    used = np.flatnonzero(np.diff(masks.indptr))
    rows, masks = _rows(rows, used), _rows(masks, used)
    wide = batch_gradients(rows, masks, params, V, cfg.alpha)
    narrow = AmaParameters(*(getattr(params, k).astype(np.float32) for k in PARAM_NAMES))
    grads, losses = batch_gradients(rows, masks, narrow, V.astype(np.float32), cfg.alpha)
    assert losses.dtype == np.float32
    np.testing.assert_allclose(losses, wide[1], rtol=1e-6, atol=0)
    for name in PARAM_NAMES:
        assert grads[name].dtype == np.float32
        gap = np.abs(grads[name] - wide[0][name]).max() / np.abs(wide[0][name]).max()
        assert gap < 2e-6, (name, gap)


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
    # every path below runs blocks of ``chunk`` users, so training, scoring
    # and explanation decode each user in a GEMM of the same shape
    with chunked(chunk):
        K = keys_values(V, params)

        def stages(mks):
            segs = Segments.of(mks)
            A = attend(K[segs.obs], params.Q, segs)
            U = encode(A, V[segs.obs], segs, params.W_v, params.B)[1]
            scores, per_mode = decode_maxout(U, params.S)
            return A, U, scores, argmax_mode(per_mode, scores), per_mode

        A, U, scores, mode_of, per_modes = stages(csr_rows(masks, n))
        seg = Segments.of(csr_rows(masks, n)).seg
        for b, mk in enumerate(masks):
            # the batch equals each user run alone, bitwise
            A1, U1, scores1, mode_of1, per_mode1 = stages(csr_rows([mk], n))
            assert np.array_equal(A[seg == b], A1) and np.array_equal(U[b], U1[0])
            assert np.array_equal(scores[b], scores1[0])
            assert np.array_equal(mode_of[b], mode_of1[0])
            # the block GEMM the decode maximizes over
            per_mode = padded_gemm(U1, params.S.T)[0]
            assert np.array_equal(per_modes[b], per_mode)
            assert np.array_equal(per_mode1[0], per_mode)
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
        with recording_decode() as calls:
            batch_gradients(block, block, params, V, cfg.alpha)
        assert len(calls) == -(-len(rows) // chunk)
        trained_U, trained_scores, trained_modes = decoded(calls)
        trained_per_mode = decode_maxout(trained_U, params.S)[1]
        score = ama_scorer(params, V)
        assert np.array_equal(score(block, np.arange(len(rows))), trained_scores)
        for b in range(len(rows)):
            assert np.array_equal(score(block[b], np.array([b]))[0], trained_scores[b])
            for j, mode, per_mode in explain_user(params, V, block[b], b, k=n).recommendations:
                assert mode == trained_modes[b, j]
                assert np.array_equal(per_mode, trained_per_mode[b, :, j])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.sampled_from([1, 7, 300, 1001, 3706]),
       h=st.sampled_from([1, 3, 40]), d=st.integers(1, 5), place=st.floats(0, 1),
       short=st.floats(0, 1), dtype=st.sampled_from([np.float64, np.float32]))
@example(seed=0, n=300, h=40, d=1, place=1.0, short=1.0,   # at 32 rows, a narrower tile's
         dtype=np.float64)
@example(seed=1, n=3706, h=40, d=3, place=1.0, short=0.5, dtype=np.float64)
@example(seed=0, n=300, h=40, d=1, place=1.0, short=1.0, dtype=np.float32)
@example(seed=1, n=3706, h=40, d=3, place=1.0, short=0.5, dtype=np.float32)
def test_a_users_block_gemm_rows_do_not_depend_on_its_block(seed, n, h, d, place, short,
                                                            dtype):
    # a user's per-mode scores and dU rows are the same bytes in a full
    # block, at any place in a short block and alone, in float64 (dgemm)
    # and in float32 (sgemm), the dtype training runs in
    rng = np.random.default_rng(seed)
    block = model._block_users(d)
    b = min(int(place * block), block - 1)
    users = b + 1 + int(short * (block - b - 1))   # a block of b+1 to block users
    S = rng.standard_normal((n, h)).astype(dtype)
    U = rng.standard_normal((block, d, h)).astype(dtype)
    G = rng.standard_normal((block, d, n)).astype(dtype)

    def dU(rows):
        return model._block_matmul(model._padded(rows), S)[:len(rows)]

    for run in (decode_maxout(U, S)[1], decode_maxout(U[:users], S)[1]):
        assert run.dtype == dtype
        assert run[b].tobytes() == decode_maxout(U[b:b + 1], S)[1][0].tobytes()
    for run in (dU(G), dU(G[:users])):
        assert run[b].tobytes() == dU(G[b:b + 1])[0].tobytes()


@pytest.mark.parametrize("d", [1, 3, 5])
@pytest.mark.parametrize("n", [300, 1001, 3706])
def test_forward_over_many_users_equals_its_chunks(n, d):
    # a call on more than one block of users runs one block GEMM per block
    cfg = AmaConfig(h=40, d=d, kappa=3)
    block = model._block_users(d)
    rng = np.random.default_rng(n)
    V = rng.standard_normal((n, cfg.h))
    masks = csr_rows([np.sort(rng.choice(n, size=int(rng.integers(1, 40)), replace=False))
                      for _ in range(70)], n)
    forward = model.Forward(random_params(n, cfg, seed=n + 1), V)
    *_, scores, per_mode = forward(masks)
    for lo in range(0, 70, block):
        *_, chunk_scores, chunk_per_mode = forward(masks[lo:lo + block])
        assert scores[lo:lo + block].tobytes() == chunk_scores.tobytes()
        assert per_mode[lo:lo + block].tobytes() == chunk_per_mode.tobytes()


def test_import_sets_one_blas_thread():
    # the block GEMMs keep a user's bytes only at one BLAS thread, so
    # importing amarec sets it, whatever OPENBLAS_NUM_THREADS asks for
    code = ("import ctypes, numpy.linalg._umath_linalg as ext, amarec\n"
            "lib = ctypes.CDLL(ext.__file__)\n"
            "get = getattr(lib, 'scipy_openblas_get_num_threads64_', None)"
            " or getattr(lib, 'openblas_get_num_threads', None)\n"
            "print(-1 if get is None else get())\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "4",
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    if proc.stdout.strip() == "-1":
        pytest.skip("numpy's BLAS is not OpenBLAS")
    assert proc.stdout.strip() == "1"


def test_examples_cover_the_degenerate_cases():
    one_item = batch_case(1, 1, 2, 3, 2, 3, 0.0, False)[4]
    assert one_item and all(mk.size == 1 for mk in one_item)
    assert batch_case(9, 4, 2, 2, 1, 7, 0.7, False)[5] > 0
    assert len(batch_case(5, 9, 3, 3, 2, 7, 0.0, False)[4]) == 7   # chunks of 3, 3 and 1


@pytest.mark.parametrize("chunk", [1, BLOCK])
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


def test_attribution_runs_only_where_it_is_read(monkeypatch):
    # ranking reads only the scores; the histogram attributes the k items it
    # lists per user, and training every item of the catalog
    widths = []

    def counting(per_mode, scores):
        widths.append(per_mode.shape[2])
        return argmax_mode(per_mode, scores)

    monkeypatch.setattr(model, "argmax_mode", counting)
    monkeypatch.setattr(explain, "argmax_mode", counting)
    cfg, V, params, rows, masks, _ = batch_case(5, 9, 3, 3, 2, 7, 0.0, False)
    train = [[u % 9, (u + 4) % 9] for u in range(BLOCK + 5)]
    data = make_split(train, [[] for _ in train], [[(u + 1) % 9] for u in range(len(train))], 9)
    evaluate(ama_scorer(params, V), data)
    assert widths == []
    mode_usage(params, V, data, k=3)
    assert widths == [3, 3]   # two blocks
    batch_gradients(clean_block(rows), csr_rows(masks, 9), params, V, cfg.alpha)
    assert widths[2:] == [9]


@pytest.mark.parametrize("d", [1, 3, 5])
@pytest.mark.parametrize("blocks", [1, 2])
def test_batch_is_its_chunks_summed_in_order(blocks, d):
    # a batch spanning several chunks gives the bytes of its chunks run one
    # call each, their gradients added in ascending chunk order and their
    # losses laid end to end
    cfg = AmaConfig(h=6, d=d, kappa=2, alpha=1.5)
    block = model._block_users(d)
    users = blocks * block + 9
    rng = np.random.default_rng(users)
    n = 200
    V = rng.standard_normal((n, cfg.h))
    params = random_params(n, cfg, seed=users + 1)
    rows = csr_rows([np.sort(rng.choice(n, size=int(rng.integers(1, 30)), replace=False))
                     for _ in range(users)], n)
    masks = corrupt(rows, 0.0, rng)
    grads, losses = batch_gradients(rows, masks, params, V, cfg.alpha)
    parts = [batch_gradients(rows[lo:lo + block], masks[lo:lo + block], params, V, cfg.alpha)
             for lo in range(0, users, block)]
    assert len(parts) == blocks + 1
    assert losses.tobytes() == np.concatenate([loss for _, loss in parts]).tobytes()
    for name in PARAM_NAMES:
        total = parts[0][0][name].copy()
        for chunk, _ in parts[1:]:
            total += chunk[name]
        assert grads[name].tobytes() == total.tobytes(), name


@pytest.mark.parametrize("d", [1, 3, 5])
def test_a_training_chunk_is_one_block(d):
    # batch_gradients decodes whole blocks of _block_users(d) users, so only
    # the last chunk of a batch runs zero rows
    cfg = AmaConfig(h=4, d=d, kappa=2)
    block = model._block_users(d)
    users, n = 2 * block + 9, 30
    rng = np.random.default_rng(d)
    rows = csr_rows([np.sort(rng.choice(n, size=3, replace=False)) for _ in range(users)], n)
    with recording_decode() as calls:
        batch_gradients(rows, rows, random_params(n, cfg, seed=d), rng.standard_normal((n, 4)),
                        cfg.alpha)
    assert [len(U) for U, *_ in calls] == [block, block, 9]


def test_outputs_do_not_depend_on_blas_threads(tmp_path):
    # At this size the padded block GEMMs of the decode and of dU give a user
    # other bytes in another block under 2 OpenBLAS threads on a 2-core
    # x86-64 host; importing amarec pins one thread, so OPENBLAS_NUM_THREADS
    # must not move any output. A batch of 70 users runs as chunks of 32, 32
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
    names = ["model.bin", "model.bin.emb", "chunked.bin", "report.json", "pop.json",
             "puresvd.json", "user_u000.json", "user.dot", "mode_usage.csv",
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
    # backward pass, next to the routed gradients, would peak near 2.4x.
    nb, n, d, h = 64, 4000, 5, 8
    peak = step_peak(nb, n, d, h)
    assert peak < 2.0 * nb * d * n * 8, peak / (nb * d * n * 8)


def test_step_memory_is_set_by_the_chunk_not_the_batch():
    # Nine chunks, the last ragged. One B x d x n array of the whole batch is
    # 8.1 chunk arrays, 2.7 times the bound.
    n, d, h = 4000, 5, 8
    block = model._block_users(d)
    chunk_array = block * d * n * 8   # one chunk's per-mode scores, in bytes
    peak = step_peak(8 * block + 5, n, d, h)
    assert peak < 3.0 * chunk_array, peak / chunk_array
