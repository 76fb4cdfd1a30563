import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings, strategies as st

from amarec.linalg import (
    load_embeddings,
    matrix_hash,
    randomized_svd,
    save_embeddings,
)
from oracles import jacobi_singular_values, matrix_hash_oracle, randomized_svd_oracle


def random_binary(m, n, density=0.4, seed=0):
    rng = np.random.default_rng(seed)
    return (rng.random((m, n)) < density).astype(np.float64)


class TestRandomizedSvd:
    def test_identity_spectrum(self):
        res = randomized_svd(np.eye(3), rank=3)
        np.testing.assert_allclose(res.singular_values, np.ones(3), atol=1e-12)

    def test_rank_one(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal(8)
        b = rng.standard_normal(6)
        a /= np.linalg.norm(a)
        b /= np.linalg.norm(b)
        res = randomized_svd(np.outer(a, b), rank=1)
        assert res.singular_values[0] == pytest.approx(1.0, abs=1e-10)
        recon = res.left * res.singular_values @ res.right.T
        assert np.abs(recon - np.outer(a, b)).max() < 1e-10

    def test_matches_jacobi_oracle_binary(self):
        R = random_binary(8, 6, seed=5)
        res = randomized_svd(R, rank=4, power_iters=10, seed=2)
        oracle = jacobi_singular_values(R)[:4]
        np.testing.assert_allclose(res.singular_values, oracle, atol=1e-6)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_jacobi_oracle_small_matrices(self, seed):
        rng = np.random.default_rng(seed)
        m, n = rng.integers(2, 33, size=2)
        rank = int(min(m, n))
        R = rng.standard_normal((m, n))
        res = randomized_svd(R, rank=rank, power_iters=12, seed=seed + 100)
        oracle = jacobi_singular_values(R)[:rank]
        np.testing.assert_allclose(res.singular_values, oracle, atol=1e-6)

    def test_orthonormality(self):
        R = random_binary(20, 15, seed=9)
        res = randomized_svd(R, rank=6, seed=4)
        eye = np.eye(6)
        assert np.abs(res.right.T @ res.right - eye).max() <= 1e-8
        assert np.abs(res.left.T @ res.left - eye).max() <= 1e-8

    def test_singular_values_nonincreasing(self):
        R = random_binary(12, 10, seed=3)
        res = randomized_svd(R, rank=5, seed=0)
        assert np.all(np.diff(res.singular_values) <= 1e-12)

    def test_monotone_reconstruction_error(self):
        R = random_binary(16, 12, seed=8)
        errs = []
        for h in range(1, 9):
            res = randomized_svd(R, rank=h, power_iters=8, seed=42)
            recon = res.left * res.singular_values @ res.right.T
            errs.append(np.linalg.norm(R - recon))
        assert all(b <= a + 1e-9 for a, b in zip(errs, errs[1:]))

    def test_deterministic_and_sign_convention(self):
        R = sp.csr_matrix(random_binary(10, 9, seed=6))
        a = randomized_svd(R, rank=3, seed=7)
        b = randomized_svd(R, rank=3, seed=7)
        np.testing.assert_array_equal(a.right, b.right)
        for j in range(3):
            idx = np.argmax(np.abs(a.right[:, j]))
            assert a.right[idx, j] > 0

    def test_sparse_matches_dense(self):
        R = random_binary(10, 8, seed=2)
        a = randomized_svd(sp.csr_matrix(R), rank=4, seed=1)
        b = randomized_svd(R, rank=4, seed=1)
        np.testing.assert_allclose(a.singular_values, b.singular_values, atol=1e-12)

    def test_rank_out_of_range(self):
        with pytest.raises(ValueError):
            randomized_svd(np.eye(3), rank=4)
        with pytest.raises(ValueError):
            randomized_svd(np.eye(3), rank=0)

    def test_negative_power_iters_rejected(self):
        with pytest.raises(ValueError, match="power_iters must be >= 0"):
            randomized_svd(np.eye(3), rank=2, power_iters=-1)


class TestAgainstTwoQrOracle:
    """The one-QR-per-iteration SVD against the oracle that runs a QR after
    each half of every power iteration: both span (R R^T)^p R Omega."""

    @pytest.mark.parametrize("shape", [(30, 80), (80, 30), (50, 50), (60, 400), (400, 60)])
    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
    @pytest.mark.parametrize("power_iters", range(4))
    def test_matches_oracle(self, shape, sparse, power_iters):
        m, n = shape
        R = random_binary(m, n, density=0.15, seed=m * n + power_iters)
        rank = min(m, n) // 3
        A = sp.csr_matrix(R) if sparse else R
        res = randomized_svd(A, rank, power_iters, seed=3)
        U, s, V = randomized_svd_oracle(A, rank, power_iters, seed=3)
        if power_iters == 0:   # the range finder alone is unchanged, bit for bit
            np.testing.assert_array_equal(res.right, V)
            np.testing.assert_array_equal(res.singular_values, s)
        np.testing.assert_allclose(res.singular_values, s, rtol=1e-10, atol=0)
        # a column is pinned down only where the exact spectrum has a wide gap
        exact = np.linalg.svd(R, compute_uv=False)
        gap = np.minimum(np.abs(np.diff(exact, prepend=np.inf))[:rank],
                         np.abs(np.diff(exact))[:rank]) / exact[0]
        wide = gap > 1e-3
        assert wide.any()
        np.testing.assert_allclose(res.right[:, wide], V[:, wide], atol=1e-8, rtol=0)
        np.testing.assert_allclose(res.left[:, wide], U[:, wide], atol=1e-8, rtol=0)
        top = np.abs(res.right).argmax(axis=0)
        assert (res.right[top, np.arange(rank)] > 0).all()


@pytest.mark.parametrize("shape", [(300, 3000), (3000, 300)], ids=["wide", "tall"])
def test_right_factor_does_not_depend_on_blas_threads(shape):
    # both orientations: the QR'd m x k iterate is the short side of a wide
    # matrix and the long side of a tall one
    src = str(Path(__file__).resolve().parents[1] / "src")
    script = (
        "import hashlib, numpy as np, scipy.sparse as sp\n"
        "from amarec.linalg import embed_items\n"
        f"m, n = {shape}\n"
        "R = sp.random(m, n, density=0.02, random_state=np.random.default_rng(9),"
        " format='csr', data_rvs=np.ones)\n"
        "print(hashlib.sha256(embed_items(R, h=40, gamma=4, seed=2).tobytes()).hexdigest())\n"
    )

    def digest(threads):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads),
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    assert digest(1) == digest(2)


def test_embedding_save_load_roundtrip(tmp_path):
    V = np.random.default_rng(0).standard_normal((7, 4))
    path = tmp_path / "emb.bin"
    save_embeddings(V, path, meta={"h": 4, "gamma": 10, "seed": 0})
    np.testing.assert_array_equal(load_embeddings(path), V)
    assert (tmp_path / "emb.bin.json").exists()


def test_embedding_bad_magic(tmp_path):
    p = tmp_path / "junk.bin"
    p.write_bytes(b"NOTMAGIC" + b"\0" * 32)
    with pytest.raises(ValueError):
        load_embeddings(p)


def test_matrix_hash_distinguishes_patterns():
    a = sp.csr_matrix(np.eye(3))
    b = sp.csr_matrix(np.fliplr(np.eye(3)))
    assert matrix_hash(a) != matrix_hash(b)
    assert matrix_hash(a) == matrix_hash(sp.csr_matrix(np.eye(3)))


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 10_000), m=st.integers(0, 12), n=st.integers(1, 10),
       max_row=st.integers(0, 8), shuffle=st.booleans())
@example(seed=0, m=4, n=3, max_row=0, shuffle=False)   # no stored entry at all
def test_matrix_hash_matches_lexsort_oracle(seed, m, n, max_row, shuffle):
    # rows drawn with replacement hold duplicates; shuffled rows are unsorted;
    # a row drawing 0 entries is empty
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, max_row + 1, size=m)
    indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int32)
    rows = [np.sort(rng.integers(0, n, size=c)) for c in counts]
    if shuffle:
        rows = [rng.permutation(r) for r in rows]
    indices = np.concatenate([np.zeros(0, np.int32), *rows]).astype(np.int32)
    mat = sp.csr_matrix((np.ones(len(indices)), indices, indptr), shape=(m, n))
    before = mat.indices.copy()
    assert matrix_hash(mat) == matrix_hash_oracle(mat)
    np.testing.assert_array_equal(mat.indices, before)   # the input is left as it was
