import numpy as np
import pytest
import scipy.sparse as sp

from amarec.linalg import (
    load_embeddings,
    matrix_hash,
    randomized_svd,
    save_embeddings,
)
from oracles import jacobi_singular_values


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
