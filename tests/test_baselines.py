import numpy as np
import pytest
import scipy.sparse as sp

from amarec.baselines import ama_scorer, pop_scorer, puresvd_scorer
from amarec.linalg import embed_items, randomized_svd
from amarec.model import AmaConfig
from test_metrics import ranked_list


def csr(rows, n):
    m = sp.lil_matrix((len(rows), n))
    for i, cols in enumerate(rows):
        for j in cols:
            m[i, j] = 1.0
    return m.tocsr()


def one(score, row, u, n):
    """The scores of one user with train row ``row``, as a block of one."""
    row = np.asarray(row, dtype=np.intp)
    rows = sp.csr_matrix((np.ones(row.size), row, [0, row.size]), shape=(1, n))
    out = score(rows, np.array([u]))
    assert out.shape == (1, n)
    return out[0]


class TestPopScorer:
    def test_counts_and_ranking(self):
        train = csr([[0, 2], [2], [0, 1, 2], [0, 2], [0, 2], [2, 0], [2], [2], [2], [2]],
                    n=3)
        score = pop_scorer(train)
        counts = one(score, train[0].indices, 0, 3)
        np.testing.assert_array_equal(counts, [5, 1, 10])
        assert ranked_list(counts, k=3).tolist() == [2, 0, 1]

    def test_user_invariant(self):
        train = csr([[0], [1], [0, 1]], n=4)
        score = pop_scorer(train)
        a = one(score, train[0].indices, 0, 4)
        b = one(score, train[2].indices, 2, 4)
        np.testing.assert_array_equal(a, b)

    def test_all_equal_counts_tiebreak(self):
        train = csr([[0, 1, 2]], n=3)
        assert ranked_list(one(pop_scorer(train), [], 0, 3), k=3).tolist() == [0, 1, 2]

    def test_unseen_item_scored_zero_ranked_last(self):
        train = csr([[0, 1]], n=3)
        counts = one(pop_scorer(train), [], 0, 3)
        assert counts[2] == 0.0
        assert ranked_list(counts, k=3).tolist()[-1] == 2

    def test_empty_train_rejected(self):
        with pytest.raises(ValueError):
            pop_scorer(csr([[], []], n=3))


def svd_scorer(train, **run):
    """PureSVD with the item embeddings of the run config ``run`` sets."""
    return puresvd_scorer(embed_items(train, AmaConfig(**run)))


class TestPureSvdScorer:
    def test_full_rank_reproduces_row(self):
        rng = np.random.default_rng(0)
        train = sp.csr_matrix((rng.random((5, 4)) < 0.6).astype(float))
        score = svd_scorer(train, h=4, gamma=10, seed=0)
        row = train[1].indices
        dense = np.zeros(4)
        dense[row] = 1.0
        np.testing.assert_allclose(one(score, row, 1, 4), dense, atol=1e-8)

    def test_empty_row_zero_scores(self):
        train = csr([[0, 1], [2]], n=4)
        score = svd_scorer(train, h=2)
        np.testing.assert_array_equal(one(score, [], 0, 4), np.zeros(4))

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(7)
        dense = (rng.random((6, 5)) < 0.5).astype(float)
        train = sp.csr_matrix(dense)
        score = svd_scorer(train, h=2, gamma=12, seed=3)
        # dense oracle: eigenvectors of R^T R via jacobi singular values of R
        # validated indirectly; here compare against numpy's full SVD projection
        _, _, Vt = np.linalg.svd(dense, full_matrices=False)
        V2 = Vt[:2].T
        for u in range(6):
            row = train[u].indices
            expected = dense[u] @ V2 @ V2.T
            got = one(score, row, u, 5)
            # columns agree up to sign; projector is sign-invariant
            np.testing.assert_allclose(got, expected, atol=1e-8)

    def test_linear_in_user_row(self):
        train = csr([[0, 1], [2, 3], [1, 2]], n=5)
        score = svd_scorer(train, h=2)
        s01 = one(score, [0, 1], 0, 5)
        s0 = one(score, [0], 0, 5)
        s1 = one(score, [1], 0, 5)
        np.testing.assert_allclose(s01, s0 + s1, atol=1e-12)


class TestAmaScorer:
    def test_matches_direct_forward(self):
        from test_model import attend_one, decode_one, encode_one, small_instance
        from amarec.model import keys_values

        cfg, V, params, r, obs = small_instance(4)
        score = ama_scorer(params, V)
        A = attend_one(keys_values(V, params), params.Q, obs)
        expected = decode_one(encode_one(A, V[obs], params.W_v, params.B), params.S)[0]
        np.testing.assert_array_equal(one(score, obs, 0, V.shape[0]), expected)

    def test_empty_history_zero_scores(self):
        from test_model import small_instance

        cfg, V, params, r, obs = small_instance(5)
        score = ama_scorer(params, V)
        np.testing.assert_array_equal(one(score, [], 0, V.shape[0]), np.zeros(V.shape[0]))

    @pytest.mark.parametrize("empty", [[], [0], [5, 17], [31], list(range(32))],
                             ids=["none", "first", "two", "last", "all"])
    def test_block_equals_the_nonempty_rows_scored_apart(self, empty):
        # a block with no empty row is scored as it is; one with empty rows
        # scores the others as their own block, and the empty rows zeros
        from test_model import random_params
        from amarec.model import Forward

        cfg = AmaConfig(h=5, d=3, kappa=2)
        rng = np.random.default_rng(len(empty))
        V = rng.standard_normal((60, cfg.h))
        params = random_params(60, cfg, seed=7)
        rows = csr([[] if u in empty else rng.choice(60, 4, replace=False).tolist()
                    for u in range(32)], 60)
        expected = np.zeros(rows.shape)
        full = np.flatnonzero(np.diff(rows.indptr))
        if full.size:
            expected[full] = Forward(params, V)(rows[full])[4]
        got = ama_scorer(params, V)(rows, np.arange(32))
        assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()


class TestBlockContract:
    @staticmethod
    def train_with_empty_rows():
        rng = np.random.default_rng(3)
        dense = (rng.random((70, 400)) < 0.05).astype(float)
        dense[[0, 33, 69]] = 0.0
        return sp.csr_matrix(dense)

    @pytest.mark.parametrize("which", ["pop", "puresvd", "ama"])
    def test_block_rows_equal_one_user_at_a_time(self, which):
        from test_model import random_params

        train = self.train_with_empty_rows()
        m, n = train.shape
        if which == "pop":
            score = pop_scorer(train)
        elif which == "puresvd":
            score = svd_scorer(train, h=20, gamma=4, seed=1)
        else:
            cfg = AmaConfig(h=6, d=3, kappa=2)
            V = np.random.default_rng(4).standard_normal((n, cfg.h))
            score = ama_scorer(random_params(n, cfg, seed=5), V)
        users = np.arange(m)
        block = score(train, users)
        assert block.shape == (m, n)
        for u in users:
            assert np.array_equal(block[u], score(train[u], users[u:u + 1])[0])
        for lo, hi in ((0, 32), (32, 64), (64, 70)):
            assert np.array_equal(block[lo:hi], score(train[lo:hi], users[lo:hi]))

    def test_puresvd_rows_equal_per_user_projection_bitwise(self):
        train = self.train_with_empty_rows()
        V = randomized_svd(train, rank=20, power_iters=4, seed=1).right
        block = puresvd_scorer(V)(train, np.arange(70))
        for u in range(70):
            row = train[u].indices
            expected = V @ V[row].sum(axis=0) if row.size else np.zeros(400)
            assert np.array_equal(block[u], expected)
