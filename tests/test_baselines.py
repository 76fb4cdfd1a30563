import numpy as np
import pytest
import scipy.sparse as sp

from amarec.baselines import ama_scorer, pop_scorer, puresvd_scorer
from amarec.evaluation import rank_topk


def csr(rows, n):
    m = sp.lil_matrix((len(rows), n))
    for i, cols in enumerate(rows):
        for j in cols:
            m[i, j] = 1.0
    return m.tocsr()


class TestPopScorer:
    def test_counts_and_ranking(self):
        train = csr([[0, 2], [2], [0, 1, 2], [0, 2], [0, 2], [2, 0], [2], [2], [2], [2]],
                    n=3)
        score = pop_scorer(train)
        counts = score(train[0].indices, 0)
        np.testing.assert_array_equal(counts, [5, 1, 10])
        assert rank_topk(counts, [], 3).tolist() == [2, 0, 1]

    def test_user_invariant(self):
        train = csr([[0], [1], [0, 1]], n=4)
        score = pop_scorer(train)
        a = score(train[0].indices, 0)
        b = score(train[2].indices, 2)
        np.testing.assert_array_equal(a, b)

    def test_all_equal_counts_tiebreak(self):
        train = csr([[0, 1, 2]], n=3)
        assert rank_topk(pop_scorer(train)(np.array([]), 0), [], 3).tolist() == [0, 1, 2]

    def test_unseen_item_scored_zero_ranked_last(self):
        train = csr([[0, 1]], n=3)
        counts = pop_scorer(train)(np.array([]), 0)
        assert counts[2] == 0.0
        assert rank_topk(counts, [], 3).tolist()[-1] == 2

    def test_empty_train_rejected(self):
        with pytest.raises(ValueError):
            pop_scorer(csr([[], []], n=3))


class TestPureSvdScorer:
    def test_full_rank_reproduces_row(self):
        rng = np.random.default_rng(0)
        train = sp.csr_matrix((rng.random((5, 4)) < 0.6).astype(float))
        score = puresvd_scorer(train, rank=4, iters=10, seed=0)
        row = train[1].indices
        dense = np.zeros(4)
        dense[row] = 1.0
        np.testing.assert_allclose(score(row, 1), dense, atol=1e-8)

    def test_empty_row_zero_scores(self):
        train = csr([[0, 1], [2]], n=4)
        score = puresvd_scorer(train, rank=2)
        np.testing.assert_array_equal(score(np.array([], dtype=np.intp), 0),
                                      np.zeros(4))

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(7)
        dense = (rng.random((6, 5)) < 0.5).astype(float)
        train = sp.csr_matrix(dense)
        score = puresvd_scorer(train, rank=2, iters=12, seed=3)
        # dense oracle: eigenvectors of R^T R via jacobi singular values of R
        # validated indirectly; here compare against numpy's full SVD projection
        _, _, Vt = np.linalg.svd(dense, full_matrices=False)
        V2 = Vt[:2].T
        for u in range(6):
            row = train[u].indices
            expected = dense[u] @ V2 @ V2.T
            got = score(row, u)
            # columns agree up to sign; projector is sign-invariant
            np.testing.assert_allclose(got, expected, atol=1e-8)

    def test_linear_in_user_row(self):
        train = csr([[0, 1], [2, 3], [1, 2]], n=5)
        score = puresvd_scorer(train, rank=2)
        s01 = score(np.array([0, 1]), 0)
        s0 = score(np.array([0]), 0)
        s1 = score(np.array([1]), 0)
        np.testing.assert_allclose(s01, s0 + s1, atol=1e-12)


class TestAmaScorer:
    def test_matches_direct_forward(self):
        from test_model import attend_one, decode_one, encode_one, small_instance
        from amarec.model import keys_values

        cfg, V, params, r, obs = small_instance(4)
        score = ama_scorer(params, V, cfg)
        K, Vt = keys_values(V, params)
        A = attend_one(K, params.Q, obs, cfg.kappa)
        expected = decode_one(encode_one(A, Vt[obs], params.B), params.S).scores
        np.testing.assert_array_equal(score(obs, 0), expected)

    def test_empty_history_zero_scores(self):
        from test_model import small_instance

        cfg, V, params, r, obs = small_instance(5)
        score = ama_scorer(params, V, cfg)
        np.testing.assert_array_equal(score(np.array([], dtype=np.intp), 0),
                                      np.zeros(V.shape[0]))
