import itertools
import math

import numpy as np
import pytest
import scipy.sparse as sp

from amarec.dataset import SplitDataset
from amarec.evaluation import (
    evaluate,
    map_at_k,
    ndcg,
    precision_at_k,
    r_precision,
    rank_topk,
    recall_at_k,
)
from oracles import enumerate_metrics


class TestRankTopk:
    def test_basic(self):
        out = rank_topk([0.1, 0.9, 0.5], exclude=[], k=2)
        assert out.tolist() == [1, 2]

    def test_exclusion(self):
        out = rank_topk([0.1, 0.9, 0.5], exclude=[1], k=2)
        assert out.tolist() == [2, 0]

    def test_tie_breaks_ascending_index(self):
        out = rank_topk([0.5, 0.1, 0.5], exclude=[], k=2)
        assert out.tolist() == [0, 2]

    def test_no_duplicates_no_excluded(self):
        rng = np.random.default_rng(0)
        scores = rng.random(12)
        out = rank_topk(scores, exclude=[2, 5], k=None)
        assert len(set(out.tolist())) == len(out) == 10
        assert not {2, 5} & set(out.tolist())

    def test_repeated_exclusion_counted_once(self):
        out = rank_topk([5, 4, 3, 2, 1], exclude=[0, 0], k=None)
        assert out.tolist() == [1, 2, 3, 4]


WORKED_RANKED = np.array([10, 11, 12, 13, 14])  # hits at ranks 1 and 4
WORKED_RELEVANT = {10, 13, 99}


class TestWorkedExample:
    def test_precision(self):
        assert precision_at_k(WORKED_RANKED, WORKED_RELEVANT, 5) == pytest.approx(0.4)

    def test_recall(self):
        assert recall_at_k(WORKED_RANKED, WORKED_RELEVANT, 5) == pytest.approx(2 / 3)

    def test_map(self):
        assert map_at_k(WORKED_RANKED, WORKED_RELEVANT, 5) == pytest.approx(0.5)

    def test_ndcg(self):
        expected = (1 + 1 / math.log2(5)) / (1 + 1 / math.log2(3) + 1 / math.log2(4))
        got = ndcg(WORKED_RANKED, WORKED_RELEVANT, k_cap=5)
        assert got == pytest.approx(expected)
        assert got == pytest.approx(0.6714, abs=2e-4)

    def test_r_precision(self):
        # R = 3 relevant, one hit in the top-3
        assert r_precision(WORKED_RANKED, WORKED_RELEVANT) == pytest.approx(1 / 3)


class TestTrivialCases:
    def test_all_relevant_topk(self):
        ranked = np.arange(5)
        relevant = set(range(8))
        assert precision_at_k(ranked, relevant, 5) == 1.0
        assert map_at_k(ranked, relevant, 5) == 1.0

    def test_no_hits(self):
        ranked = np.arange(5)
        relevant = {90, 91}
        assert precision_at_k(ranked, relevant, 5) == 0.0
        assert recall_at_k(ranked, relevant, 5) == 0.0
        assert map_at_k(ranked, relevant, 5) == 0.0
        assert ndcg(ranked, relevant) == 0.0
        assert r_precision(ranked, relevant) == 0.0

    def test_ideal_ranking_ndcg_one(self):
        assert ndcg(np.array([3, 1, 9]), {3, 1, 9}) == pytest.approx(1.0)

    def test_all_top_r_relevant(self):
        assert r_precision(np.array([0, 1, 2, 3]), {0, 1}) == 1.0


class TestOracleEquivalence:
    @pytest.mark.parametrize("seed", range(30))
    def test_random_fixtures_bit_exact(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 11))
        ranked = rng.permutation(n)
        relevant = set(rng.choice(n, size=int(rng.integers(1, n)), replace=False).tolist())
        k = int(rng.integers(1, 6))
        oracle = enumerate_metrics(ranked, relevant, k)
        assert precision_at_k(ranked, relevant, k) == oracle["precision"]
        assert recall_at_k(ranked, relevant, k) == oracle["recall"]
        assert map_at_k(ranked, relevant, k) == oracle["ap"]
        assert r_precision(ranked, relevant) == oracle["r_precision"]
        assert ndcg(ranked, relevant) == oracle["ndcg"]

    def test_r_precision_order_insensitive(self):
        relevant = {0, 2, 5}
        base = [2, 5, 7, 1, 0]
        vals = {r_precision(np.array(list(p) + base[3:]), relevant)
                for p in itertools.permutations(base[:3])}
        assert len(vals) == 1

    def test_monotone_in_added_hit(self):
        relevant = {4, 9}
        worse = np.array([0, 1, 2, 3, 4])   # hit at rank 5
        better = np.array([0, 1, 2, 4, 3])  # hit at rank 4
        for metric in (lambda r: precision_at_k(r, relevant, 5),
                       lambda r: map_at_k(r, relevant, 5),
                       lambda r: ndcg(r, relevant, 5)):
            assert metric(better) >= metric(worse)


def make_split(train_rows, val_rows, test_rows, n):
    def mat(rows):
        m = sp.lil_matrix((len(rows), n))
        for i, cols in enumerate(rows):
            for j in cols:
                m[i, j] = 1.0
        return m.tocsr()

    return SplitDataset(
        train=mat(train_rows), validation=mat(val_rows), test=mat(test_rows),
        user_ids=tuple(f"u{i}" for i in range(len(train_rows))),
        item_ids=tuple(f"i{j}" for j in range(n)),
    )


class TestEvaluate:
    def test_single_user_zero_ci(self):
        data = make_split([[0]], [[]], [[1]], n=4)
        report = evaluate(lambda row, u: np.array([0.0, 1.0, 0.5, 0.2]), data,
                          ks=(1, 2))
        assert report.num_users == 1
        for rec in report.metrics.values():
            assert rec["ci"] == 0.0

    def test_perfect_oracle_scorer(self):
        data = make_split([[0], [1]], [[], []], [[1, 2], [0, 3]], n=5)

        def oracle(row, u):
            dense = np.zeros(5)
            dense[data.test[u].indices] = 1.0
            return dense

        report = evaluate(oracle, data, ks=(2,))
        assert report.metrics["Precision@2"]["mean"] == 1.0
        assert report.metrics["R-Precision"]["mean"] == 1.0
        assert report.metrics["NDCG"]["mean"] == 1.0

    def test_matches_brute_force_on_toy_fixture(self):
        # user 0 has item 1 in train and validation, as an item rated twice can
        data = make_split([[0, 1], [2], [0]], [[1, 2], [], [1]],
                          [[3, 4], [0, 3], [2]], n=5)
        scores = {0: [9, 8, 7, 6, 5], 1: [1, 5, 3, 2, 4], 2: [2, 2, 2, 9, 1]}
        report = evaluate(lambda row, u: np.array(scores[u], float), data, ks=(2,))

        per_user = []
        for u in range(3):
            relevant = set(data.test[u].indices.tolist())
            exclude = set(data.train[u].indices.tolist()) | set(
                data.validation[u].indices.tolist())
            ranked = [j for j in np.lexsort((np.arange(5), -np.array(scores[u], float)))
                      if j not in exclude]
            per_user.append(enumerate_metrics(ranked, relevant, 2))
        assert report.metrics["Precision@2"]["mean"] == np.mean(
            [r["precision"] for r in per_user])
        assert report.metrics["MAP@2"]["mean"] == np.mean([r["ap"] for r in per_user])
        assert report.metrics["NDCG"]["mean"] == np.mean([r["ndcg"] for r in per_user])
        assert report.metrics["R-Precision"]["mean"] == np.mean(
            [r["r_precision"] for r in per_user])

    def test_empty_relevant_users_skipped(self):
        data = make_split([[0], [1]], [[], []], [[1], []], n=3)
        report = evaluate(lambda row, u: np.arange(3, dtype=float), data, ks=(1,))
        assert report.num_users == 1

    def test_validation_split_excludes_train_only(self):
        data = make_split([[0]], [[1]], [[2]], n=3)
        # item 2 scores highest; at validation time it must stay rankable
        report = evaluate(lambda row, u: np.array([0.0, 0.5, 1.0]), data,
                          split="validation", ks=(1,))
        assert report.metrics["Precision@1"]["mean"] == 0.0
        report_t = evaluate(lambda row, u: np.array([0.0, 0.5, 1.0]), data,
                            split="test", ks=(1,))
        assert report_t.metrics["Precision@1"]["mean"] == 1.0

    def test_report_serialization(self):
        data = make_split([[0]], [[]], [[1]], n=3)
        report = evaluate(lambda row, u: np.arange(3, dtype=float), data, ks=(1,))
        text = report.to_json()
        assert '"R-Precision"' in text
        assert "R-Precision" in report.table()
