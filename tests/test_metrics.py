import itertools
import math
import re

import numpy as np
import pytest
import scipy.sparse as sp

from amarec.dataset import SplitDataset
from amarec.evaluation import _discount, evaluate, metric_rows, rank_keys, top_k
from oracles import enumerate_metrics


def ranked_list(scores, exclude=(), k=None):
    """One row's ranked list through top_k with k = n; ``exclude`` may repeat an item."""
    exclude = np.asarray(exclude, dtype=np.intp)
    block = sp.csr_matrix((np.ones(exclude.size), exclude, [0, exclude.size]),
                          shape=(1, len(scores)))
    keys, length = rank_keys([scores], block)
    return top_k(keys, len(scores))[0, :length[0]][:k]


def metrics_of(ranked, relevant, k):
    """One user's metrics through the block path of evaluate, for a scorer
    that ranks ``ranked`` in that order and a train row holding every other
    item, so the ranked list is exactly ``ranked``."""
    n = max([*ranked, *relevant]) + 1
    scores = np.zeros(n)
    scores[list(ranked)] = np.arange(len(ranked), 0, -1)
    data = make_split([sorted(set(range(n)) - set(ranked))], [sorted(relevant)], [[]], n)
    names, _, rows = metric_rows(lambda rows, users: scores[None], data, "validation", (k,))
    row = dict(zip(names, rows[0].tolist()))
    return {"precision": row[f"Precision@{k}"], "recall": row[f"Recall@{k}"],
            "ap": row[f"MAP@{k}"], "r_precision": row["R-Precision"], "ndcg": row["NDCG"]}


class TestRankTopk:
    def test_basic(self):
        assert ranked_list([0.1, 0.9, 0.5], k=2).tolist() == [1, 2]

    def test_exclusion(self):
        assert ranked_list([0.1, 0.9, 0.5], exclude=[1], k=2).tolist() == [2, 0]

    def test_tie_breaks_ascending_index(self):
        assert ranked_list([0.5, 0.1, 0.5], k=2).tolist() == [0, 2]

    def test_no_duplicates_no_excluded(self):
        rng = np.random.default_rng(0)
        scores = rng.random(12)
        out = ranked_list(scores, exclude=[2, 5])
        assert len(set(out.tolist())) == len(out) == 10
        assert not {2, 5} & set(out.tolist())

    def test_repeated_exclusion_counted_once(self):
        assert ranked_list([5, 4, 3, 2, 1], exclude=[0, 0]).tolist() == [1, 2, 3, 4]

    def test_nan_score_rejected(self):
        data = make_split([[0]], [[1]], [[2]], 3)
        with pytest.raises(ValueError, match="NaN score"):
            metric_rows(lambda rows, users: np.array([[0.1, np.nan, 0.3]]), data, "test")


WORKED_RANKED = np.array([10, 11, 12, 13, 14])  # hits at ranks 1 and 4
WORKED_RELEVANT = {10, 13, 99}


class TestWorkedExample:
    def test_precision(self):
        assert metrics_of(WORKED_RANKED, WORKED_RELEVANT, 5)["precision"] == pytest.approx(0.4)

    def test_recall(self):
        assert metrics_of(WORKED_RANKED, WORKED_RELEVANT, 5)["recall"] == pytest.approx(2 / 3)

    def test_map(self):
        assert metrics_of(WORKED_RANKED, WORKED_RELEVANT, 5)["ap"] == pytest.approx(0.5)

    def test_ndcg(self):
        expected = (1 + 1 / math.log2(5)) / (1 + 1 / math.log2(3) + 1 / math.log2(4))
        got = metrics_of(WORKED_RANKED, WORKED_RELEVANT, 5)["ndcg"]
        assert got == pytest.approx(expected)
        assert got == pytest.approx(0.6714, abs=2e-4)

    def test_r_precision(self):
        # R = 3 relevant, one hit in the top-3
        assert metrics_of(WORKED_RANKED, WORKED_RELEVANT, 5)["r_precision"] == \
            pytest.approx(1 / 3)


class TestTrivialCases:
    def test_all_relevant_topk(self):
        got = metrics_of(np.arange(5), set(range(8)), 5)
        assert got["precision"] == 1.0
        assert got["ap"] == 1.0

    def test_no_hits(self):
        got = metrics_of(np.arange(5), {90, 91}, 5)
        assert got["precision"] == 0.0
        assert got["recall"] == 0.0
        assert got["ap"] == 0.0
        assert got["ndcg"] == 0.0
        assert got["r_precision"] == 0.0

    def test_ideal_ranking_ndcg_one(self):
        assert metrics_of(np.array([3, 1, 9]), {3, 1, 9}, 1)["ndcg"] == pytest.approx(1.0)

    def test_all_top_r_relevant(self):
        assert metrics_of(np.array([0, 1, 2, 3]), {0, 1}, 1)["r_precision"] == 1.0


class TestOracleEquivalence:
    @pytest.mark.parametrize("seed", range(30))
    def test_random_fixtures_bit_exact(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 11))
        ranked = rng.permutation(n)
        relevant = set(rng.choice(n, size=int(rng.integers(1, n)), replace=False).tolist())
        k = int(rng.integers(1, 6))
        assert metrics_of(ranked, relevant, k) == enumerate_metrics(ranked, relevant, k)

    def test_long_list_bit_exact(self):
        # a pairwise sum of 200 gains differs from the oracle's loop; a lone
        # hit at rank 1,620 or 3,241 scores NDCG 1 / log2(1621) or
        # 1 / log2(3242), where np.log2 is one bit off math.log2
        rng = np.random.default_rng(1)
        ranked = rng.permutation(3300)
        many = set(rng.choice(3300, size=200, replace=False).tolist())
        for relevant in (many, {int(ranked[1619])}, {int(ranked[3240])}):
            for k in (5, 50, 3300):
                assert metrics_of(ranked, relevant, k) == enumerate_metrics(ranked, relevant, k)

    def test_r_precision_order_insensitive(self):
        relevant = {0, 2, 5}
        base = [2, 5, 7, 1, 0]
        vals = {metrics_of(np.array(list(p) + base[3:]), relevant, 1)["r_precision"]
                for p in itertools.permutations(base[:3])}
        assert len(vals) == 1

    def test_monotone_in_added_hit(self):
        relevant = {4, 9}
        worse = metrics_of(np.array([0, 1, 2, 3, 4]), relevant, 5)   # hit at rank 5
        better = metrics_of(np.array([0, 1, 2, 4, 3]), relevant, 5)  # hit at rank 4
        for metric in ("precision", "ap", "ndcg"):
            assert better[metric] >= worse[metric]


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
        report = evaluate(lambda rows, users: np.array([[0.0, 1.0, 0.5, 0.2]]), data,
                          ks=(1, 2))
        assert report.num_users == 1
        for rec in report.metrics.values():
            assert rec["ci"] == 0.0

    def test_perfect_oracle_scorer(self):
        data = make_split([[0], [1]], [[], []], [[1, 2], [0, 3]], n=5)

        def oracle(rows, users):
            return data.test[users].toarray()

        report = evaluate(oracle, data, ks=(2,))
        assert report.metrics["Precision@2"]["mean"] == 1.0
        assert report.metrics["R-Precision"]["mean"] == 1.0
        assert report.metrics["NDCG"]["mean"] == 1.0

    def test_matches_brute_force_on_toy_fixture(self):
        # user 0 has item 1 in train and validation, as an item rated twice can
        data = make_split([[0, 1], [2], [0]], [[1, 2], [], [1]],
                          [[3, 4], [0, 3], [2]], n=5)
        scores = {0: [9, 8, 7, 6, 5], 1: [1, 5, 3, 2, 4], 2: [2, 2, 2, 9, 1]}
        report = evaluate(lambda rows, users: np.array([scores[u] for u in users], float),
                          data, ks=(2,))

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
        report = evaluate(lambda rows, users: np.tile(np.arange(3.0), (len(users), 1)), data,
                          ks=(1,))
        assert report.num_users == 1

    def test_validation_split_excludes_train_only(self):
        data = make_split([[0]], [[1]], [[2]], n=3)
        # item 2 scores highest; at validation time it must stay rankable
        report = evaluate(lambda rows, users: np.array([[0.0, 0.5, 1.0]]), data,
                          split="validation", ks=(1,))
        assert report.metrics["Precision@1"]["mean"] == 0.0
        report_t = evaluate(lambda rows, users: np.array([[0.0, 0.5, 1.0]]), data,
                            split="test", ks=(1,))
        assert report_t.metrics["Precision@1"]["mean"] == 1.0

    def test_repeated_cutoff_rejected(self):
        # each cutoff names its own metric columns; a repeat would collapse them
        data = make_split([[0]], [[]], [[1]], n=3)
        with pytest.raises(ValueError, match=r"repeated cutoff in ks \(5, 5, 10\)"):
            metric_rows(lambda rows, users: np.zeros((len(users), 3)), data, ks=(5, 10, 5))

    @pytest.mark.parametrize("ks,bad", [((0, 5), "0"), ((5, -1), "-1"), ((2.0,), "2.0"),
                                        ((True,), "True"), (("5",), "'5'"), ((5, "a"), "'a'")])
    @pytest.mark.parametrize("run", [metric_rows, evaluate])
    def test_cutoff_below_one_or_not_integer_rejected(self, ks, bad, run):
        # a cutoff of 0 would divide by zero in MAP@0 and Precision@0
        data = make_split([[0]], [[]], [[1]], n=3)
        with pytest.raises(ValueError, match=rf"cutoff {re.escape(bad)} in ks is not an "
                                             r"integer >= 1"):
            run(lambda rows, users: np.zeros((len(users), 3)), data, ks=ks)

    def test_numpy_integer_cutoff_accepted(self):
        data = make_split([[0]], [[]], [[1]], n=3)
        names, _, _ = metric_rows(lambda rows, users: np.zeros((len(users), 3)), data,
                                  ks=(np.int64(2),))
        assert "MAP@2" in names

    def test_report_serialization(self):
        data = make_split([[0]], [[]], [[1]], n=3)
        report = evaluate(lambda rows, users: np.tile(np.arange(3.0), (len(users), 1)), data,
                          ks=(1,))
        text = report.to_json()
        assert '"R-Precision"' in text
        assert "R-Precision" in report.table()


@pytest.mark.parametrize("n", [1, 3166, 3706])
def test_discount_table_is_math_log2_built_once_and_read_only(n):
    # np.log2 rounds 1 of the 3,166 entries and 2 of the 3,706 differently
    table = _discount(n)
    want = [1.0 / math.log2(i + 1) for i in range(1, n + 1)] + [0.0]
    assert table.tolist() == want
    assert _discount(n) is table
    with pytest.raises(ValueError, match="read-only"):
        table[0] = 2.0
