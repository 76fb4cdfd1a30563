import numpy as np
import pytest

from amarec.explain import (
    explain_user,
    mode_top_items,
    mode_usage,
    save_histogram_csv,
    save_mode_top_items_csv,
    user_explanation_dot,
)
from amarec.model import AmaConfig, keys_values
from conftest import csr_rows
from oracles import forward_oracle
from test_metrics import make_split
from test_model import attend_one, random_params


def toy_model(m=3, n=6, d=2, h=3, kappa=2, seed=0):
    cfg = AmaConfig(h=h, d=d, kappa=kappa, alpha=1.0, lam=0.0, rho=0.0, seed=seed)
    rng = np.random.default_rng(seed)
    V = rng.standard_normal((n, h))
    params = random_params(n, cfg, seed=seed + 1)
    rows = [sorted(rng.choice(n, size=rng.integers(2, n - 1), replace=False).tolist())
            for _ in range(m)]
    data = make_split(rows, [[] for _ in rows], [[] for _ in rows], n)
    return cfg, V, params, data


class TestExplainUser:
    def test_single_mode_attribution(self):
        cfg, V, params, data = toy_model(d=1)
        exp = explain_user(params, V, data.train[0], 0, k=4)
        assert all(mode == 0 for _, mode, _ in exp.recommendations)

    def test_single_observed_item_full_weight(self):
        cfg, V, params, _ = toy_model()
        exp = explain_user(params, V, csr_rows([[3]], V.shape[0]), 0, k=2)
        np.testing.assert_array_equal(exp.attention, np.ones((cfg.d, 1)))

    def test_attribution_matches_hand_recompute(self):
        cfg, V, params, data = toy_model(seed=5)
        obs = data.train[1].indices
        exp = explain_user(params, V, data.train[1], 1, k=3)
        U = forward_oracle(obs, params, V, cfg.kappa)["U"]
        for j, mode, per_mode in exp.recommendations:
            scores = np.array([U[l] @ params.S[j] for l in range(cfg.d)])
            np.testing.assert_allclose(per_mode, scores, atol=1e-12)
            assert mode == int(np.argmax(scores))
            assert scores[mode] == scores.max()

    def test_recommendations_exclude_train(self):
        cfg, V, params, data = toy_model()
        obs = data.train[0].indices
        exp = explain_user(params, V, data.train[0], 0, k=6)
        rec_items = {j for j, _, _ in exp.recommendations}
        assert not rec_items & set(obs.tolist())

    def test_empty_history_error(self):
        cfg, V, params, _ = toy_model()
        with pytest.raises(ValueError):
            explain_user(params, V, csr_rows([[]], V.shape[0]), 0)

    def test_json_output(self):
        cfg, V, params, data = toy_model()
        exp = explain_user(params, V, data.train[0], 0, k=2)
        text = exp.to_json(item_ids=[f"i{j}" for j in range(V.shape[0])])
        assert '"recommendations"' in text and '"modes"' in text


class TestModeUsage:
    def test_single_mode_all_bucket_one(self):
        cfg, V, params, data = toy_model(d=1)
        hist = mode_usage(params, V, data, k=4)
        assert hist.tolist() == [data.train.shape[0]]

    def test_degenerate_equal_modes_bucket_one(self):
        cfg, V, params, data = toy_model(d=3)
        params.Q[:] = params.Q[0]   # identical queries -> identical modes
        params.B[:] = params.B[0]
        hist = mode_usage(params, V, data, k=4)
        assert hist.tolist() == [data.train.shape[0], 0, 0]

    def test_matches_brute_force(self):
        cfg, V, params, data = toy_model(m=5, seed=8)
        k = 3
        hist = mode_usage(params, V, data, k=k)
        brute = np.zeros(cfg.d, dtype=int)
        for u in range(5):
            exp = explain_user(params, V, data.train[u], u, k=k)
            brute[len({m for _, m, _ in exp.recommendations}) - 1] += 1
        assert hist.tolist() == brute.tolist()
        assert hist.sum() == 5

    def test_user_covering_the_catalog_not_counted(self):
        cfg, V, params, _ = toy_model(n=4, d=3)
        data = make_split([[0, 1, 2, 3], [1, 2]], [[], []], [[], []], 4)
        hist = mode_usage(params, V, data, k=2)
        assert hist.sum() == 1   # user 0 has nothing left to recommend

    def test_buckets_bounded_by_min_d_k(self):
        cfg, V, params, data = toy_model(d=2, m=6, seed=2)
        hist = mode_usage(params, V, data, k=1)
        assert hist[1:].sum() == 0  # k=1 can only ever use one mode


@pytest.mark.parametrize("tied", [False, True])
@pytest.mark.parametrize("d", [1, 3, 5])
def test_histogram_counts_the_modes_of_each_users_explanation(d, tied):
    # the two views of one decode agree: mode_usage counts, per user, the
    # distinct modes among explain_user's recommendations, over several
    # blocks; S = 0 ties every per-mode score, so every item takes mode 0
    cfg, V, params, data = toy_model(m=110, n=12, d=d, h=4, seed=d)
    n = V.shape[0]
    rows = [data.train[u].indices.tolist() for u in range(110)]
    rows[40] = list(range(n))   # covers the catalog: no recommendation, not counted
    data = make_split(rows, [[]] * 110, [[]] * 110, n)
    if tied:
        params.S[:] = 0.0
    want = np.zeros(d, dtype=np.int64)
    for u in range(110):
        recs = explain_user(params, V, data.train[u], u, k=4).recommendations
        assert bool(recs) == (u != 40)
        if recs:
            want[len({mode for _, mode, _ in recs}) - 1] += 1
    assert mode_usage(params, V, data, k=4).tolist() == want.tolist()
    assert want.sum() == 109
    if tied:
        assert want[0] == 109


class TestModeTopItems:
    def test_single_user_single_item(self):
        cfg, V, params, _ = toy_model(n=4)
        data = make_split([[2]], [[]], [[]], 4)
        top = mode_top_items(params, V, data, n_top=2)
        for rows in top:
            item, score, prank, pcount = rows[0]
            assert item == 2 and score == pytest.approx(1.0)
            assert prank == 1 and pcount == 1

    def test_disjoint_singletons_tiebreak(self):
        cfg, V, params, _ = toy_model(n=4)
        data = make_split([[1], [3]], [[], []], [[], []], 4)
        top = mode_top_items(params, V, data, n_top=4)
        for rows in top:
            assert [r[0] for r in rows[:2]] == [1, 3]  # ascending index on ties
            assert rows[0][1] == pytest.approx(1.0)

    def test_matches_double_loop_oracle(self):
        cfg, V, params, data = toy_model(m=4, n=5, seed=9)
        top = mode_top_items(params, V, data, n_top=5)
        agg = np.zeros((cfg.d, 5))
        for u in range(4):
            obs = data.train[u].indices
            A = forward_oracle(obs, params, V, cfg.kappa)["A"]
            for l in range(cfg.d):
                for pos, j in enumerate(obs.tolist()):
                    agg[l, j] += A[l, pos]
        for l, rows in enumerate(top):
            for item, score, _, _ in rows:
                assert score == pytest.approx(agg[l, item], abs=1e-12)
            scores = [r[1] for r in rows]
            assert scores == sorted(scores, reverse=True)

    def test_total_attention_mass_is_d_per_user(self):
        cfg, V, params, data = toy_model(m=4, seed=3)
        top = mode_top_items(params, V, data, n_top=data.train.shape[1])
        total = sum(score for rows in top for _, score, _, _ in rows)
        assert total == pytest.approx(cfg.d * data.train.shape[0])


def test_csv_and_dot_outputs(tmp_path):
    cfg, V, params, data = toy_model()
    hist = mode_usage(params, V, data, k=3)
    save_histogram_csv(hist, tmp_path / "hist.csv")
    assert (tmp_path / "hist.csv").read_text().startswith("modes_used,num_users")

    top = mode_top_items(params, V, data, n_top=2)
    item_ids = [f"i{j}" for j in range(V.shape[0])]
    save_mode_top_items_csv(top, tmp_path / "modes.csv", item_ids)
    header = (tmp_path / "modes.csv").read_text().splitlines()[0]
    assert header == "mode,rank,item_id,aggregated_attention,popularity_rank,popularity_count"

    exp = explain_user(params, V, data.train[0], 0, k=2)
    dot = user_explanation_dot(exp, item_ids)
    assert dot.startswith("digraph") and "mode_0" in dot
    # an id may hold a quote or a backslash; both are escaped in a label
    j = int(exp.observed[0])
    item_ids[j] = 'say "hi" \\ bye'
    assert (f'  "obs_{j}" [label="say \\"hi\\" \\\\ bye", shape=box];'
            in user_explanation_dot(exp, item_ids).splitlines())


def test_reports_compute_keys_values_once_and_match_per_user_path(tmp_path, monkeypatch):
    from amarec import model

    cfg, V, params, data = toy_model(m=12, n=9, d=3, seed=11)
    m, n = data.train.shape
    # the per-user path: every user's keys computed afresh
    hist = np.zeros(cfg.d, dtype=np.int64)
    agg = np.zeros((cfg.d, n))
    for u in range(m):
        obs = data.train[u].indices
        exp = explain_user(params, V, data.train[u], u, k=3)
        hist[len({mode for _, mode, _ in exp.recommendations}) - 1] += 1
        np.add.at(agg, (slice(None), obs), attend_one(keys_values(V, params), params.Q, obs))
    counts = np.asarray(data.train.sum(axis=0)).ravel().astype(np.int64)
    pop_rank = np.empty(n, dtype=np.int64)
    pop_rank[np.lexsort((np.arange(n), -counts))] = np.arange(1, n + 1)
    top = [[(int(j), float(agg[l, j]), int(pop_rank[j]), int(counts[j]))
            for j in np.lexsort((np.arange(n), -agg[l]))[:4]] for l in range(cfg.d)]
    save_histogram_csv(hist, tmp_path / "hist_ref.csv")
    save_mode_top_items_csv(top, tmp_path / "modes_ref.csv", range(n))

    calls = []
    monkeypatch.setattr(model, "keys_values", lambda *a: calls.append(1) or keys_values(*a))
    save_histogram_csv(mode_usage(params, V, data, k=3), tmp_path / "hist.csv")
    save_mode_top_items_csv(mode_top_items(params, V, data, n_top=4),
                            tmp_path / "modes.csv", range(n))
    assert len(calls) == 2   # once per report, not once per user
    for name in ("hist", "modes"):
        assert (tmp_path / f"{name}.csv").read_bytes() == \
            (tmp_path / f"{name}_ref.csv").read_bytes()


def test_aggregated_attention_sums_in_user_order_bitwise():
    # each item's mass is its users' attention added in ascending user order,
    # as np.add.at adds it; 80 users over 7 items give sums whose last bits
    # depend on that order
    cfg, V, params, data = toy_model(m=80, n=7, d=3, seed=5)
    n = data.train.shape[1]
    agg = np.zeros((cfg.d, n))
    for u in range(data.train.shape[0]):
        obs = data.train[u].indices
        np.add.at(agg, (slice(None), obs), attend_one(keys_values(V, params), params.Q, obs))
    top = mode_top_items(params, V, data, n_top=n)
    assert [sorted(j for j, *_ in rows) for rows in top] == [list(range(n))] * cfg.d
    for l, rows in enumerate(top):
        for j, mass, _, _ in rows:
            assert mass == agg[l, j], (l, j)
