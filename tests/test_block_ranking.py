"""evaluate's and explain's block ranking path against a per-user reference:
a lexsort ranking of one user at a time, ``enumerate_metrics`` for the metric
rows and a plain loop for the mode-usage histogram, compared bit for bit. The
ranking primitives are also checked directly at catalog widths where
``np.partition`` and the counts of tied items do real work: ``top_k`` and
``hit_ranks`` against the lexsort, and ``shared_row_ranks``, which ranks a
block whose users all score alike, against ``hit_ranks``. Any one-user block
takes that shared path in ``metric_rows``, so ``hit_ranks`` keeps its own
direct tests here rather than relying on the per-user reference."""

import functools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from amarec import evaluation
from amarec.baselines import ama_scorer, pop_scorer, puresvd_scorer
from amarec.evaluation import hit_ranks, metric_rows, rank_keys, shared_row_ranks, top_k
from amarec.explain import mode_usage
from amarec.model import (BLOCK, AmaConfig, Forward, Segments, argmax_mode, attend,
                          decode_maxout, encode, keys_values)
from oracles import enumerate_metrics
from test_metrics import make_split
from test_model import random_params


def random_rows(rng, m, n):
    """m random item sets over n items; about one in five is empty and one in
    eight covers the whole catalog."""
    rows = []
    for _ in range(m):
        size = int(rng.integers(1, n + 1)) if rng.random() >= 0.2 else 0
        if rng.random() < 1 / 8:
            size = n
        rows.append(sorted(rng.choice(n, size=size, replace=False).tolist()))
    return rows


def reference_ranked(scores, exclude):
    """One row's ranked items; an item scored -inf is not ranked, as in ``rank_keys``."""
    n = scores.size
    return [j for j in np.lexsort((np.arange(n), -scores)).tolist()
            if j not in exclude and scores[j] > -np.inf]


def signed_scores(rng, m, n, levels):
    """Continuous scores when ``levels`` is 0, else scores on ``levels``
    levels around 0; about half of the zeros are -0.0, which ties with 0.0.
    About one cell in twenty scores +inf (ranked first, ties by index) and
    one in twenty -inf (not ranked)."""
    if levels:
        scores = rng.integers(0, levels, size=(m, n)) - levels // 2.0
    else:
        scores = rng.standard_normal((m, n))
        scores[rng.random((m, n)) < 0.1] = 0.0
    scores[(scores == 0) & (rng.random((m, n)) < 0.5)] = -0.0
    cells = rng.random((m, n))
    scores[cells < 0.05] = np.inf
    scores[cells >= 0.95] = -np.inf
    return scores


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 10_000), m=st.integers(1, 40), n=st.integers(1, 200),
       levels=st.integers(0, 4), k=st.integers(1, 220))
@example(seed=1, m=9, n=200, levels=1, k=200)
@example(seed=2, m=9, n=150, levels=2, k=10)
# shaped like a bench POP block: large tie groups in every row, and relevant
# items excluded at +inf
@example(seed=7, m=2 * BLOCK + 5, n=300, levels=3, k=10)
# every finite score is 0 or -0.0: each ranked hit counts its equal keys at
# smaller indices, at index 0, at n - 1 and across long prefixes
@example(seed=8, m=2 * BLOCK + 5, n=300, levels=1, k=10)
@example(seed=9, m=BLOCK + 3, n=1000, levels=1, k=10)
def test_top_k_and_hit_ranks_match_lexsort(seed, m, n, levels, k):
    rng = np.random.default_rng(seed)
    scores = signed_scores(rng, m, n, levels)
    # two exclusion blocks that may share entries, as train and validation
    # rows do at test time; one row in eight excludes the whole catalog
    data = make_split(random_rows(rng, m, n), random_rows(rng, m, n), random_rows(rng, m, n), n)
    keys, length = rank_keys(scores, data.train, data.validation)
    top = top_k(keys, k)
    ranks = hit_ranks(keys, data.test)

    assert top.shape == (m, min(k, n))
    for u in range(m):
        exclude = set(data.train[u].indices.tolist()) | set(data.validation[u].indices.tolist())
        ranked = reference_ranked(scores[u], exclude)
        assert length[u] == len(ranked)
        masked = np.where(np.isin(np.arange(n), list(exclude)), -np.inf, scores[u])
        assert top[u].tolist() == np.lexsort((np.arange(n), -masked))[:k].tolist()
        relevant = data.test[u].indices.tolist()
        expected = [ranked.index(j) if j in ranked else n for j in relevant]
        assert ranks[data.test.indptr[u]:data.test.indptr[u + 1]].tolist() == expected


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 10_000), m=st.integers(1, 40), n=st.integers(1, 60),
       levels=st.integers(0, 7), split=st.sampled_from(["test", "validation"]),
       case=st.sampled_from(["random", "repeat", "excluded", "catalog", "-inf"]))
@example(seed=0, m=3, n=1, levels=1, split="test", case="random")
@example(seed=1, m=5, n=12, levels=2, split="test", case="repeat")
@example(seed=2, m=5, n=12, levels=3, split="validation", case="excluded")
@example(seed=3, m=5, n=12, levels=0, split="test", case="catalog")
@example(seed=4, m=5, n=12, levels=1, split="test", case="-inf")
def test_shared_row_ranks_match_hit_ranks(seed, m, n, levels, split, case):
    """One row tiled over the block, with the sign of some zeros flipped per
    row (-0.0 ties with 0.0), ranks as ``hit_ranks`` ranks the whole block.
    Row 0 is made to hold each pinned case: a pair in both train and
    validation, a relevant item that is also excluded, exclusions over the
    whole catalog, and a row scored -inf everywhere."""
    rng = np.random.default_rng(seed)
    scores = np.tile(signed_scores(rng, 1, n, levels), (m, 1))
    flip = (scores == 0) & (rng.random((m, n)) < 0.5)
    scores[flip] = -scores[flip]
    train, validation, test = (random_rows(rng, m, n) for _ in range(3))
    if case == "repeat":
        train[0] = validation[0] = sorted({0, n - 1})
    elif case == "excluded":
        train[0], test[0] = [n - 1], sorted({0, n - 1})
    elif case == "catalog":
        train[0] = list(range(n))
    elif case == "-inf":
        scores[:] = -np.inf
    data = make_split(train, validation, test, n)
    exclude = (data.train, data.validation) if split == "test" else (data.train,)

    keys, length = rank_keys(scores, *exclude)
    ranks, counts = shared_row_ranks(scores[0], data.test, *exclude)
    expected = hit_ranks(keys, data.test)
    assert ranks.dtype == expected.dtype and ranks.tobytes() == expected.tobytes()
    assert counts.dtype == length.dtype and counts.tobytes() == length.tobytes()


def reference_row(ranked, relevant, ks):
    if not ranked:   # every metric is 0; the oracle's NDCG would divide by 0
        return [0.0] * (2 + 3 * len(ks))
    by_k = {k: enumerate_metrics(ranked, relevant, k) for k in ks}
    first = by_k[ks[0]]
    return ([first["r_precision"], first["ndcg"]] + [by_k[k]["ap"] for k in ks]
            + [by_k[k]["precision"] for k in ks] + [by_k[k]["recall"] for k in ks])


def assert_rows_match_reference(scores, data, split, ks):
    """``metric_rows`` of the scorer that reads ``scores`` equal the per-user reference."""
    m, n = scores.shape
    names, users, rows = metric_rows(lambda rows, users: scores[users], data, split, ks)
    target = data.test if split == "test" else data.validation
    expected_users = [u for u in range(m) if target[u].nnz]
    assert users.tolist() == expected_users
    assert rows.shape == (len(expected_users), len(names))
    for u, row in zip(expected_users, rows):
        exclude = set(data.train[u].indices.tolist())
        if split == "test":
            exclude |= set(data.validation[u].indices.tolist())
        ranked = reference_ranked(scores[u], exclude)
        expected = reference_row(ranked, set(target[u].indices.tolist()), sorted(ks))
        assert row.tolist() == expected, (u, names)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), m=st.integers(1, 2 * BLOCK + 5), n=st.integers(1, 9),
       levels=st.integers(1, 4), split=st.sampled_from(["test", "validation"]),
       ks=st.lists(st.integers(1, 11), min_size=1, max_size=3, unique=True),
       alike=st.booleans())
@example(seed=0, m=1, n=1, levels=1, split="test", ks=[1], alike=False)
@example(seed=5, m=2 * BLOCK + 1, n=4, levels=2, split="validation", ks=[3, 1], alike=False)
@example(seed=6, m=BLOCK + 3, n=120, levels=3, split="test", ks=[1, 10], alike=False)
# every user scored alike, as POP scores them: the shared-row path
@example(seed=7, m=2 * BLOCK + 3, n=120, levels=3, split="test", ks=[1, 10], alike=True)
def test_metric_rows_match_per_user_reference(seed, m, n, levels, split, ks, alike):
    rng = np.random.default_rng(seed)
    # train, validation and test rows drawn independently: an item may sit in
    # a user's train and test rows at once, as an item rated twice can
    data = make_split(random_rows(rng, m, n), random_rows(rng, m, n), random_rows(rng, m, n), n)
    scores = rng.integers(0, levels, size=(m, n)).astype(float)   # ties when levels < n
    if alike:
        scores = np.tile(scores[:1], (m, 1))
    assert_rows_match_reference(scores, data, split, ks)


def spy_on_hit_ranks(monkeypatch):
    """Route ``metric_rows``' calls of ``hit_ranks`` through a spy; returns
    the list of the row counts of the blocks it was called with."""
    calls, real = [], evaluation.hit_ranks

    def spy(keys, relevant):
        calls.append(keys.shape[0])
        return real(keys, relevant)

    monkeypatch.setattr(evaluation, "hit_ranks", spy)
    return calls


@pytest.mark.parametrize("which", ["pop", "zero", "ama", "puresvd", "pop-one-cell"])
def test_only_blocks_of_unequal_rows_call_hit_ranks(which, monkeypatch):
    rng = np.random.default_rng(11)
    n, m = 40, 2 * BLOCK
    cfg = AmaConfig(h=4, d=3, kappa=2)
    V = rng.standard_normal((n, cfg.h))

    def full_rows():   # every row nonempty: AMA's rows differ, and every user is ranked
        return [sorted(rng.choice(n, size=int(rng.integers(1, n)), replace=False).tolist())
                for _ in range(m)]

    data = make_split(full_rows(), random_rows(rng, m, n), full_rows(), n)
    scorer = {"pop": pop_scorer(data.train), "puresvd": puresvd_scorer(V),
              "ama": ama_scorer(random_params(n, cfg, seed=2), V),
              "zero": lambda rows, users: np.zeros((len(users), n))
              }[which.removesuffix("-one-cell")]
    scores = np.array(scorer(data.train, np.arange(m)))
    if which == "pop-one-cell":
        scores[BLOCK + 1, 0] += 1.0   # one cell of one user of the second block
        scorer = lambda rows, users: scores[users]
    calls = spy_on_hit_ranks(monkeypatch)
    metric_rows(scorer, data)
    if which in ("pop", "zero"):
        assert calls == []
    elif which == "pop-one-cell":   # only the block holding the changed user
        assert calls == [BLOCK]
    else:   # every block
        assert sum(calls) == m
    assert_rows_match_reference(scores, data, "test", (1, 5))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), m=st.integers(1, 2 * BLOCK + 5), n=st.integers(1, 9),
       d=st.integers(1, 4), k=st.integers(1, 11), tied=st.booleans())
@example(seed=3, m=2 * BLOCK + 2, n=6, d=3, k=4, tied=True)
def test_mode_usage_matches_per_user_loop(seed, m, n, d, k, tied):
    rng = np.random.default_rng(seed)
    cfg = AmaConfig(h=3, d=d, kappa=2)
    V = rng.standard_normal((n, cfg.h))
    params = random_params(n, cfg, seed=seed + 1)
    if tied:   # every score ties at 0 and every item takes mode 0
        params.S[:] = 0.0
    data = make_split(random_rows(rng, m, n), [[]] * m, [[]] * m, n)

    K = keys_values(V, params)
    expected = np.zeros(d, dtype=np.int64)
    for u in range(m):
        obs = data.train[u].indices
        if not obs.size:
            continue
        segs = Segments.of(data.train[u])
        scores, per_mode = decode_maxout(encode(attend(K[obs], params.Q, segs), V[obs],
                                                segs, params.W_v, params.B)[1], params.S)
        mode_of = argmax_mode(per_mode, scores)   # every item's mode
        top = reference_ranked(scores[0], set(obs.tolist()))[:k]
        used = len({int(mode_of[0, j]) for j in top})
        if used:
            expected[used - 1] += 1
    assert mode_usage(params, V, data, k=k).tolist() == expected.tolist()


def counting(scorer, calls):
    """``scorer``, with its ``block`` if it names one, recording each call's user count."""
    @functools.wraps(scorer)
    def score(rows, users):
        calls.append(len(users))
        return scorer(rows, users)
    return score


@pytest.mark.parametrize("d", [1, 3, 5])
def test_ama_is_ranked_in_its_decode_blocks_with_the_bytes_of_32_user_calls(d):
    rng = np.random.default_rng(d)
    n, m = 12, 4 * BLOCK + 9
    cfg = AmaConfig(h=4, d=d, kappa=2)
    params, V = random_params(n, cfg, seed=d), rng.standard_normal((n, cfg.h))
    data = make_split(random_rows(rng, m, n), random_rows(rng, m, n), random_rows(rng, m, n), n)
    scorer = ama_scorer(params, V)
    assert scorer.block == Forward(params, V).block

    by_block, by_32 = [], []
    names, users, rows = metric_rows(counting(scorer, by_block), data)
    # a plain callable names no block and is asked for BLOCK users
    _, users_32, rows_32 = metric_rows(counting(lambda r, u: scorer(r, u), by_32), data)
    for calls, size in ((by_block, scorer.block), (by_32, BLOCK)):
        assert calls[:-1] == [size] * (len(calls) - 1) and 0 < calls[-1] <= size
        assert sum(calls) == users.size
    assert users.tolist() == users_32.tolist()
    assert rows.tobytes() == rows_32.tobytes()
