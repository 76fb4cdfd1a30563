"""evaluate's and explain's block ranking path against a per-user reference:
a lexsort ranking of one user at a time, ``enumerate_metrics`` for the metric
rows and a plain loop for the mode-usage histogram, compared bit for bit. The
two ranking primitives, ``top_k`` and ``hit_ranks``, are also compared with
the lexsort directly at catalog widths where ``np.partition`` and the
counts of tied items do real work."""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from amarec.evaluation import hit_ranks, metric_rows, rank_keys, top_k
from amarec.explain import mode_usage
from amarec.model import (BLOCK, AmaConfig, Segments, argmax_mode, attend, decode_maxout,
                          encode, keys_values)
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


def reference_row(ranked, relevant, ks):
    if not ranked:   # every metric is 0; the oracle's NDCG would divide by 0
        return [0.0] * (2 + 3 * len(ks))
    by_k = {k: enumerate_metrics(ranked, relevant, k) for k in ks}
    first = by_k[ks[0]]
    return ([first["r_precision"], first["ndcg"]] + [by_k[k]["ap"] for k in ks]
            + [by_k[k]["precision"] for k in ks] + [by_k[k]["recall"] for k in ks])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), m=st.integers(1, 2 * BLOCK + 5), n=st.integers(1, 9),
       levels=st.integers(1, 4), split=st.sampled_from(["test", "validation"]),
       ks=st.lists(st.integers(1, 11), min_size=1, max_size=3, unique=True))
@example(seed=0, m=1, n=1, levels=1, split="test", ks=[1])
@example(seed=5, m=2 * BLOCK + 1, n=4, levels=2, split="validation", ks=[3, 1])
@example(seed=6, m=BLOCK + 3, n=120, levels=3, split="test", ks=[1, 10])
def test_metric_rows_match_per_user_reference(seed, m, n, levels, split, ks):
    rng = np.random.default_rng(seed)
    # train, validation and test rows drawn independently: an item may sit in
    # a user's train and test rows at once, as an item rated twice can
    data = make_split(random_rows(rng, m, n), random_rows(rng, m, n), random_rows(rng, m, n), n)
    scores = rng.integers(0, levels, size=(m, n)).astype(float)   # ties when levels < n
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
