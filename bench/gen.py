"""Seeded generators for the benchmark's inputs.

Two rating-log shapes stand in for data that cannot be shipped here:

* a MovieLens ``user::item::rating::timestamp`` log shaped like ML-1M
  (3,706-item catalog, ML-1M's 1-5 rating histogram, Zipf popularity,
  Poisson history lengths of at least 20, non-decreasing timestamps);
* a header-less Amazon review CSV ``item,user,rating,timestamp`` with short
  histories (5-30 ratings), ratings skewed toward 5 stars, flatter
  popularity and a catalog wide enough that about 8.7k items survive the
  split.

Items belong to genres and each user favours one to three of them, so the
logs have the multi-modal structure the model is built for. Both logs also
carry the cases the pipeline must survive: duplicate (user, item) pairs,
equal timestamps, ratings exactly at the binarization threshold of 3, users
with a single event (dropped by the split) and items that occur only at the
end of histories, after the train cut (dropped with the item index). The
same seed writes byte-identical files.

``random_model`` draws model parameters for ranking-only measurements.
"""

from __future__ import annotations

import string
from dataclasses import dataclass

import numpy as np

# ML-1M's share of 1..5 star ratings.
ML1M_RATINGS = (0.0562, 0.1075, 0.2613, 0.3489, 0.2261)
# Amazon review logs: mostly 5 stars, then 4, with a small tail of 1s.
AMAZON_RATINGS = (0.08, 0.05, 0.09, 0.20, 0.58)


@dataclass(frozen=True)
class LogShape:
    users: int
    items: int          # catalog size before the split drops unseen items
    zipf: float         # popularity exponent; larger is more skewed
    min_len: int        # shortest regular history
    max_len: int        # longest regular history
    mean_extra: float   # mean history length above min_len
    geometric: bool     # lengths above min_len geometric (skewed short), else Poisson
    ratings: tuple      # probabilities of 1..5 stars
    tick: int           # timestamp unit in seconds
    p_same_tick: float  # chance that an event shares its predecessor's timestamp
    singletons: int     # extra users with exactly one event
    late_items: int     # items that only occur after every other event of a user
    p_duplicate: float  # chance that a user re-rates an earlier item
    genres: int         # item genres; each user likes one to three of them
    genre_boost: float  # sampling weight of a liked genre's items over the rest


ML1M = LogShape(users=6040, items=3706, zipf=0.8, min_len=20, max_len=2314,
                mean_extra=146.0, geometric=False, ratings=ML1M_RATINGS, tick=1,
                p_same_tick=0.3, singletons=12, late_items=24, p_duplicate=0.05,
                genres=18, genre_boost=8.0)
# 1,200 users over a 60k catalog leave about 8.7k items after the split.
AMAZON = LogShape(users=1200, items=60000, zipf=0.2, min_len=5, max_len=30,
                  mean_extra=25.0, geometric=True, ratings=AMAZON_RATINGS,
                  tick=86400, p_same_tick=0.4, singletons=20, late_items=40,
                  p_duplicate=0.05, genres=30, genre_boost=30.0)


@dataclass(frozen=True)
class Log:
    user: np.ndarray        # user number, 0-based
    item: np.ndarray        # catalog index; late items come after the catalog
    rating: np.ndarray      # 1..5
    timestamp: np.ndarray   # seconds


def draw_log(shape, seed):
    """All events of one log, in the order they are written."""
    rng = np.random.default_rng([seed, shape.users, shape.items])
    n = shape.items
    popularity = np.arange(1, n + 1, dtype=np.float64) ** -shape.zipf
    genre = rng.integers(shape.genres, size=n)
    if shape.geometric:
        extra = rng.geometric(1.0 / (1.0 + shape.mean_extra), shape.users) - 1
    else:
        extra = rng.poisson(shape.mean_extra, shape.users)
    lengths = np.minimum(shape.min_len + extra, min(shape.max_len, n))
    users, items = [], []
    for u, length in enumerate(lengths.tolist()):
        boost = np.ones(shape.genres)
        boost[rng.choice(shape.genres, size=1 + rng.integers(3), replace=False)] = \
            shape.genre_boost
        cdf = np.cumsum(popularity * boost[genre])
        cdf /= cdf[-1]
        # Drawing with replacement and keeping first occurrences is a
        # popularity-weighted sample without replacement, in draw order.
        draws = np.zeros(0, dtype=np.int64)
        while True:
            more = np.searchsorted(cdf, rng.random(3 * length + 8), side="right")
            draws = np.concatenate([draws, np.minimum(more, n - 1)])
            _, first = np.unique(draws, return_index=True)
            if first.size >= length:
                break
        picked = draws[np.sort(first)[:length]]
        if rng.random() < shape.p_duplicate:
            picked = np.append(picked, picked[rng.integers(picked.size)])
        users.append(np.full(picked.size, u))
        items.append(picked)
    # Late items: appended after a user's history, so they never reach train.
    late_users = rng.choice(shape.users, size=3 * shape.late_items, replace=False)
    for k, u in enumerate(late_users):
        users.append(np.array([u]))
        items.append(np.array([n + k % shape.late_items]))
    # Single-event users, dropped by the split.
    for k in range(shape.singletons):
        users.append(np.array([shape.users + k]))
        items.append(rng.integers(n, size=1))
    user = np.concatenate(users)
    item = np.concatenate(items)

    ratings = rng.choice(5, size=user.size, p=shape.ratings) + 1
    # Late items and singletons are liked, so binarization keeps them and
    # the split is what drops them.
    tail = user.size - 3 * shape.late_items - shape.singletons
    ratings[tail:] = 5

    gaps = np.where(rng.random(user.size) < shape.p_same_tick, 0,
                    1 + rng.geometric(0.02, size=user.size)) * shape.tick
    start = 956_700_000 + rng.integers(0, 60_000_000 // shape.tick,
                                       size=shape.users + shape.singletons) * shape.tick
    # Per-user running time: a user's events are written in history order,
    # late items last, so a stable sort by user keeps the timeline increasing.
    order = np.argsort(user, kind="stable")
    user, item, ratings, gaps = user[order], item[order], ratings[order], gaps[order]
    first = np.r_[True, user[1:] != user[:-1]]
    gaps[first] = 0
    run = np.cumsum(gaps)
    run -= np.repeat(run[first], np.diff(np.r_[np.flatnonzero(first), user.size]))
    timestamp = start[user] + run
    # Interleave users the way a real dump does: sorted by timestamp.
    order = np.argsort(timestamp, kind="stable")
    return Log(user[order], item[order], ratings[order], timestamp[order])


def _ids(rng, count, prefix, length):
    alphabet = np.array(list(string.ascii_uppercase + string.digits))
    body = rng.choice(alphabet, size=(count, length))
    ids = [prefix + "".join(row) for row in body]
    if len(set(ids)) != count:
        raise ValueError("id collision; lengthen the ids")
    return ids


def write_movielens(path, shape, seed):
    """ML-1M-style ``::`` log. Returns the number of lines written."""
    log = draw_log(shape, seed)
    rng = np.random.default_rng([seed, 1])
    # ML-1M item ids are sparse integers up to 3952; users are 1..m.
    total_items = shape.items + shape.late_items
    item_ids = rng.permutation(int(total_items * 1.07))[:total_items] + 1
    lines = [f"{u + 1}::{i}::{r}::{t}\n" for u, i, r, t in zip(
        log.user.tolist(), item_ids[log.item].tolist(), log.rating.tolist(),
        log.timestamp.tolist())]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(lines)
    return len(lines)


def write_amazon(path, shape, seed):
    """Header-less Amazon CSV ``item,user,rating,timestamp``. Returns the line count."""
    log = draw_log(shape, seed)
    rng = np.random.default_rng([seed, 2])
    item_ids = _ids(rng, shape.items + shape.late_items, "B0", 8)
    user_ids = _ids(rng, shape.users + shape.singletons, "A", 13)
    lines = [f"{item_ids[i]},{user_ids[u]},{r}.0,{t}\n" for u, i, r, t in zip(
        log.user.tolist(), log.item.tolist(), log.rating.tolist(),
        log.timestamp.tolist())]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(lines)
    return len(lines)


def random_model(cfg, V, seed):
    """Model parameters drawn from ``seed`` around a similarity recommender.

    With ``W_v = I``, ``B = 0`` and ``S = V`` each mode vector is an
    attention-weighted mean of the user's item embeddings, so the model
    ranks like an item-similarity recommender and its ranking metrics are
    well above zero. Random keys, queries and perturbations make the modes
    differ.
    """
    from amarec.model import AmaParameters

    rng = np.random.default_rng([seed, 3])
    h, d, kappa = cfg.h, cfg.d, cfg.kappa
    return AmaParameters(
        W_k=rng.standard_normal((h, kappa)) * 3.0,
        W_v=np.eye(h) + 0.1 * rng.standard_normal((h, h)),
        Q=rng.standard_normal((d, kappa)),
        B=0.01 * rng.standard_normal((d, h)),
        S=V + 0.01 * rng.standard_normal(V.shape),
    )
