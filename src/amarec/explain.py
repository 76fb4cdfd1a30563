"""Attention-based explanation reports for a trained model.

Three views: per-user attention weights with recommendation-to-mode
attribution, a histogram of how many distinct preference modes each user's
top-K recommendations draw from, and the corpus-level top items per mode
ranked by aggregated attention mass. Each takes the model's parameters and
item embeddings, as ``model.Forward`` does, and no config: the arrays' shapes
are the model's sizes.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from amarec.evaluation import BLOCK, rank_keys, top_k
from amarec.fileio import atomic_open
from amarec.model import Forward


@dataclass(frozen=True)
class UserExplanation:
    user: int
    attention: np.ndarray        # d x n_obs
    observed: np.ndarray         # the observed item indices (mask)
    recommendations: list        # (item, source mode, per-mode scores) per top-K slot

    def to_json(self, item_ids):
        payload = {
            "user": self.user,
            "modes": [
                sorted(
                    ((item_ids[j], float(w)) for j, w in zip(self.observed.tolist(), row)),
                    key=lambda t: -t[1],
                )
                for row in self.attention
            ],
            "recommendations": [
                {"item": item_ids[j], "mode": int(l), "per_mode_scores": [float(s) for s in ps]}
                for j, l, ps in self.recommendations
            ],
        }
        return json.dumps(payload, indent=2) + "\n"


def explain_user(params, V, train_row, user, k=10):
    """Attention weights and mode attribution for one user's top-k list.

    ``train_row`` is the user's one-row CSR slice of the train matrix; the
    full uncorrupted row masks attention, and the top-k list excludes it.
    """
    if train_row.nnz == 0:
        raise ValueError(f"user {user} has an empty interaction history")
    forward = Forward(params, V)
    segs, A, _, U, scores, mode_of = forward(train_row)
    keys, length = rank_keys(scores, train_row)
    per_mode = np.matmul(U, forward.S_T)[0]   # the decode's own GEMM
    recs = [(int(j), int(mode_of[0, j]), per_mode[:, j].copy())
            for j in top_k(keys, k)[0, :length[0]]]
    return UserExplanation(user=user, attention=A.T, observed=segs.obs, recommendations=recs)


def mode_usage(params, V, data, k=10):
    """Histogram over users of distinct argmax modes among top-k recommendations.

    Returns a length-d array; entry c-1 counts users whose top-k list draws
    from exactly c distinct modes. Users with no recommendation, because
    their train row is empty or covers the whole catalog, are not counted.
    """
    train = data.train
    d = params.Q.shape[0]
    forward = Forward(params, V)
    users = np.flatnonzero(np.diff(train.indptr))
    hist = np.zeros(d + 1, dtype=np.int64)
    for start in range(0, users.size, BLOCK):
        rows = train[users[start:start + BLOCK]]
        *_, scores, mode_of = forward(rows)
        keys, length = rank_keys(scores, rows)
        modes = np.take_along_axis(mode_of, top_k(keys, k), axis=1)
        modes[np.arange(modes.shape[1]) >= length[:, None]] = -1   # past the ranked list
        used = sum((modes == l).any(axis=1) for l in range(d))
        hist += np.bincount(used, minlength=d + 1)
    return hist[1:]


def mode_top_items(params, V, data, n_top=10):
    """Top items per mode by attention mass summed over users.

    Returns, per mode, a list of (item, aggregated attention, popularity
    rank, popularity count); popularity is the train interaction count with
    rank 1 for the most popular item (ascending index on ties).
    """
    train = data.train
    d = params.Q.shape[0]
    n = train.shape[1]
    agg = np.zeros((d, n))
    rows = train[np.flatnonzero(np.diff(train.indptr))]
    if rows.nnz:   # one attend call over all users; each item's sum runs in user order
        segs, A = Forward(params, V).attention(rows)
        np.add.at(agg, (slice(None), segs.obs), A.T)

    counts = np.asarray(train.sum(axis=0)).ravel().astype(np.int64)
    pop_order = np.lexsort((np.arange(n), -counts))
    pop_rank = np.empty(n, dtype=np.int64)
    pop_rank[pop_order] = np.arange(1, n + 1)

    return [[(int(j), float(agg[l, j]), int(pop_rank[j]), int(counts[j])) for j in top]
            for l, top in enumerate(top_k(-agg, n_top))]


def save_histogram_csv(hist, path):
    with atomic_open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["modes_used", "num_users"])
        for c, v in enumerate(hist.tolist(), start=1):
            w.writerow([c, v])


def save_mode_top_items_csv(top_items, path, item_ids):
    with atomic_open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["mode", "rank", "item_id", "aggregated_attention",
                    "popularity_rank", "popularity_count"])
        for l, rows in enumerate(top_items):
            for rank, (j, score, prank, pcount) in enumerate(rows, start=1):
                w.writerow([l, rank, item_ids[j], f"{score:.10g}", prank, pcount])


_DOT_MIN_WEIGHT = 0.05   # lighter observed-item -> mode edges are left out of the graph


def user_explanation_dot(exp, item_ids):
    """DOT graph of the observed-items / modes / recommendations tripartite layout."""
    lines = ["digraph explanation {", "  rankdir=LR;"]
    for j in exp.observed.tolist():
        lines.append(f'  "obs_{j}" [label="{item_ids[j]}", shape=box];')
    for l in range(exp.attention.shape[0]):
        lines.append(f'  "mode_{l}" [label="preference {l}", shape=ellipse];')
    for j, _, _ in exp.recommendations:
        lines.append(f'  "rec_{j}" [label="{item_ids[j]}", shape=box, style=rounded];')
    for l, row in enumerate(exp.attention):
        for j, w in zip(exp.observed.tolist(), row):
            if w >= _DOT_MIN_WEIGHT:
                lines.append(f'  "obs_{j}" -> "mode_{l}" [penwidth={1 + 4 * w:.2f}];')
    for j, l, _ in exp.recommendations:
        lines.append(f'  "mode_{l}" -> "rec_{j}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
