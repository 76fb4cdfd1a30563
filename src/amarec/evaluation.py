"""Top-N ranking and the five ranking metrics with per-user aggregation.

Metrics follow the usual binary-relevance definitions: Precision@K,
Recall@K, MAP@K normalized by min(K, |relevant|), R-Precision, and
binary-gain NDCG over the full recommended list. Users with an empty
relevant set in the target split are excluded from the averages; reported
means carry 95% normal-approximation confidence intervals.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RankingReport:
    metrics: dict                 # name -> {"mean": float, "ci": float}
    ks: tuple
    split: str = ""
    model_hash: str = ""
    num_users: int = 0

    def to_json(self):
        return json.dumps(
            {
                "metrics": self.metrics,
                "ks": list(self.ks),
                "split": self.split,
                "model_hash": self.model_hash,
                "num_users": self.num_users,
            },
            indent=2, sort_keys=True,
        ) + "\n"

    def table(self):
        """Human-readable table mirroring the usual results-table columns."""
        names = list(self.metrics)
        header = " | ".join(f"{n:>14s}" for n in names)
        values = " | ".join(f"{100 * self.metrics[n]['mean']:13.2f}%" for n in names)
        cis = " | ".join(f"{100 * self.metrics[n]['ci']:13.3f}%" for n in names)
        return "\n".join([header, values, "(95% CI) " + cis])


def rank_topk(scores, exclude, k=None):
    """Indices of the top-k items by score, excluded items removed.

    Ties break toward the smaller item index. ``exclude`` is an iterable of
    item indices (typically the user's train row, plus the validation row
    when scoring the test split). ``k=None`` ranks the whole catalog.
    """
    scores = np.asarray(scores, dtype=np.float64)
    n = scores.size
    excluded = np.zeros(n, dtype=bool)
    excluded[np.asarray(list(exclude), dtype=np.intp)] = True   # a repeat counts once
    masked = np.where(excluded, -np.inf, scores)
    order = np.lexsort((np.arange(n), -masked))[:n - np.count_nonzero(excluded)]
    if k is not None:
        order = order[:k]
    return order


def precision_at_k(ranked, relevant, k):
    return len(set(ranked[:k].tolist()) & relevant) / k


def recall_at_k(ranked, relevant, k):
    return len(set(ranked[:k].tolist()) & relevant) / len(relevant)


def map_at_k(ranked, relevant, k):
    """Truncated average precision, normalized by min(k, |relevant|)."""
    hits = 0
    total = 0.0
    for i, item in enumerate(ranked[:k].tolist(), start=1):
        if item in relevant:
            hits += 1
            total += hits / i
    return total / min(k, len(relevant))


def r_precision(ranked, relevant):
    r = len(relevant)
    return len(set(ranked[:r].tolist()) & relevant) / r


def ndcg(ranked, relevant, k_cap=None):
    """Binary-gain NDCG; by default over the whole ranked list."""
    if k_cap is None:
        k_cap = len(ranked)
    dcg = 0.0
    for i, item in enumerate(ranked[:k_cap].tolist(), start=1):
        if item in relevant:
            dcg += 1.0 / math.log2(i + 1)
    ideal = sum(1.0 / math.log2(i + 1) for i in range(1, min(k_cap, len(relevant)) + 1))
    return dcg / ideal


def _row_set(mat, u):
    return mat.indices[mat.indptr[u]:mat.indptr[u + 1]]


def evaluate(scorer, data, split="test", ks=(5, 10, 20)):
    """Score every user, rank the full catalog, and average the metrics.

    At test time the exclusion set is the train plus validation row (both
    were legitimate history); at validation time it is the train row only.
    Users whose relevant set is empty are skipped. Per-user records are
    reduced in ascending user index.
    """
    if split == "test":
        target = data.test
    elif split == "validation":
        target = data.validation
    else:
        raise ValueError(f"unknown split {split!r}")
    train = data.train
    ks = tuple(sorted(ks))
    names = (["R-Precision", "NDCG"]
             + [f"MAP@{k}" for k in ks]
             + [f"Precision@{k}" for k in ks]
             + [f"Recall@{k}" for k in ks])

    def user_metrics(u):
        relevant = set(_row_set(target, u).tolist())
        if not relevant:
            return None
        exclude = _row_set(train, u)
        if split == "test":
            exclude = np.concatenate([exclude, _row_set(data.validation, u)])
        ranked = rank_topk(scorer(_row_set(train, u), u), exclude)
        rec = [r_precision(ranked, relevant), ndcg(ranked, relevant)]
        rec += [map_at_k(ranked, relevant, k) for k in ks]
        rec += [precision_at_k(ranked, relevant, k) for k in ks]
        rec += [recall_at_k(ranked, relevant, k) for k in ks]
        return rec

    records = [user_metrics(u) for u in range(train.shape[0])]
    rows = np.array([r for r in records if r is not None], dtype=np.float64)
    metrics = {}
    for idx, name in enumerate(names):
        col = rows[:, idx] if rows.size else np.zeros(0)
        mean = float(col.mean()) if col.size else 0.0
        ci = float(1.96 * col.std(ddof=1) / math.sqrt(col.size)) if col.size > 1 else 0.0
        metrics[name] = {"mean": mean, "ci": ci}
    return RankingReport(metrics=metrics, ks=ks, split=split, num_users=int(rows.shape[0]))
