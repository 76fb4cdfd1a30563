"""Full-catalog top-N ranking of blocks of users and the five ranking metrics.

Metrics follow the usual binary-relevance definitions: Precision@K,
Recall@K, MAP@K normalized by min(K, |relevant|), R-Precision, and
binary-gain NDCG over the full ranked list. Users with an empty relevant
set in the target split are excluded from the averages; reported means
carry 95% normal-approximation confidence intervals.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

BLOCK = 32   # users per scorer call; an AMA block holds B x d x n per-mode scores


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


def rank_rows(scores, *exclude):
    """Each row's items by descending score, ties to the smaller item index,
    with the entries of the CSR blocks ``exclude`` (one row per score row)
    ranked at -inf; a repeated entry counts once. Returns the (B, n) order and
    the ranked lengths n - |excluded|: row b ranks ``order[b, :length[b]]``."""
    masked = np.array(scores, dtype=np.float64)
    hidden = np.zeros(masked.shape, dtype=bool)
    for block in exclude:
        hidden[np.repeat(np.arange(block.shape[0]), np.diff(block.indptr)), block.indices] = True
    masked[hidden] = -np.inf
    return np.argsort(-masked, axis=1, kind="stable"), masked.shape[1] - hidden.sum(axis=1)


def _block_metrics(order, length, relevant, ks, discount):
    """The metric rows of a block from the ranks of its relevant items."""
    nb, n = order.shape
    rank = np.empty_like(order)
    rank[np.arange(nb)[:, None], order] = np.arange(n)
    rank[rank >= length[:, None]] = n   # not ranked: never a hit
    R = np.diff(relevant.indptr)
    owner = np.repeat(np.arange(nb), R)
    # each row's hit positions in rank order, padded with n
    hits = np.full((nb, R.max()), n)
    hits[owner, np.arange(owner.size) - relevant.indptr[owner]] = rank[owner, relevant.indices]
    hits.sort(axis=1)

    def found(cut):   # hits among the first ``cut`` ranks; the padding n never counts
        return (hits < np.minimum(np.reshape(cut, (-1, 1)), n)).sum(axis=1)

    # sums run in rank order, one term at a time, as a hand loop adds them;
    # a user with nothing ranked reads the full ideal sum and scores NDCG 0
    dcg = np.cumsum(discount[hits], axis=1)[:, -1]
    ideal = np.cumsum(discount)[np.minimum(length, R) - 1]
    nth = np.arange(1, hits.shape[1] + 1)
    cols = [found(R) / R, dcg / ideal]
    cols += [np.cumsum(np.where(hits < min(k, n), nth / (hits + 1), 0.0), axis=1)[:, -1]
             / np.minimum(k, R) for k in ks]
    cols += [found(k) / k for k in ks]
    cols += [found(k) / R for k in ks]
    return np.column_stack(cols)


def metric_rows(scorer, data, split="test", ks=(5, 10, 20)):
    """The metric names, the users with a nonempty relevant set in ascending
    index, and one metric row per such user, scored and ranked in blocks. At
    test time the exclusion set is the train plus validation row (both were
    legitimate history); at validation time it is the train row only."""
    if split not in ("test", "validation"):
        raise ValueError(f"unknown split {split!r}")
    target = data.test if split == "test" else data.validation
    ks = tuple(sorted(ks))
    names = ["R-Precision", "NDCG"] + [f"{m}@{k}" for m in ("MAP", "Precision", "Recall")
                                       for k in ks]
    n = target.shape[1]
    discount = np.array([1.0 / math.log2(i + 1) for i in range(1, n + 1)] + [0.0])
    users = np.flatnonzero(np.diff(target.indptr))
    rows = [np.zeros((0, len(names)))]
    for start in range(0, users.size, BLOCK):
        block = users[start:start + BLOCK]
        history = data.train[block]
        exclude = (history, data.validation[block]) if split == "test" else (history,)
        order, length = rank_rows(scorer(history, block), *exclude)
        rows.append(_block_metrics(order, length, target[block], ks, discount))
    return names, users, np.concatenate(rows)


def evaluate(scorer, data, split="test", ks=(5, 10, 20)):
    """Average ``metric_rows`` over the users, reduced in ascending user index."""
    ks = tuple(sorted(ks))
    names, _, rows = metric_rows(scorer, data, split, ks)
    metrics = {}
    for name, col in zip(names, rows.T):
        mean = float(col.mean()) if col.size else 0.0
        ci = float(1.96 * col.std(ddof=1) / math.sqrt(col.size)) if col.size > 1 else 0.0
        metrics[name] = {"mean": mean, "ci": ci}
    return RankingReport(metrics=metrics, ks=ks, split=split, num_users=int(rows.shape[0]))
