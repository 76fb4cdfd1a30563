"""Full-catalog top-N ranking of blocks of users and the five ranking metrics.

Every item of the catalog is ranked, never a sample. Within a user's row,
items go by descending score, ties to the smaller item index, and the
user's excluded items (train, and validation at test time) come last. No
report reads a whole ranked row, so none is built: ``top_k`` gives the
first k items of each row, and ``hit_ranks`` the exact rank of each
relevant item, from which ``metric_rows`` reads every metric. A block's
rows of each split are cut from the CSR arrays (``dataset._rows``), and a
scorer is asked only for scores: ranking reads no mode attribution.

Metrics follow the usual binary-relevance definitions: Precision@K,
Recall@K, MAP@K normalized by min(K, |relevant|), R-Precision, and
binary-gain NDCG over the full ranked list. Users with an empty relevant
set in the target split are excluded from the averages; reported means
carry 95% normal-approximation confidence intervals.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
from dataclasses import asdict, dataclass

import numpy as np

from amarec.dataset import _rows
from amarec.model import BLOCK   # users per call of a scorer without ``block``


@dataclass(frozen=True)
class RankingReport:
    metrics: dict                 # name -> {"mean": float, "ci": float}
    ks: tuple
    split: str = ""
    num_users: int = 0

    def to_json(self):
        return json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"

    def table(self):
        """Human-readable table mirroring the usual results-table columns."""
        names = list(self.metrics)
        header = " | ".join(f"{n:>14s}" for n in names)
        values = " | ".join(f"{100 * self.metrics[n]['mean']:13.2f}%" for n in names)
        cis = " | ".join(f"{100 * self.metrics[n]['ci']:13.3f}%" for n in names)
        return "\n".join([header, values, "(95% CI) " + cis])


def rank_keys(scores, *exclude):
    """Ascending sort keys for a block of score rows: ``-scores``, with the
    entries of the CSR blocks ``exclude`` (one row per score row) at +inf so
    that they rank last; a repeated entry counts once. Returns the (B, n)
    keys and each row's count of ranked items, n - |excluded|. An item
    scored -inf is not ranked either; a NaN score raises ValueError."""
    keys = -np.asarray(scores, dtype=np.float64)
    if np.isnan(keys).any():
        raise ValueError("a scorer returned a NaN score, which has no rank")
    for block in exclude:
        keys[np.repeat(np.arange(block.shape[0]), np.diff(block.indptr)), block.indices] = np.inf
    return keys, keys.shape[1] - np.isposinf(keys).sum(axis=1)


def top_k(keys, k):
    """Each row's first min(k, n) items by ascending key, ties to the smaller
    item index. Only the items at or below the row's k-th smallest key, found
    by ``np.partition``, are sorted, and every item tied with the k-th is
    among them, so the result equals a stable sort's first k columns."""
    nb, n = keys.shape
    k = min(k, n)
    kth = np.partition(keys, k - 1, axis=1)[:, k - 1, None]
    rows, items = np.nonzero(keys <= kth)   # row-major: ascending item index
    order = np.lexsort((keys[rows, items], rows))   # stable
    start = np.searchsorted(rows, np.arange(nb))
    return items[order][start[:, None] + np.arange(k)]


def hit_ranks(keys, relevant):
    """The 0-based rank of each entry of the CSR block ``relevant``, in CSR
    order, within its row of ``keys`` ordered as ``top_k`` orders it: the
    count of items with a smaller key, read off one sort of the block, plus,
    for a tied entry, the count of its equal keys at a smaller index. An
    excluded (+inf) entry is not ranked and reads n."""
    nb, n = keys.shape
    ptr, items = relevant.indptr, relevant.indices
    owner = np.repeat(np.arange(nb), np.diff(ptr))
    key = keys[owner, items]
    ordered = np.sort(keys, axis=1)
    rank = np.empty(items.size, dtype=np.intp)   # items with a smaller key
    for b in range(nb):
        span = slice(ptr[b], ptr[b + 1])
        rank[span] = np.searchsorted(ordered[b], key[span])
    # an entry is tied exactly when the key after its first place is its own
    tied = (rank + 1 < n) & (ordered[owner, np.minimum(rank + 1, n - 1)] == key)
    for t in np.flatnonzero(tied & (key < np.inf)).tolist():
        rank[t] += np.count_nonzero(keys[owner[t], :items[t]] == key[t])
    return np.where(key < np.inf, rank, n)


def _block_metrics(ranks, length, relevant, ks, discount):
    """The metric rows of a block from the ranks of its relevant items."""
    nb, n = relevant.shape
    R = np.diff(relevant.indptr)
    owner = np.repeat(np.arange(nb), R)
    # each row's hit positions in rank order, padded with n
    hits = np.full((nb, R.max()), n)
    hits[owner, np.arange(owner.size) - relevant.indptr[owner]] = ranks
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


@functools.lru_cache(maxsize=8)
def _discount(n):
    """The read-only NDCG discounts 1 / log2(rank + 1) of ranks 1 to n, then
    0 for the padding rank n, built once per catalog size. ``math.log2``
    stays: ``np.log2`` rounds a few entries differently."""
    table = np.array([1.0 / math.log2(i + 1) for i in range(1, n + 1)] + [0.0])
    table.flags.writeable = False
    return table


def metric_rows(scorer, data, split="test", ks=(5, 10, 20)):
    """The metric names, the users with a nonempty relevant set in ascending
    index, and one metric row per such user, scored and ranked in blocks of
    the scorer's ``block`` users (``BLOCK`` if it names none). At test time
    the exclusion set is the train plus validation row (both were legitimate
    history); at validation time it is the train row only."""
    if split not in ("test", "validation"):
        raise ValueError(f"unknown split {split!r}")
    target = data.test if split == "test" else data.validation
    for k in ks:
        if not (isinstance(k, numbers.Integral) and not isinstance(k, bool) and k >= 1):
            raise ValueError(f"cutoff {k!r} in ks is not an integer >= 1")
    ks = tuple(sorted(ks))
    if len(set(ks)) < len(ks):
        raise ValueError(f"repeated cutoff in ks {ks}")
    names = ["R-Precision", "NDCG"] + [f"{m}@{k}" for m in ("MAP", "Precision", "Recall")
                                       for k in ks]
    n = target.shape[1]
    discount = _discount(n)
    users = np.flatnonzero(np.diff(target.indptr))
    rows, step = [np.zeros((0, len(names)))], getattr(scorer, "block", BLOCK)
    for start in range(0, users.size, step):
        block = users[start:start + step]
        history = _rows(data.train, block)
        exclude = (history, _rows(data.validation, block)) if split == "test" else (history,)
        keys, length = rank_keys(scorer(history, block), *exclude)
        relevant = _rows(target, block)
        rows.append(_block_metrics(hit_ranks(keys, relevant), length, relevant, ks, discount))
    return names, users, np.concatenate(rows)


def evaluate(scorer, data, split="test", ks=(5, 10, 20)):
    """Average ``metric_rows`` over the users, reduced in ascending user index."""
    names, _, rows = metric_rows(scorer, data, split, ks)
    ks = tuple(sorted(ks))
    metrics = {}
    for name, col in zip(names, rows.T):
        mean = float(col.mean()) if col.size else 0.0
        ci = float(1.96 * col.std(ddof=1) / math.sqrt(col.size)) if col.size > 1 else 0.0
        metrics[name] = {"mean": mean, "ci": ci}
    return RankingReport(metrics=metrics, ks=ks, split=split, num_users=int(rows.shape[0]))
