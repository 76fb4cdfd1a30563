import csv
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

sys.path.insert(0, str(Path(__file__).parent))

from amarec.dataset import Ratings, binarize, temporal_split


def synthetic_events(m=30, n=20, per_user=12, seed=7):
    """Dense-ish synthetic rating log with timestamps and 1-5 ratings."""
    rng = np.random.default_rng(seed)
    columns = {"user": [], "item": [], "rating": [], "timestamp": []}
    for u in range(m):
        items = rng.choice(n, size=min(per_user, n), replace=False)
        for t, j in enumerate(items):
            columns["user"].append(f"u{u:03d}")
            columns["item"].append(f"i{int(j):03d}")
            columns["rating"].append(float(rng.integers(1, 6)))
            columns["timestamp"].append(1_000_000 + 100 * t + int(rng.integers(0, 50)))
    return Ratings(**columns)


def event_ids(ratings, column):
    """Each event's ``column`` ("user" or "item") id, read back from the
    codes as an object array of ``str``, one object per distinct id."""
    return np.array(getattr(ratings, f"{column}_ids"), dtype=object)[
        getattr(ratings, f"{column}_code")]


def csr_rows(rows, n):
    """The CSR block of n columns whose row b stores the item indices
    ``rows[b]``, in their order, each with value 1: the batch format of
    ``Forward``, ``corrupt`` and ``batch_gradients``."""
    rows = [np.asarray(r, dtype=np.intp) for r in rows]
    indptr = np.cumsum([0] + [r.size for r in rows])
    indices = np.concatenate(rows) if rows else np.zeros(0, dtype=np.intp)
    return sp.csr_matrix((np.ones(indices.size), indices, indptr), shape=(len(rows), n))


@pytest.fixture(scope="session")
def tiny_split():
    events = binarize(synthetic_events(), threshold=2)
    return temporal_split(events)


def write_movielens_file(path, ratings):
    with open(path, "w", encoding="utf-8") as fh:
        for u, i, r, t in zip(event_ids(ratings, "user"), event_ids(ratings, "item"),
                              ratings.rating.tolist(), ratings.timestamp.tolist()):
            fh.write(f"{u}::{i}::{r:g}::{t}\n")


def write_amazon_file(path, ratings):
    """``ratings`` as a header-less Amazon CSV, item,user,rating,timestamp."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(zip(
            event_ids(ratings, "item"), event_ids(ratings, "user"), ratings.rating.tolist(),
            ratings.timestamp.tolist()))
