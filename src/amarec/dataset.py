"""Rating-file ingestion, binarization, temporal splitting and sparse matrices.

Raw rating files (MovieLens ``::`` format or header-less Amazon review CSV)
are parsed into events, thresholded into implicit feedback, split per user
along the time axis, and packed into binary CSR interaction matrices that
the rest of the toolkit consumes.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from amarec.fileio import atomic_open


class ParseError(ValueError):
    """Malformed input line; carries the 1-based line number."""

    def __init__(self, message, line_number):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class ConfigError(ValueError):
    """Invalid configuration value (unknown format tag, bad fractions, ...)."""


@dataclass(frozen=True)
class RatingEvent:
    user_id: str
    item_id: str
    rating: float
    timestamp: int


@dataclass(frozen=True)
class SplitDataset:
    """Train/validation/test interaction matrices over shared index spaces.

    All three matrices are binary CSR of identical shape (m users, n items).
    ``user_ids`` / ``item_ids`` map row/column back to external ids;
    ``user_index`` / ``item_index`` are the inverse maps.
    """

    train: sp.csr_matrix
    validation: sp.csr_matrix
    test: sp.csr_matrix
    user_ids: tuple
    item_ids: tuple

    @property
    def user_index(self):
        return {u: i for i, u in enumerate(self.user_ids)}

    @property
    def item_index(self):
        return {v: j for j, v in enumerate(self.item_ids)}

    @property
    def shape(self):
        return self.train.shape


_FORMATS = ("movielens-dat", "amazon-csv")


def parse_ratings(path, format, amazon_columns="item,user,rating,timestamp"):
    """Parse a raw rating file into a list of RatingEvent, input order kept.

    ``movielens-dat`` lines look like ``user::item::rating::timestamp``;
    ``amazon-csv`` is header-less with the column order given by
    ``amazon_columns`` (default ``item,user,rating,timestamp``). Timestamps
    are non-negative integers.
    """
    if format not in _FORMATS:
        raise ConfigError(f"unknown format {format!r}, expected one of {_FORMATS}")
    events = []
    if format == "movielens-dat":
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.rstrip("\n")
                if not line:
                    continue
                parts = line.split("::")
                if len(parts) != 4:
                    raise ParseError(
                        f"expected 4 '::'-separated fields, got {len(parts)}", lineno
                    )
                events.append(_make_event(parts[0], parts[1], parts[2], parts[3], lineno))
    else:
        cols = [c.strip() for c in amazon_columns.split(",")]
        if sorted(cols) != ["item", "rating", "timestamp", "user"]:
            raise ConfigError(f"bad amazon column order {amazon_columns!r}")
        pos = {name: i for i, name in enumerate(cols)}
        with open(path, "r", encoding="utf-8", newline="") as fh:
            for lineno, row in enumerate(csv.reader(fh), start=1):
                if not row:
                    continue
                if len(row) != 4:
                    raise ParseError(f"expected 4 CSV fields, got {len(row)}", lineno)
                events.append(
                    _make_event(
                        row[pos["user"]], row[pos["item"]], row[pos["rating"]],
                        row[pos["timestamp"]], lineno,
                    )
                )
    return events


def _make_event(user, item, rating, timestamp, lineno):
    try:
        r = float(rating)
        ts = int(timestamp)   # "1.7" is an error, not 1
    except ValueError as exc:
        raise ParseError(str(exc), lineno) from None
    if not math.isfinite(r):
        raise ParseError(f"non-finite rating {rating!r}", lineno)
    if ts < 0:
        raise ParseError(f"negative timestamp {timestamp!r}", lineno)
    return RatingEvent(user_id=user, item_id=item, rating=r, timestamp=ts)


def binarize(events, threshold):
    """Keep events with rating strictly above ``threshold``; set ratings to 1."""
    if not math.isfinite(threshold) and threshold > 0:
        raise ConfigError("threshold must not be +inf")
    return [
        RatingEvent(e.user_id, e.item_id, 1.0, e.timestamp)
        for e in events
        if e.rating > threshold
    ]


def temporal_split(events, fractions=(0.5, 0.2, 0.3)):
    """Per-user temporal split into train/validation/test matrices.

    Each user's events are sorted by (timestamp, item_id); with N events the
    first floor(f1*N) go to train, up to floor((f1+f2)*N) to validation, the
    rest to test. Users without train events are dropped entirely; items
    never seen in train are dropped from all splits and from the item index.
    """
    if len(fractions) != 3 or any(f < 0 for f in fractions):
        raise ConfigError(f"bad fractions {fractions}")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ConfigError(f"fractions must sum to 1, got {fractions}")
    if not events:
        raise ConfigError("empty event list")

    by_user = {}
    for e in events:
        by_user.setdefault(e.user_id, []).append(e)

    f1, f2, _ = fractions
    train_ev, val_ev, test_ev = [], [], []
    for uid, evs in by_user.items():
        evs.sort(key=lambda e: (e.timestamp, e.item_id))
        n = len(evs)
        n_train = math.floor(f1 * n)
        n_val = math.floor((f1 + f2) * n) - n_train
        if n_train == 0:
            continue
        train_ev.extend(evs[:n_train])
        val_ev.extend(evs[n_train : n_train + n_val])
        test_ev.extend(evs[n_train + n_val :])

    if not train_ev:
        raise ConfigError("empty dataset: no user retains a train event")

    item_ids = tuple(sorted({e.item_id for e in train_ev}))
    item_index = {v: j for j, v in enumerate(item_ids)}
    user_ids = tuple(sorted({e.user_id for e in train_ev}))
    user_index = {u: i for i, u in enumerate(user_ids)}

    # validation/test events touching unseen items vanish with the item drop
    val_ev = [e for e in val_ev if e.item_id in item_index]
    test_ev = [e for e in test_ev if e.item_id in item_index]

    return SplitDataset(
        train=build_matrix(train_ev, user_index, item_index),
        validation=build_matrix(val_ev, user_index, item_index),
        test=build_matrix(test_ev, user_index, item_index),
        user_ids=user_ids,
        item_ids=item_ids,
    )


def build_matrix(events, user_index, item_index):
    """Binary CSR matrix from events; duplicate pairs collapse to a single 1."""
    m, n = len(user_index), len(item_index)
    pairs = set()
    for e in events:
        if e.user_id not in user_index:
            raise KeyError(f"unknown user id {e.user_id!r}")
        if e.item_id not in item_index:
            raise KeyError(f"unknown item id {e.item_id!r}")
        pairs.add((user_index[e.user_id], item_index[e.item_id]))
    if not pairs:
        return sp.csr_matrix((m, n), dtype=np.float64)
    rows, cols = zip(*sorted(pairs))
    data = np.ones(len(rows), dtype=np.float64)
    mat = sp.csr_matrix((data, (rows, cols)), shape=(m, n))
    mat.sort_indices()
    return mat


def _matrix_pairs(mat):
    coo = mat.tocoo()
    return sorted(zip(coo.row.tolist(), coo.col.tolist()))


def split_content_hash(data):
    """SHA-256 over the sorted (split, user, item) triples; split identity key."""
    h = hashlib.sha256()
    for name, mat in (("train", data.train), ("validation", data.validation), ("test", data.test)):
        for u, j in _matrix_pairs(mat):
            h.update(f"{name},{u},{j}\n".encode())
    return h.hexdigest()


def save_split(data, out_dir, threshold=None, fractions=(0.5, 0.2, 0.3)):
    """Write train/validation/test CSVs (user_idx,item_idx) plus a JSON sidecar.

    All four files are complete before any of them replaces its predecessor.
    """
    os.makedirs(out_dir, exist_ok=True)
    sidecar = {
        "num_users": data.shape[0],
        "num_items": data.shape[1],
        "user_ids": list(data.user_ids),
        "item_ids": list(data.item_ids),
        "threshold": threshold,
        "fractions": list(fractions),
        "counts": {
            "train": int(data.train.nnz),
            "validation": int(data.validation.nnz),
            "test": int(data.test.nnz),
        },
        "content_hash": split_content_hash(data),
    }
    with contextlib.ExitStack() as files:
        for name, mat in (("train", data.train), ("validation", data.validation), ("test", data.test)):
            fh = files.enter_context(atomic_open(os.path.join(out_dir, f"{name}.csv"), "w",
                                                 encoding="utf-8", newline=""))
            w = csv.writer(fh)
            w.writerow(["user_idx", "item_idx"])
            for u, j in _matrix_pairs(mat):
                w.writerow([u, j])
        fh = files.enter_context(atomic_open(os.path.join(out_dir, "split.json"), "w",
                                             encoding="utf-8"))
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _read_pairs(path, m, n):
    """The (user_idx, item_idx) rows below the header line of a split CSV,
    parsed with numpy from the file's bytes. Each row must be two unsigned
    decimal integers below m and n, joined by a comma and ending in \\n,
    \\r\\n or the end of the file; the first row that is not raises a
    ParseError naming the file and line."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if not raw:
        raise ParseError(f"{path}: empty file, expected a user_idx,item_idx header", 1)
    buf = np.frombuffer(raw, dtype=np.uint8)
    newline = np.flatnonzero(buf == ord("\n"))
    start, end = np.append(0, newline + 1), np.append(newline, buf.size)
    keep = start < buf.size   # no line after a final newline
    keep[0] = False           # line 1 is the header
    start, end = start[keep], end[keep]
    end -= (end > start) & (buf[end - 1] == ord("\r"))

    def line(i):   # the text of row i, on line i + 2
        return raw[start[i]:end[i]].decode("utf-8", "replace")

    digit = (buf >= ord("0")) & (buf <= ord("9"))
    comma = buf == ord(",")
    # digits and commas of each row; its line break is neither
    digits = np.add.reduceat(digit, start, dtype=np.intp)
    commas = np.add.reduceat(comma, start, dtype=np.intp)
    ok = (commas == 1) & (digits == end - start - 1) & digit[start] & digit[end - 1]
    if not ok.all():
        bad = int(np.argmin(ok))
        raise ParseError(f"{path}: expected user_idx,item_idx, got {line(bad)!r}", bad + 2)
    sep = np.flatnonzero(comma)
    sep = sep[sep.size - start.size:]   # one per row, after any in the header

    def number(lo, hi):   # saturates at 10**17, above any index, so it cannot wrap
        value = np.zeros(lo.size, dtype=np.int64)
        for k in range(int((hi - lo).max(initial=0)), 0, -1):   # k-th digit from the right
            at = hi - k
            place = np.where(at >= lo, buf[np.maximum(at, 0)] - ord("0"), 0)
            value = np.minimum(10 * value + place, 10**17)
        return value

    rows, cols = number(start, sep), number(sep + 1, end)
    bad = np.flatnonzero((rows >= m) | (cols >= n))
    if bad.size:
        raise ParseError(f"{path}: index {line(bad[0])} outside the {m} users x {n} items "
                         "of split.json", int(bad[0]) + 2)
    return rows, cols


def load_split(out_dir):
    """Inverse of save_split. Rejects a malformed or out-of-range row,
    naming its file and line, and a matrix whose entry count differs from
    the one split.json records, as a file cut short leaves it."""
    with open(os.path.join(out_dir, "split.json"), "r", encoding="utf-8") as fh:
        meta = json.load(fh)
    m, n = meta["num_users"], meta["num_items"]

    def read_csv(name):
        path = os.path.join(out_dir, f"{name}.csv")
        rows, cols = _read_pairs(path, m, n)
        mat = sp.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(m, n))
        mat.sort_indices()
        if mat.nnz != meta["counts"][name]:
            raise ConfigError(f"{path} holds {mat.nnz} interactions, but split.json "
                              f"records {meta['counts'][name]}")
        return mat

    return SplitDataset(
        train=read_csv("train"),
        validation=read_csv("validation"),
        test=read_csv("test"),
        user_ids=tuple(meta["user_ids"]),
        item_ids=tuple(meta["item_ids"]),
    )
