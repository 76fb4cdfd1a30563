"""Rating-file ingestion, binarization, temporal splitting and sparse matrices.

Raw rating files (MovieLens ``::`` format or header-less Amazon review CSV)
are parsed into columns, thresholded into implicit feedback, split per user
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
from itertools import chain, compress, repeat

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


_FORMATS = ("movielens-dat", "amazon-csv")
_COLUMNS = ("user", "item", "rating", "timestamp")
_SPLITS = ("train", "validation", "test")


@dataclass(frozen=True, eq=False)
class Ratings:
    """A rating log as four equal-length columns in input order: ``user`` and
    ``item`` ids as Python ``str`` in object arrays (a numpy ``U`` array
    would drop trailing NUL characters and merge ids), ``rating`` as float64
    and ``timestamp`` as int64. Sequences passed in become those arrays."""

    user: np.ndarray
    item: np.ndarray
    rating: np.ndarray
    timestamp: np.ndarray

    def __post_init__(self):
        for name, dtype in zip(_COLUMNS, (object, object, np.float64, np.int64)):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=dtype))
        if len({getattr(self, name).shape for name in _COLUMNS}) != 1:
            raise ValueError("Ratings columns differ in length")

    def __len__(self):
        return self.rating.size


@dataclass(frozen=True)
class SplitDataset:
    """Train/validation/test interaction matrices over shared index spaces.

    All three matrices are binary CSR of identical shape (m users, n items)
    with sorted indices. ``user_ids`` / ``item_ids`` map row/column back to
    external ids; ``user_index`` is the inverse map of ``user_ids``.
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
    def shape(self):
        return self.train.shape


def parse_ratings(path, format, amazon_columns="item,user,rating,timestamp"):
    """Parse a raw rating file into Ratings, input order kept.

    ``movielens-dat`` lines look like ``user::item::rating::timestamp``;
    ``amazon-csv`` is header-less with the column order given by
    ``amazon_columns`` (default ``item,user,rating,timestamp``). Blank lines
    are skipped. Timestamps are integers from 0 to the int64 maximum. The
    first faulty line in file order raises a ParseError."""
    if format not in _FORMATS:
        raise ConfigError(f"unknown format {format!r}, expected one of {_FORMATS}")
    amazon = format == "amazon-csv"
    cols = [c.strip() for c in amazon_columns.split(",")] if amazon else list(_COLUMNS)
    if sorted(cols) != sorted(_COLUMNS):
        raise ConfigError(f"bad amazon column order {amazon_columns!r}")
    pick = [cols.index(name) for name in _COLUMNS]
    try:
        fields = _fields(path, amazon)
        user, item, rating, timestamp = (fields[k::4] for k in pick)
        ratings = Ratings(user, item, list(map(float, rating)), list(map(int, timestamp)))
        if not (np.isfinite(ratings.rating).all() and (ratings.timestamp >= 0).all()):
            raise ValueError("a non-finite rating or a negative timestamp")
        return ratings
    except (ValueError, OverflowError, csv.Error):   # a UnicodeDecodeError is a ValueError
        _raise_first_fault(path, amazon, pick)
        raise


def _fields(path, amazon):
    """Every field of the non-blank lines, flat and in file order; a
    ValueError if one of those lines does not have 4 fields."""
    if amazon:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            rows = [row for row in csv.reader(fh) if row]
        sizes, fields = set(map(len, rows)), list(chain.from_iterable(rows))
    else:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [line for line in fh.read().split("\n") if line]
        sizes = {c + 1 for c in set(map(str.count, lines, repeat("::")))}
        # "::" never spans a "\n": each line splits as str.split would, no list per line;
        # a file with no such line has no field, not the one "".split gives
        fields = "\n".join(lines).replace("::", "\n").split("\n") if lines else []
    if not sizes <= {4}:
        raise ValueError("a line without 4 fields")
    return fields


def _raise_first_fault(path, amazon, pick):
    """Re-read the file line by line; raise a ParseError for the first faulty
    line, naming the first of its faults in the order checked below."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape",
              newline="" if amazon else None) as fh:
        records = _csv_rows(fh) if amazon else enumerate(
            (line.rstrip("\n").split("::") if line != "\n" else [] for line in fh), start=1)
        for lineno, fields in records:
            if not fields:
                continue
            try:
                "".join(fields).encode("utf-8")
            except UnicodeEncodeError as exc:   # an undecodable byte, escaped as a surrogate
                byte = ord(exc.object[exc.start]) - 0xDC00
                raise ParseError(f"invalid UTF-8 byte 0x{byte:02x}", lineno) from None
            if len(fields) != 4:
                sep = "CSV" if amazon else "'::'-separated"
                raise ParseError(f"expected 4 {sep} fields, got {len(fields)}", lineno)
            rating, timestamp = fields[pick[2]], fields[pick[3]]
            try:
                r, ts = float(rating), int(timestamp)   # "1.7" is an error, not 1
            except ValueError as exc:
                raise ParseError(str(exc), lineno) from None
            if not math.isfinite(r):
                raise ParseError(f"non-finite rating {rating!r}", lineno)
            if ts < 0:
                raise ParseError(f"negative timestamp {timestamp!r}", lineno)
            if ts >= 2**63:
                raise ParseError(f"timestamp {timestamp!r} beyond int64", lineno)


def _csv_rows(fh):
    """(line, row) for each record of a CSV file, ``line`` being the physical
    line the record starts on: a quoted field may span lines. A csv.Error,
    such as a field beyond the csv module's field size limit, is raised as a
    ParseError at the line its record starts on."""
    reader, start = csv.reader(fh), 1
    try:
        for row in reader:
            yield start, row
            start = reader.line_num + 1
    except csv.Error as exc:
        raise ParseError(str(exc), start) from None


def binarize(ratings, threshold):
    """Keep ratings strictly above ``threshold``; set them to 1."""
    if math.isnan(threshold) or threshold == math.inf:
        raise ConfigError(f"threshold must be a number below +inf, got {threshold}")
    keep = ratings.rating > threshold
    return Ratings(ratings.user[keep], ratings.item[keep], np.ones(np.count_nonzero(keep)),
                   ratings.timestamp[keep])


def _codes(ids):
    """The sorted distinct ids, and each id's position among them."""
    distinct = sorted(set(ids))
    index = {v: j for j, v in enumerate(distinct)}
    return distinct, np.fromiter(map(index.__getitem__, ids), np.int64, len(ids))


def temporal_split(ratings, fractions=(0.5, 0.2, 0.3)):
    """Per-user temporal split into train/validation/test matrices.

    Each user's events are sorted by (timestamp, item_id); with N events
    (duplicate pairs included) the first floor(f1*N) go to train, up to
    floor((f1+f2)*N) to validation, the rest to test. Users without train
    events are dropped entirely; items never seen in train are dropped from
    all splits and from the item index. A pair may sit in several splits.
    """
    if len(fractions) != 3 or not all(math.isfinite(f) and f >= 0 for f in fractions):
        raise ConfigError(f"bad fractions {fractions}")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ConfigError(f"fractions must sum to 1, got {fractions}")
    if not len(ratings):
        raise ConfigError("empty event list")

    user_ids, user = _codes(ratings.user)
    item_ids, item = _codes(ratings.item)
    order = np.lexsort((item, ratings.timestamp, user))
    user, item = user[order], item[order]
    start = np.flatnonzero(np.r_[True, user[1:] != user[:-1]])   # each user's run
    count = np.diff(np.r_[start, user.size])
    rank = np.arange(user.size) - np.repeat(start, count)
    f1, f2, _ = fractions
    part = ((rank >= np.repeat(np.floor(f1 * count), count)).astype(np.int8)
            + (rank >= np.repeat(np.floor((f1 + f2) * count), count)))
    if not (part == 0).any():
        raise ConfigError("empty dataset: no user retains a train event")

    kept_users = np.bincount(user[part == 0], minlength=len(user_ids)) > 0
    kept_items = np.bincount(item[part == 0], minlength=len(item_ids)) > 0
    shape = (int(kept_users.sum()), int(kept_items.sum()))
    # validation/test events of dropped users or unseen items vanish with them
    keep = kept_users[user] & kept_items[item]
    cells = (np.cumsum(kept_users)[user] - 1) * shape[1] + np.cumsum(kept_items)[item] - 1
    cells = [_sorted_unique(cells[keep & (part == s)]) for s in range(3)]
    return SplitDataset(*(_matrix(c // shape[1], c % shape[1], shape) for c in cells),
                        user_ids=tuple(compress(user_ids, kept_users)),
                        item_ids=tuple(compress(item_ids, kept_items)))


def _sorted_unique(values):
    """The distinct values in ascending order, as ``np.unique`` gives them, from
    one sort and an adjacent-difference mask: numpy 2's ``np.unique`` of an
    integer array takes a hash path, which costs more on these cells."""
    values = np.sort(values)
    first = np.ones(values.size, dtype=bool)
    first[1:] = values[1:] != values[:-1]
    return values[first]


def _matrix(rows, cols, shape):
    """CSR matrix with sorted indices and a 1 for each (row, col) pair."""
    mat = sp.csr_matrix((np.ones(rows.size), (rows, cols)), shape=shape)
    mat.sort_indices()
    return mat


def save_split(data, out_dir, threshold=None, fractions=(0.5, 0.2, 0.3)):
    """Write train/validation/test CSVs (user_idx,item_idx) plus a JSON sidecar.

    Each matrix's entries are listed once, row-major, for both the CSV rows
    and the sidecar's ``content_hash``, a SHA-256 over the (split, user,
    item) triples that keys the split's identity. All four files are
    complete before any of them replaces its predecessor.
    """
    os.makedirs(out_dir, exist_ok=True)
    pairs, digest = {}, hashlib.sha256()
    for name in _SPLITS:
        mat = getattr(data, name)
        rows = np.repeat(np.arange(mat.shape[0]), np.diff(mat.indptr)).tolist()
        pairs[name] = [f"{u},{j}" for u, j in zip(rows, mat.indices.tolist())]
        digest.update("".join(f"{name},{p}\n" for p in pairs[name]).encode())
    sidecar = {
        "num_users": data.shape[0], "num_items": data.shape[1],
        "user_ids": list(data.user_ids), "item_ids": list(data.item_ids),
        "threshold": threshold, "fractions": list(fractions),
        "counts": {name: len(pairs[name]) for name in _SPLITS},
        "content_hash": digest.hexdigest(),
    }
    with contextlib.ExitStack() as files:
        for name in _SPLITS:
            fh = files.enter_context(atomic_open(os.path.join(out_dir, f"{name}.csv"), "w",
                                                 encoding="utf-8", newline=""))
            fh.write("\r\n".join(["user_idx,item_idx", *pairs[name], ""]))
        fh = files.enter_context(atomic_open(os.path.join(out_dir, "split.json"), "w",
                                             encoding="utf-8"))
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _read_pairs(path, m, n):
    """The (user_idx, item_idx) rows below a split CSV's header, parsed with
    numpy from its bytes. Each row must be two unsigned decimal integers below
    m and n, joined by a comma and ending in \\n, \\r\\n or the end of the
    file; the first row that is not raises a ParseError naming file and line."""
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


def _is_count(value):
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _read_split_meta(path):
    """The split.json at ``path``, checked to be an object with integer
    ``num_users`` and ``num_items``, ``user_ids`` and ``item_ids`` lists of
    that many distinct strings and an integer ``counts`` entry per split; a
    ConfigError names the file and the first key that is not."""
    with open(path, "r", encoding="utf-8") as fh:
        meta = json.load(fh)
    if not isinstance(meta, dict):
        raise ConfigError(f"{path} is not a JSON object")
    for size, key in (("num_users", "user_ids"), ("num_items", "item_ids")):
        if not _is_count(meta.get(size)):
            raise ConfigError(f"{path}: {size} must be an integer >= 0, got {meta.get(size)!r}")
        ids = meta.get(key)
        if not isinstance(ids, list) or not all(isinstance(i, str) for i in ids):
            raise ConfigError(f"{path}: {key} must be a list of id strings")
        if len(ids) != meta[size]:
            raise ConfigError(f"{path}: {key} lists {len(ids)} ids, but {size} is {meta[size]}")
        seen = set()
        for i in ids:
            if i in seen:
                raise ConfigError(f"{path}: {key} repeats the id {i!r}")
            seen.add(i)
    counts = meta.get("counts")
    for name in _SPLITS:
        if not (isinstance(counts, dict) and _is_count(counts.get(name))):
            raise ConfigError(f"{path}: counts must give an integer >= 0 for {name}")
    return meta


def _first_repeat(rows, cols):
    """(first, again): ``again`` is the earliest row, in file order, whose
    (user, item) pair an earlier row holds, and ``first`` is that earlier row."""
    order = np.lexsort((cols, rows))   # stable: a pair's rows keep their file order
    same = np.flatnonzero((rows[order[1:]] == rows[order[:-1]])
                          & (cols[order[1:]] == cols[order[:-1]]))
    k = same[np.argmin(order[same + 1])]
    return int(order[k]), int(order[k + 1])


def load_split(out_dir):
    """Inverse of save_split. Rejects a malformed split.json before reading
    any CSV, a malformed or out-of-range row, naming its file and line, a
    row that repeats an earlier row's pair, naming both lines, and a file
    whose row count differs from the one split.json records, as a file cut
    short leaves it."""
    meta = _read_split_meta(os.path.join(out_dir, "split.json"))
    m, n = meta["num_users"], meta["num_items"]

    def read_csv(name):
        path = os.path.join(out_dir, f"{name}.csv")
        rows, cols = _read_pairs(path, m, n)
        mat = _matrix(rows, cols, (m, n))
        if mat.nnz < rows.size:   # the matrix summed a repeated pair into one entry
            first, again = _first_repeat(rows, cols)
            raise ParseError(f"{path}: row {rows[again]},{cols[again]} repeats line "
                             f"{first + 2}", again + 2)
        if rows.size != meta["counts"][name]:
            raise ConfigError(f"{path} holds {rows.size} interactions, but split.json "
                              f"records {meta['counts'][name]}")
        return mat

    return SplitDataset(*map(read_csv, _SPLITS), user_ids=tuple(meta["user_ids"]),
                        item_ids=tuple(meta["item_ids"]))
