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
from itertools import chain, compress

import numpy as np
import scipy.sparse as sp
from numpy.lib.stride_tricks import sliding_window_view

from amarec.fileio import atomic_open
from amarec.linalg import matrix_hash


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


@dataclass(frozen=True, eq=False, init=False)
class Ratings:
    """A rating log as equal-length columns in input order, its ids coded:
    ``user_ids`` holds distinct user ids as Python ``str`` in ``sorted()``
    order and ``user_code`` each event's position among them (int64), and
    ``item_ids`` / ``item_code`` the same for items; ``rating`` is float64 and
    ``timestamp`` int64. An id list may hold ids that no event names, as
    ``binarize`` leaves it.

    ``Ratings(user, item, rating, timestamp)`` builds one from four sequences,
    coding each id column once. The ids stay Python ``str``: a numpy ``U``
    array would drop trailing NUL characters and merge ids."""

    user_ids: tuple
    user_code: np.ndarray
    item_ids: tuple
    item_code: np.ndarray
    rating: np.ndarray
    timestamp: np.ndarray

    def __init__(self, user, item, rating, timestamp):
        self._set(*_codes(user), *_codes(item), rating, timestamp)

    @classmethod
    def coded(cls, user_ids, user_code, item_ids, item_code, rating, timestamp):
        """Ratings over ids already coded: each code indexes its sorted id list."""
        ratings = cls.__new__(cls)
        ratings._set(user_ids, user_code, item_ids, item_code, rating, timestamp)
        return ratings

    def _set(self, user_ids, user_code, item_ids, item_code, rating, timestamp):
        fields = {"user_ids": tuple(user_ids), "user_code": np.asarray(user_code, np.int64),
                  "item_ids": tuple(item_ids), "item_code": np.asarray(item_code, np.int64),
                  "rating": np.asarray(rating, np.float64),
                  "timestamp": np.asarray(timestamp, np.int64)}
        if len({v.shape for v in fields.values() if isinstance(v, np.ndarray)}) != 1:
            raise ValueError("Ratings columns differ in length")
        for name, value in fields.items():
            object.__setattr__(self, name, value)

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
    are skipped. Timestamps are integers from 0 to the int64 maximum. A
    movielens-dat log's ids are coded from their bytes, each distinct id
    decoded once. The first faulty line in file order raises a ParseError."""
    if format not in _FORMATS:
        raise ConfigError(f"unknown format {format!r}, expected one of {_FORMATS}")
    amazon = format == "amazon-csv"
    cols = [c.strip() for c in amazon_columns.split(",")] if amazon else list(_COLUMNS)
    if sorted(cols) != sorted(_COLUMNS):
        raise ConfigError(f"bad amazon column order {amazon_columns!r}")
    pick = [cols.index(name) for name in _COLUMNS]
    try:
        if amazon:
            fields = _csv_fields(path)
            user, item, rating, timestamp = (fields[k::4] for k in pick)
            ratings = Ratings(user, item, list(map(float, rating)), list(map(int, timestamp)))
        else:
            with open(path, "rb") as fh:
                ratings = _parse_dat(fh.read())
        if not (np.isfinite(ratings.rating).all() and (ratings.timestamp >= 0).all()):
            raise ValueError("a non-finite rating or a negative timestamp")
        return ratings
    except (ValueError, OverflowError, csv.Error):   # a UnicodeDecodeError is a ValueError
        _raise_first_fault(path, amazon, pick)
        raise


def _csv_fields(path):
    """Every field of a CSV file's non-empty records, flat and in file order;
    a ValueError if one of those records does not have 4 fields."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = [row for row in csv.reader(fh) if row]
    if not set(map(len, rows)) <= {4}:
        raise ValueError("a record without 4 fields")
    return list(chain.from_iterable(rows))


def _parse_dat(raw):
    """Ratings from the bytes of a movielens-dat log; a ValueError or an
    OverflowError if a line is faulty.

    Lines end at \\n, \\r\\n or a lone \\r, as text mode reads them, and a
    line's fields lie between its leftmost non-overlapping "::", as str.split
    finds them, so an id ":b" stays whole."""
    buf = np.frombuffer(raw, dtype=np.uint8)
    brk = np.flatnonzero((buf == ord("\n")) | (buf == ord("\r")))
    start, end = np.append(0, brk + 1), np.append(brk, buf.size)
    filled = end > start   # a "\r\n" leaves a blank line between its two bytes
    start, end = start[filled], end[filled]
    colon = buf == ord(":")
    pair = np.flatnonzero(colon[:-1] & colon[1:])   # each "::", overlapping ones too
    run = np.ones(pair.size, dtype=bool)            # a pair not overlapping the one before
    run[1:] = pair[1:] - pair[:-1] != 1
    k = np.arange(pair.size)
    # str.split takes the 1st, 3rd, 5th ... pair of each run of overlapping pairs
    sep = pair[(k - np.maximum.accumulate(np.where(run, k, 0))) % 2 == 0]
    # 3 per line in all, with line k holding separators 3k to 3k + 2, means
    # that every line holds exactly 3
    if sep.size != 3 * start.size or ((sep[::3] < start) | (sep[2::3] >= end)).any():
        raise ValueError("a line without 4 fields")
    sep = sep.reshape(-1, 3).T
    lo, hi = (start, *sep + 2), (*sep, end)   # where each field starts and ends
    return Ratings.coded(*_ids(buf, lo[0], hi[0]), *_ids(buf, lo[1], hi[1]),
                         _numbers(buf, lo[2], hi[2], float, 15),   # exact in a float64
                         _numbers(buf, lo[3], hi[3], int, 18))     # below the int64 maximum


def _by_width(buf, lo, hi):
    """(at, text) for each length of the spans ``buf[lo:hi]``: the indices
    of the spans of that length and their bytes, one row per span."""
    size = hi - lo
    for width in np.flatnonzero(np.bincount(size)).tolist():
        at = np.flatnonzero(size == width)
        yield at, sliding_window_view(buf, width)[lo[at]]


def _ids(buf, lo, hi):
    """The spans ``buf[lo:hi]`` coded as ``_codes`` codes their text: the
    distinct spans as ``str`` in ``sorted()`` order, and each span's position
    among them. A span's key is its length and then its bytes, 4 at a time;
    each distinct span is decoded from UTF-8 once, and only the distinct ids
    are sorted as ``str``."""
    names, code = [], np.empty(lo.size, dtype=np.int64)
    for at, text in _by_width(buf, lo, hi):
        width = text.shape[1]
        words = np.zeros((at.size, 4 * max(1, -(-width // 4))), dtype=np.uint8)
        words[:, :width] = text
        words = words.view(np.uint32)
        key = words[:, 0]
        for word in words.T[1:]:   # rank the bytes so far, then add 4 more
            key = (_rank(key)[0].astype(np.uint64) << 32) | word
        rank, first = _rank(key)
        lines = np.full((first.size, width + 1), ord("\n"), dtype=np.uint8)
        lines[:, :width] = text[first]   # no span holds a "\n"
        code[at] = len(names) + rank
        names += lines.tobytes().decode("utf-8").split("\n")[:-1]
    order = sorted(range(len(names)), key=names.__getitem__)
    position = np.empty(len(names), dtype=np.int64)
    position[order] = np.arange(len(names))
    return [names[k] for k in order], position[code]


def _rank(key):
    """Each key's rank among the distinct keys, and the index of one key of each rank."""
    order = np.argsort(key)
    key = key[order]
    new = np.ones(key.size, dtype=bool)
    new[1:] = key[1:] != key[:-1]
    rank = np.empty(key.size, dtype=np.intp)
    rank[order] = np.cumsum(new) - 1
    return rank, order[new]


def _numbers(buf, lo, hi, convert, digits):
    """``convert`` (float or int) of each span ``buf[lo:hi]``. A span of 1 to
    ``digits`` ASCII digits is read from its bytes; any other goes through
    ``convert`` of its decoded text on its own, so it converts or fails as
    ``convert`` does."""
    value, plain = np.zeros(lo.size, dtype=np.int64), np.zeros(lo.size, dtype=bool)
    for at, text in _by_width(buf, lo, hi):
        if 1 <= text.shape[1] <= digits:
            # one row per digit position; a byte below "0" wraps above 9
            digit = np.subtract(text.T, np.uint8(ord("0")), order="C")
            plain[at] = (digit <= 9).all(axis=0)
            number = np.zeros(at.size, dtype=np.int64)
            for column in digit:
                number = 10 * number + column
            value[at] = number
    if convert is float:
        value = value.astype(np.float64)
    for k in np.flatnonzero(~plain).tolist():   # beyond int64: an OverflowError
        value[k] = convert(buf[lo[k]:hi[k]].tobytes().decode("utf-8"))
    return value


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
    keep = np.flatnonzero(ratings.rating > threshold)   # cheaper than a mask per column
    return Ratings.coded(ratings.user_ids, ratings.user_code[keep], ratings.item_ids,
                         ratings.item_code[keep], np.ones(keep.size), ratings.timestamp[keep])


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

    user, item = ratings.user_code, ratings.item_code
    order = _event_order(user, ratings.timestamp, item, len(ratings.item_ids))
    user, item = user[order], item[order]
    start = np.flatnonzero(np.r_[True, user[1:] != user[:-1]])   # each user's run
    count = np.diff(np.r_[start, user.size])
    rank = np.arange(user.size) - np.repeat(start, count)
    f1, f2, _ = fractions
    part = ((rank >= np.repeat(np.floor(f1 * count), count)).astype(np.int8)
            + (rank >= np.repeat(np.floor((f1 + f2) * count), count)))
    if not (part == 0).any():
        raise ConfigError("empty dataset: no user retains a train event")

    kept_users = np.bincount(user[part == 0], minlength=len(ratings.user_ids)) > 0
    kept_items = np.bincount(item[part == 0], minlength=len(ratings.item_ids)) > 0
    shape = (int(kept_users.sum()), int(kept_items.sum()))
    # validation/test events of dropped users or unseen items vanish with them
    keep = kept_users[user] & kept_items[item]
    cells = (np.cumsum(kept_users)[user] - 1) * shape[1] + np.cumsum(kept_items)[item] - 1
    cells = [_sorted_unique(cells[keep & (part == s)]) for s in range(3)]
    return SplitDataset(*(_matrix(c // shape[1], c % shape[1], shape) for c in cells),
                        user_ids=tuple(compress(ratings.user_ids, kept_users)),
                        item_ids=tuple(compress(ratings.item_ids, kept_items)))


def _event_order(user, timestamp, item, items):
    """The events' order by (user, timestamp, item code), ties in input order,
    as ``np.lexsort((item, timestamp, user))`` gives it, from stable argsorts:
    of each event's timestamp rank and item (codes below ``items``) packed into
    one int64, then of the user codes in their narrowest unsigned dtype, which
    numpy sorts by radix up to 16 bits. Rank and item each stay below 2**31
    for a log under 2**31 events, so the packed key fits."""
    time, _ = _rank(timestamp)
    by_time_item = np.argsort((time << items.bit_length()) | item, kind="stable")
    users = user[by_time_item].astype(np.min_scalar_type(user.max()))
    return by_time_item[np.argsort(users, kind="stable")]


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


def _rows(mat, users):
    """The CSR block of ``mat``'s rows at the index array ``users``, in its
    order: ``mat[users]``'s indptr, indices, data and shape, cut from the CSR
    arrays with a few numpy calls instead of scipy's fancy indexing."""
    ptr = mat.indptr
    lo = ptr[users]
    lens = ptr[users + 1] - lo
    indptr = np.zeros(lens.size + 1, ptr.dtype)
    np.cumsum(lens, out=indptr[1:])
    take = np.arange(indptr[-1]) + np.repeat(lo - indptr[:-1], lens)
    return sp.csr_matrix((mat.data[take], mat.indices[take], indptr),
                         shape=(lens.size, mat.shape[1]))


def save_split(data, out_dir, threshold=None, fractions=(0.5, 0.2, 0.3)):
    """Write train/validation/test CSVs (user_idx,item_idx), each matrix's
    entries row-major, plus a JSON sidecar whose ``content_hash`` keys the
    split's identity and is checked on load. All four files are complete
    before any of them replaces its predecessor.
    """
    os.makedirs(out_dir, exist_ok=True)
    csv_bytes = {}
    for name in _SPLITS:
        mat = getattr(data, name)
        rows = np.repeat(np.arange(mat.shape[0]), np.diff(mat.indptr))
        pair = [*_digits(rows), (ord(","), True), *_digits(mat.indices)]
        csv_bytes[name] = b"user_idx,item_idx\r\n" + _lines(rows.size, pair, b"\r\n")
    sidecar = {
        "num_users": data.shape[0], "num_items": data.shape[1],
        "user_ids": list(data.user_ids), "item_ids": list(data.item_ids),
        "threshold": threshold, "fractions": list(fractions),
        "counts": {name: getattr(data, name).nnz for name in _SPLITS},
        "content_hash": _content_hash([getattr(data, name) for name in _SPLITS]),
    }
    with contextlib.ExitStack() as files:
        for name in _SPLITS:
            fh = files.enter_context(atomic_open(os.path.join(out_dir, f"{name}.csv"), "wb"))
            fh.write(csv_bytes[name])
        fh = files.enter_context(atomic_open(os.path.join(out_dir, "split.json"), "w",
                                             encoding="utf-8"))
        fh.write(json.dumps(sidecar, indent=2, sort_keys=True) + "\n")   # dump writes in pieces


def _digits(values):
    """(byte, kept) of each decimal position of the integers >= 0 ``values``,
    most significant first: each value's digit there, right-aligned, and
    whether it is not a leading zero."""
    return [(ord("0") + values // 10**k % 10, values >= 10**k if k else True)
            for k in reversed(range(len(str(values.max(initial=0)))))]


def _content_hash(mats):
    """SHA-256 of the ``matrix_hash`` digests of the split matrices ``mats``."""
    return hashlib.sha256("".join(map(matrix_hash, mats)).encode()).hexdigest()


def _lines(count, columns, tail):
    """The bytes of ``count`` lines, each its characters of the (byte, kept)
    ``columns``, ``_digits`` positions and fixed ``(byte, True)`` ones, then
    ``tail``: a byte matrix with one column per character position and its
    leading zeros masked out."""
    columns = [*columns, *((byte, True) for byte in tail)]
    text = np.empty((count, len(columns)), dtype=np.uint8)
    kept = np.empty(text.shape, dtype=bool)
    for j, (chars, keep) in enumerate(columns):
        text[:, j], kept[:, j] = chars, keep
    return text[kept].tobytes()


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
    that many distinct strings, an integer ``counts`` entry per split and a
    string ``content_hash``; a ConfigError names the file and the bad key."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            meta = json.load(fh)
        except ValueError as exc:   # malformed JSON or not UTF-8
            raise ConfigError(f"{path} is not readable JSON: {exc}") from None
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
    if not isinstance(meta.get("content_hash"), str):
        raise ConfigError(f"{path}: content_hash must be a string")
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
    row that repeats an earlier row's pair, naming both lines, a file whose
    row count differs from the one split.json records, as a file cut short
    leaves it, and rows whose ``_content_hash`` differs from split.json's."""
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

    mats = [read_csv(name) for name in _SPLITS]
    if _content_hash(mats) != meta["content_hash"]:
        raise ConfigError(f"{os.path.join(out_dir, 'split.json')}: content_hash does not "
                          "match the split's CSV rows; run prep again to rewrite the split")
    return SplitDataset(*mats, user_ids=tuple(meta["user_ids"]), item_ids=tuple(meta["item_ids"]))
