import csv
import hashlib
import io
import json
import math
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings, strategies as st

import oracles
from amarec import cli, dataset
from amarec.dataset import (
    ConfigError,
    ParseError,
    Ratings,
    _event_order,
    _rows,
    _sorted_unique,
    binarize,
    load_split,
    parse_ratings,
    save_split,
    temporal_split,
)
from conftest import event_ids, synthetic_events, write_amazon_file, write_movielens_file

SPLIT_FILES = ("train.csv", "validation.csv", "test.csv", "split.json")


def log(*rows):
    """Ratings from (user, item[, rating[, timestamp]]) rows; rating 1, time 0."""
    rows = [(*row, *(1.0, 0)[len(row) - 2:]) for row in rows]
    return Ratings(*zip(*rows)) if rows else Ratings([], [], [], [])


def rows_of(ratings):
    return list(zip(event_ids(ratings, "user").tolist(), event_ids(ratings, "item").tolist(),
                    ratings.rating.tolist(), ratings.timestamp.tolist()))


class TestParseRatings:
    def test_movielens_line(self, tmp_path):
        p = tmp_path / "ratings.dat"
        p.write_text("1::1193::5::978300760\n")
        assert rows_of(parse_ratings(p, "movielens-dat")) == [("1", "1193", 5.0, 978300760)]

    def test_amazon_line(self, tmp_path):
        p = tmp_path / "ratings.csv"
        p.write_text("B00001,U42,4.0,1400000000\n")
        assert rows_of(parse_ratings(p, "amazon-csv")) == [("U42", "B00001", 4.0, 1400000000)]

    def test_columns(self, tmp_path):
        p = tmp_path / "ratings.dat"
        p.write_text("1::1193::5::978300760\n2::9::3.5::1\n")
        ratings = parse_ratings(p, "movielens-dat")
        assert len(ratings) == 2
        assert ratings.user_code.dtype == ratings.item_code.dtype == np.int64
        assert all(type(v) is str for v in [*ratings.user_ids, *ratings.item_ids])
        assert ratings.rating.dtype == np.float64 and ratings.timestamp.dtype == np.int64

    @pytest.mark.parametrize("format", ["movielens-dat", "amazon-csv"])
    @pytest.mark.parametrize("text", ["", "\n", "\n\r\n\n"], ids=["empty", "newline", "blank"])
    def test_empty_or_blank_file_holds_no_ratings(self, tmp_path, format, text):
        p = tmp_path / "ratings"
        p.write_bytes(text.encode())
        ratings = parse_ratings(p, format)
        assert len(ratings) == 0 and rows_of(ratings) == []
        assert ratings.rating.dtype == np.float64 and ratings.timestamp.dtype == np.int64
        assert len(oracles.parse_ratings_oracle(p, format)) == 0

    def test_columns_must_have_equal_length(self):
        with pytest.raises(ValueError, match="length"):
            Ratings(["u"], ["a", "b"], [1.0], [0])

    def test_missing_field_reports_line_number(self, tmp_path):
        p = tmp_path / "ratings.dat"
        p.write_text("1::1193::5\n")
        with pytest.raises(ParseError) as exc:
            parse_ratings(p, "movielens-dat")
        assert exc.value.line_number == 1

    def test_error_on_later_line(self, tmp_path):
        p = tmp_path / "ratings.dat"
        p.write_text("1::1::5::10\n2::2::oops::20\n")
        with pytest.raises(ParseError) as exc:
            parse_ratings(p, "movielens-dat")
        assert exc.value.line_number == 2

    @pytest.mark.parametrize("timestamp", ["1.7", "2.0", "1e3"])
    def test_non_integer_timestamp_rejected_at_its_line(self, tmp_path, timestamp):
        p = tmp_path / "ratings.dat"
        p.write_text(f"1::1::5::10\n2::2::4::{timestamp}\n")
        with pytest.raises(ParseError, match=timestamp) as exc:
            parse_ratings(p, "movielens-dat")
        assert exc.value.line_number == 2

    def test_first_faulty_line_wins_whatever_its_fault(self, tmp_path):
        p = tmp_path / "ratings.dat"
        p.write_text("1::1::5::10\n2::2::oops::20\n3::3::4::30\n\n4::4::4\n")
        with pytest.raises(ParseError) as exc:
            parse_ratings(p, "movielens-dat")
        assert (exc.value.line_number, str(exc.value)) == (
            2, "line 2: could not convert string to float: 'oops'")

    def test_non_finite_rating_beats_negative_timestamp(self, tmp_path):
        p = tmp_path / "ratings.dat"
        p.write_text("1::1::5::10\n2::2::nan::-5\n3::3::4::-1\n")
        with pytest.raises(ParseError) as exc:
            parse_ratings(p, "movielens-dat")
        assert str(exc.value) == "line 2: non-finite rating 'nan'"

    def test_timestamp_beyond_int64_names_its_line(self, tmp_path):
        # accepted by the per-event path, which kept timestamps as Python ints
        p = tmp_path / "ratings.dat"
        p.write_text(f"1::10::5::{2**63 - 1}\n1::10::5::100000000000000000000000\n")
        with pytest.raises(ParseError, match="beyond int64") as exc:
            parse_ratings(p, "movielens-dat")
        assert exc.value.line_number == 2
        p.write_text(f"1::10::5::{2**63 - 1}\n")
        assert parse_ratings(p, "movielens-dat").timestamp.tolist() == [2**63 - 1]

    @pytest.mark.parametrize("format, line", [("movielens-dat", b"2::2::5::20\n"),
                                              ("amazon-csv", b"B2,U2,5.0,20\n")])
    def test_non_utf8_byte_names_its_line(self, tmp_path, format, line):
        p = tmp_path / "ratings"
        p.write_bytes(line + b"\xff\xfe" + line)
        with pytest.raises(ParseError, match="invalid UTF-8 byte 0xff") as exc:
            parse_ratings(p, format)
        assert exc.value.line_number == 2

    @pytest.mark.parametrize("text, line, value", [
        ('i1,"u\n1",5,10\ni2,u2,5,11\ni3,u3,x,12\n', 4, "x"),
        ('i1,"u\n1",5,10\ni2,u2,5,11\ni3,u3,5,12\n\ni4,"u\n4",y,13\n', 6, "y"),
    ], ids=["after-a-two-line-record", "two-line-record-after-a-blank-line"])
    def test_amazon_fault_names_the_physical_line_its_record_starts_on(self, tmp_path, text,
                                                                       line, value):
        p = tmp_path / "r.csv"
        p.write_text(text)
        for parse in (parse_ratings, oracles.parse_ratings_oracle):
            with pytest.raises(ParseError) as exc:
                parse(p, "amazon-csv")
            assert (exc.value.line_number, str(exc.value)) == (
                line, f"line {line}: could not convert string to float: {value!r}")

    def test_csv_error_names_the_line_its_record_starts_on(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text('i1,u1,5,10\ni2,"u\n' + "x" * 200_000 + '",5,11\n')
        with pytest.raises(ParseError, match="field larger than field limit") as exc:
            parse_ratings(p, "amazon-csv")
        assert exc.value.line_number == 2

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_ratings(tmp_path / "x", "netflix")

    def test_order_preserved(self, tmp_path):
        p = tmp_path / "r.dat"
        p.write_text("2::9::3::5\n1::8::4::1\n")
        assert event_ids(parse_ratings(p, "movielens-dat"), "user").tolist() == ["2", "1"]

    def test_amazon_column_reorder(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("U42,B1,4.0,99\n")
        ratings = parse_ratings(p, "amazon-csv", amazon_columns="user,item,rating,timestamp")
        assert ratings.user_ids == ("U42",) and ratings.item_ids == ("B1",)

    def test_colons_at_field_edges_stay_in_their_line(self, tmp_path):
        p = tmp_path / "r.dat"
        p.write_text("a:::b::5::1:\nc::d::4::2\n")
        with pytest.raises(ParseError, match="'1:'") as exc:
            parse_ratings(p, "movielens-dat")
        assert exc.value.line_number == 1
        p.write_text("a:::b::5::1\n:c::d::4::2\n")
        assert rows_of(parse_ratings(p, "movielens-dat")) == [
            ("a", ":b", 5.0, 1), (":c", "d", 4.0, 2)]


class TestBinarize:
    def test_threshold_three(self):
        out = binarize(log(("u", "a", 3.0), ("u", "b", 4.0), ("u", "c", 5.0)), 3.0)
        assert event_ids(out, "item").tolist() == ["b", "c"]
        assert out.rating.tolist() == [1.0, 1.0]

    @pytest.mark.parametrize("threshold", [math.inf, math.nan])
    def test_inf_and_nan_rejected(self, threshold):
        with pytest.raises(ConfigError, match=f"threshold must be a number below \\+inf, "
                                              f"got {threshold}"):
            binarize(log(("u", "a", 1.0)), threshold)

    def test_minus_inf_keeps_all(self):
        assert len(binarize(log(("u", "a", 1.0), ("u", "b", 5.0)), -math.inf)) == 2

    def test_empty(self):
        assert len(binarize(log(), 3.0)) == 0

    def test_idempotent(self):
        # holds for thresholds below 1, where binary output passes the filter
        ratings = log(*[("u", str(i), float(r), i) for i, r in enumerate([1, 3, 4, 5, 2])])
        for t in (0.0, 0.5):
            once = binarize(ratings, t)
            assert rows_of(binarize(once, t)) == rows_of(once)


class TestTemporalSplit:
    def user_events(self, n, uid="u0"):
        return [(uid, f"i{k:02d}", 1.0, 100 + k) for k in range(n)]

    def test_ten_events_5_2_3(self):
        # anchor user keeps every item in the train index
        anchor = [("anchor", f"i{k % 10:02d}", 1.0, k) for k in range(20)]
        data = temporal_split(log(*self.user_events(10), *anchor))
        u0 = data.user_index["u0"]
        assert (data.train[u0].nnz, data.validation[u0].nnz, data.test[u0].nnz) == (5, 2, 3)

    def test_seven_events_3_1_3(self):
        # items not in train are dropped, so seed items for train coverage
        evs = self.user_events(7)
        anchor = [("u1", item, 1.0, 1) for _, item, _, _ in evs] + [("u1", "extra", 1.0, 2)] * 7
        data = temporal_split(log(*evs, *anchor))
        u0 = data.user_index["u0"]
        assert data.train[u0].nnz == 3
        assert data.validation[u0].nnz == 1
        assert data.test[u0].nnz == 3

    def test_single_event_user_dropped(self):
        data = temporal_split(log(*self.user_events(10, uid="big"), ("tiny", "i00", 1.0, 999)))
        assert "tiny" not in data.user_index
        assert "big" in data.user_index

    def test_items_unseen_in_train_dropped(self):
        # the last items only appear in u0's test portion
        data = temporal_split(log(*self.user_events(10)))
        assert "i09" not in data.item_ids
        assert data.shape[1] == data.train.shape[1]

    def test_rows_hold_their_users_items(self):
        anchor = [("u1", "i1", 1.0, 0), ("u1", "i2", 1.0, 1)]
        data = temporal_split(log(("u0", "i0", 1.0, 0), ("u0", "i2", 1.0, 1), *anchor),
                              fractions=(1.0, 0.0, 0.0))
        assert data.shape == (2, 3)
        assert data.train[data.user_index["u0"]].indices.tolist() == [0, 2]

    def test_duplicates_collapse(self):
        # both copies count toward N = 4, so both land in the 2-event train cut
        data = temporal_split(log(("u0", "i0", 1.0, 1), ("u0", "i0", 1.0, 2),
                                  ("u0", "i1", 1.0, 3), ("u0", "i2", 1.0, 4)),
                              fractions=(0.5, 0.5, 0.0))
        assert data.train.nnz == 1 and data.train[0, 0] == 1.0
        assert data.validation.nnz == 0 and data.shape == (1, 1)

    def test_empty_matrices_keep_the_shape(self):
        data = temporal_split(log(("a", "x", 1.0, 1), ("b", "y", 1.0, 1)),
                              fractions=(1.0, 0.0, 0.0))
        for mat in (data.validation, data.test):
            assert mat.shape == (2, 2) and mat.nnz == 0

    def test_ids_sort_as_strings_and_nul_ids_stay_distinct(self):
        data = temporal_split(log(*[(u, i, 1.0, 0) for u in ("9", "10", "a\x00", "a")
                                    for i in ("b", "b\x00", "É")]), fractions=(1.0, 0.0, 0.0))
        assert data.user_ids == ("10", "9", "a", "a\x00")
        assert data.item_ids == ("b", "b\x00", "É")
        assert data.train.nnz == 12

    def test_empty_events_error(self):
        with pytest.raises(ConfigError):
            temporal_split(log())

    def test_bad_fractions(self):
        with pytest.raises(ConfigError):
            temporal_split(log(*self.user_events(4)), fractions=(0.5, 0.2, 0.2))

    @pytest.mark.parametrize("fractions", [(math.nan, 0.2, 0.3), (0.5, math.nan, 0.3),
                                           (0.5, 0.2, math.inf)])
    def test_non_finite_fractions_named(self, fractions):
        with pytest.raises(ConfigError, match=r"bad fractions \(") as exc:
            temporal_split(log(*self.user_events(4)), fractions=fractions)
        assert str(fractions) in str(exc.value)

    def test_partition_and_monotonic(self):
        events = binarize(synthetic_events(seed=11), 2)
        data = temporal_split(events)
        # pairwise disjoint
        for a, b in [(data.train, data.validation), (data.train, data.test),
                     (data.validation, data.test)]:
            assert (a.multiply(b)).nnz == 0
        # temporal order per user, ties broken by item id
        by_user = {}
        for uid, item, _, ts in sorted(rows_of(events), key=lambda e: (e[0], e[3], e[1])):
            by_user.setdefault(uid, []).append((item, ts))
        for uid, evs in by_user.items():
            if uid not in data.user_index:
                continue
            u = data.user_index[uid]
            n = len(evs)
            n_train = math.floor(0.5 * n)
            n_val = math.floor(0.7 * n) - n_train
            train_ts = [ts for _, ts in evs[:n_train]]
            val_ts = [ts for _, ts in evs[n_train:n_train + n_val]]
            test_ts = [ts for _, ts in evs[n_train + n_val:]]
            if train_ts and val_ts:
                assert max(train_ts) <= min(val_ts)
            if val_ts and test_ts:
                assert max(val_ts) <= min(test_ts)
            # train events all kept
            assert data.train[u].nnz == len({item for item, _ in evs[:n_train]})

    def test_deterministic_files(self, tmp_path):
        events = binarize(synthetic_events(seed=3), 2)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        save_split(temporal_split(events), out1, threshold=2)
        copy = Ratings(list(event_ids(events, "user")), list(event_ids(events, "item")),
                       events.rating.tolist(), events.timestamp.tolist())
        save_split(temporal_split(copy), out2, threshold=2)
        for name in SPLIT_FILES:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


# ----------------------------------------------------- against the list oracle
# Small random logs with the cases the split must survive: duplicate pairs,
# equal timestamps, rating-3 ties, single-event users, items seen only after
# the train cut, blank lines, CRLF endings and ids that sort or merge oddly.

IDS = ["1", "01", "10", "9", "\u00c9", "a", "a\x00", ":b", "x\u2028y", " s", "\u00fc"]
RATINGS = ["1", "2", "3", "3.0", "4", "4.5", "5", " 5", "5.0"]
FORMATS = ["movielens-dat", "amazon-csv"]
COLUMN_ORDERS = ["item,user,rating,timestamp", "user,item,rating,timestamp",
                 "timestamp,rating,item,user"]


def random_lines(rng, amazon_ids=False):
    """(user, item, rating, timestamp) string rows of a small random log. Ids
    are picked by index: a numpy array of them would drop the trailing NUL."""
    # in a "::" line an id "a:" would split as "a" and ":..."; CSV quotes the
    # rest, and a quoted "n\nl" makes a record span two physical lines
    pool = IDS + (['q,"r"', "c,d", "a:", "n\nl"] if amazon_ids else [])

    def pick(values, size=None):
        chosen = rng.choice(len(values), size=size or 1, replace=False).tolist()
        return [values[k] for k in chosen] if size else values[chosen[0]]

    users, items = pick(pool, int(rng.integers(1, 7))), pick(pool, int(rng.integers(1, 9)))
    rows = []
    for user in users:
        t = int(rng.integers(0, 5))
        for _ in range(int(rng.integers(1, 12))):   # duplicates, single-event users
            t += int(rng.integers(0, 3))            # equal timestamps
            rows.append([user, pick(items), pick(RATINGS), str(t)])
    late = [u for u in users if rng.random() < 0.5]   # items only after every train cut
    rows += [[u, f"late{k % 2}", "5", "99"] for k, u in enumerate(late)]
    rng.shuffle(rows)
    return rows


def write_log(path, rows, format, columns, rng):
    """Write rows in ``format``, with random blank lines and CRLF endings."""
    order = [columns.split(",").index(c) for c in ("user", "item", "rating", "timestamp")]
    out = io.StringIO(newline="")
    for row in rows:
        ending = "\r\n" if rng.random() < 0.3 else "\n"
        if rng.random() < 0.1:
            out.write(ending)
        if format == "movielens-dat":
            out.write("::".join(row) + ending)
        else:   # a row without 4 fields is a fault, written as it is
            fields = [row[order.index(pos)] for pos in range(4)] if len(row) == 4 else row
            csv.writer(out, lineterminator=ending).writerow(fields)
    Path(path).write_bytes(out.getvalue().encode("utf-8"))


def outcome(run):
    """A callable's files or its error, as comparable values."""
    try:
        return ("ok", run())
    except (ParseError, ConfigError) as exc:
        return (type(exc).__name__, getattr(exc, "line_number", None), str(exc))


def prep_both(path, format, columns, fractions, out):
    """Columnar and list-oracle prep of one file; each side's files or error."""
    def new():
        ratings = parse_ratings(path, format, amazon_columns=columns)
        kept = binarize(ratings, 3.0)
        save_split(temporal_split(kept, fractions), out / "new", 3.0, fractions)
        return len(ratings), len(kept), rows_of(ratings), read_files(out / "new")

    def old():
        events = oracles.parse_ratings_oracle(path, format, amazon_columns=columns)
        kept = oracles.binarize_oracle(events, 3.0)
        oracles.save_split_oracle(oracles.temporal_split_oracle(kept, fractions), out / "old",
                                  3.0, fractions)
        rows = [(e.user_id, e.item_id, e.rating, e.timestamp) for e in events]
        return len(events), len(kept), rows, read_files(out / "old")

    return outcome(new), outcome(old)


def read_files(out):
    return {name: (out / name).read_bytes() for name in SPLIT_FILES}


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 100_000), format=st.sampled_from(FORMATS),
       columns=st.sampled_from(COLUMN_ORDERS),
       fractions=st.sampled_from([(0.5, 0.2, 0.3), (0.3, 0.3, 0.4), (0.6, 0.4, 0.0),
                                  (1.0, 0.0, 0.0), (0.1, 0.1, 0.8), (0.7, 0.1, 0.2)]))
@example(seed=0, format="movielens-dat", columns=COLUMN_ORDERS[0], fractions=(0.5, 0.2, 0.3))
@example(seed=5, format="amazon-csv", columns=COLUMN_ORDERS[2], fractions=(0.7, 0.1, 0.2))
def test_split_files_match_the_list_oracle(seed, format, columns, fractions):
    rng = np.random.default_rng(seed)
    rows = random_lines(rng, amazon_ids=format == "amazon-csv")
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        write_log(tmp / "ratings", rows, format, columns, rng)
        new, old = prep_both(tmp / "ratings", format, columns, fractions, tmp)
    assert new[0] != "ParseError"
    assert new == old


@settings(max_examples=200, deadline=None)
@given(cells=st.lists(st.integers(0, 40), max_size=60))
@example(cells=[])                  # an empty part
@example(cells=[7, 7, 7])           # one cell, repeated
def test_split_cells_dedupe_as_np_unique(cells):
    # temporal_split dedupes each part's cell codes (row * n + column) with
    # _sorted_unique; codes drawn from a small range repeat often
    cells = np.array(cells, dtype=np.int64)
    got, want = _sorted_unique(cells), np.unique(cells)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@st.composite
def row_blocks(draw):
    """A CSR matrix, about a third of whose rows are empty, with unsorted
    indices and distinct data values, and an index array of its rows: any
    order, repeats allowed."""
    m, n = draw(st.integers(1, 9)), draw(st.integers(1, 12))
    rows = [draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
            if draw(st.integers(0, 2)) else [] for _ in range(m)]
    indptr = np.cumsum([0] + [len(r) for r in rows])
    indices = np.array([j for r in rows for j in r], dtype=np.int32)
    mat = sp.csr_matrix((np.arange(1.0, indices.size + 1), indices, indptr), shape=(m, n))
    users = draw(st.one_of(st.lists(st.integers(0, m - 1), max_size=2 * m),
                           st.just(list(range(m)))))
    return mat, np.array(users, dtype=np.intp)


@settings(max_examples=200, deadline=None)
@given(case=row_blocks())
@example(case=(sp.csr_matrix((2, 3)), np.array([1], dtype=np.intp)))   # one empty row
@example(case=(sp.csr_matrix(np.eye(3)), np.array([2], dtype=np.intp)))   # one user
@example(case=(sp.csr_matrix(np.eye(3)), np.array([], dtype=np.intp)))   # no user
def test_row_cut_equals_scipy_indexing(case):
    # evaluate, explain and training cut their blocks with _rows
    mat, users = case
    got, want = _rows(mat, users), mat[users]
    assert got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


FAULTS = {   # column -> faulty values; each is a fault the list oracle reports too
    "rating": ["oops", "", "nan", "inf", "-inf", "1e400", "1,5"],
    "timestamp": ["1.7", "1e3", "", "-5", "x", "-0.5"],
}


@pytest.mark.parametrize("format", FORMATS)
@pytest.mark.parametrize("text", ["", "\r\n\n"], ids=["empty", "blank"])
def test_empty_file_matches_the_list_oracle(tmp_path, format, text):
    (tmp_path / "ratings").write_bytes(text.encode())
    new, old = prep_both(tmp_path / "ratings", format, COLUMN_ORDERS[0], (0.5, 0.2, 0.3),
                         tmp_path)
    assert new == old == ("ConfigError", None, "empty event list")


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 100_000), format=st.sampled_from(FORMATS),
       columns=st.sampled_from(COLUMN_ORDERS), faults=st.integers(1, 3))
def test_faults_match_the_list_oracle(seed, format, columns, faults):
    rng = np.random.default_rng(seed)
    rows = random_lines(rng, amazon_ids=format == "amazon-csv")
    for at in rng.choice(len(rows), size=min(faults, len(rows)), replace=False):
        row = rows[at]
        kind = rng.integers(4)
        if kind == 0:
            row.pop()                        # too few fields
        elif kind == 1:
            row.append("7")                  # too many fields
        else:
            column = ["rating", "timestamp"][kind - 2]
            values = FAULTS[column]
            row[2 if column == "rating" else 3] = values[int(rng.integers(len(values)))]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        write_log(tmp / "ratings", rows, format, columns, rng)
        new, old = prep_both(tmp / "ratings", format, columns, (0.5, 0.2, 0.3), tmp)
    assert new[0] == "ParseError"
    assert new == old


# ------------------------------------------- the movielens-dat byte parser
# parse_ratings reads a movielens-dat log from its bytes; the list oracle
# reads it in text mode with str.split("::"). Each case compares the two.


def parse_both(path):
    """The library's and the list oracle's parse of a movielens-dat file, as
    rows or as the error each raises."""
    def oracle():
        events = oracles.parse_ratings_oracle(path, "movielens-dat")
        return [(e.user_id, e.item_id, e.rating, e.timestamp) for e in events]

    return outcome(lambda: rows_of(parse_ratings(path, "movielens-dat"))), outcome(oracle)


def write_dat(tmp_path, data):
    path = tmp_path / "r.dat"
    path.write_bytes(data.encode("utf-8") if isinstance(data, str) else data)
    return path


@pytest.mark.parametrize("text", [
    "1::a::5::3\r2::b::4::4\r",                # a lone \r ends a line
    "1::a::5::3\r\r\n2::b::4::4\r\r\n",        # \r\r\n: a line, then a blank one
    "\r\r\n\n1::a::5::3\n\r2::b::4::4",        # blank lines first, no final break
    "1::a::5::3\r\r\n\r2::b::x::4\r\n",        # a fault on line 4, counted as text mode does
    "1::a::5::3\r\r2::b::4\r\n",               # a line with 3 fields after lone \r
])
def test_line_endings_match_the_oracle(tmp_path, text):
    new, old = parse_both(write_dat(tmp_path, text))
    assert new == old


@pytest.mark.parametrize("line", [
    "a:::b::5::3",       # ["a", ":b", "5", "3"]
    ":a::b::5::3",       # a user ":a"
    "::b::5::3",         # an empty user
    "a::::b::5::3",      # an empty field, then 5 fields
    "a:::::b::5::3",     # 5 colons: "a", "", ":b", ...
    "a::b:::5::3",       # rating ":5"
    "a::b::5:::3",       # timestamp ":3"
    "a::b::5::3:::",     # 5 fields, the last ":"
    "::::::",            # 4 empty fields
    ":::::::",           # 7 colons: "", "", "", ":"
    "a::b::5::3::",      # 5 fields
])
def test_colon_runs_split_as_str_split(tmp_path, line):
    new, old = parse_both(write_dat(tmp_path, f"1::x::4::1\n{line}\n"))
    assert new == old


def test_ids_of_every_width_match_and_share_one_str(tmp_path):
    # ids of 1 to 20 bytes, pairs alike but for a byte in their 2nd or 5th
    # 4-byte word, non-ASCII ids and ids ending in NUL
    ids = ["a" * k for k in range(1, 21)] + ["b" * k + "\x00" for k in range(0, 20)]
    ids += ["x" * 19 + c for c in "yz"] + ["xxxx" + c + "x" * 10 for c in "yz"]
    ids += ["é" * k for k in range(1, 11)] + ["É\x00", "É", "\U0001f600x"]
    rng = np.random.default_rng(0)
    lines = [f"{ids[u]}::{ids[i]}::5::{t}" for t, (u, i) in
             enumerate(rng.integers(len(ids), size=(400, 2)).tolist())]
    path = write_dat(tmp_path, "\n".join(lines))
    new, old = parse_both(path)
    assert new == old and new[0] == "ok"
    ratings = parse_ratings(path, "movielens-dat")
    for column in (event_ids(ratings, "user"), event_ids(ratings, "item")):
        assert len({id(v) for v in column}) == len(set(column.tolist()))


RATING_NUMERALS = ["5", " 5 ", "5.", "+5", "1_0", "٣", "-0", "0000000000000000005", "4.5",
                   "5e0", ".5"]
TIMESTAMP_NUMERALS = ["3", " 3 ", "3.", "+3", "1_0", "٣", "-0", "007", "999999999999999999",
                      "9223372036854775807", "9223372036854775808", "000000000000000000001"]


@pytest.mark.parametrize("rating, timestamp", [(r, "3") for r in RATING_NUMERALS]
                         + [("5", t) for t in TIMESTAMP_NUMERALS])
def test_numerals_that_float_or_int_read_match(tmp_path, rating, timestamp):
    new, old = parse_both(write_dat(tmp_path, f"1::a::4::2\nu::i::{rating}::{timestamp}\n"))
    if timestamp == "9223372036854775808":   # beyond int64, which the oracle does not check
        assert new[:2] == ("ParseError", 2) and "beyond int64" in new[2]
    else:
        assert new == old


@pytest.mark.parametrize("line, byte", [
    (b"2::b\xff::4::4", "0xff"), (b"2\xc3::b::4::4", "0xc3"),   # an id; a cut sequence
    (b"2::b::4\xff::4", "0xff"), (b"2::b::4::4\xe2\x82", "0xe2"),
])
def test_non_utf8_byte_in_any_field_names_its_line(tmp_path, line, byte):
    # the list oracle reads text, so it cannot hold such a file
    path = write_dat(tmp_path, b"1::a::5::3\n" + line + b"\n")
    with pytest.raises(ParseError, match=f"^line 2: invalid UTF-8 byte {byte}$"):
        parse_ratings(path, "movielens-dat")


@settings(max_examples=150, deadline=None)
@given(pieces=st.lists(st.sampled_from(["::", ":", "1", "5", "a", "é", "\x00", " ", "\r",
                                         "\n", "\r\n"]), max_size=40))
def test_any_text_of_separators_and_breaks_matches_the_oracle(pieces):
    text = "".join(pieces)
    with tempfile.TemporaryDirectory() as tmp:
        new, old = parse_both(write_dat(Path(tmp), text))
    assert new == old


ID_TEXT = st.lists(st.sampled_from([":", "a", "é", "\x00", " ", "1", "::"]),
                   max_size=3).map("".join)
NUMERALS = ["5", "12", " 5", "5.", "+5", "1_0", "٣", "-3", "", ":5", "x", "0" * 19 + "7"]


@settings(max_examples=150, deadline=None)
@given(lines=st.lists(st.tuples(ID_TEXT, ID_TEXT, st.sampled_from(NUMERALS),
                                st.sampled_from(NUMERALS),
                                st.sampled_from(["\n", "\r\n", "\r", "\r\r\n", ""])),
                      max_size=8))
def test_random_logs_match_the_oracle(lines):
    # a line ending "" runs the line into the next one
    text = "".join("::".join(fields) + end for *fields, end in lines)
    with tempfile.TemporaryDirectory() as tmp:
        new, old = parse_both(write_dat(Path(tmp), text))
    assert new == old


def test_bench_tiny_log_split_matches_the_list_oracle(tmp_path):
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
    try:
        import gen
    finally:
        sys.path.pop(0)
    tiny = replace(gen.ML1M, users=60, items=300, mean_extra=20.0, singletons=3,
                   late_items=4)   # the bench's self-test shape
    gen.write_movielens(tmp_path / "ratings.dat", tiny, 3)
    new, old = prep_both(tmp_path / "ratings.dat", "movielens-dat", COLUMN_ORDERS[0],
                         (0.5, 0.2, 0.3), tmp_path)
    assert new[0] == "ok" and new == old


# ------------------------------------------------- coded ids against lexsort
# temporal_split reads each event's id codes and orders the events with
# int64 argsorts; the oracle codes the str ids with a dict and takes one
# lexsort. A movielens-dat log's codes come from its parser instead.

SPLIT_IDS = ["1", "9", "10", "01", "\u00c9", "\u00fc", "\u65e5\u672c", "a:b", ":b", "a\x00",
             "a"]
TIMESTAMPS = st.one_of(st.integers(0, 3), st.sampled_from([2**62, 2**63 - 2, 2**63 - 1]),
                       st.integers(0, 2**63 - 1))


def split_parts(data):
    return (data.shape, data.user_ids, data.item_ids,
            *[(m.indptr.tolist(), m.indices.tolist()) for m in
              (data.train, data.validation, data.test)])


@settings(max_examples=200, deadline=None)
@given(events=st.lists(st.tuples(st.sampled_from(SPLIT_IDS), st.sampled_from(SPLIT_IDS),
                                 TIMESTAMPS), min_size=1, max_size=40),
       fractions=st.sampled_from([(0.5, 0.2, 0.3), (1.0, 0.0, 0.0), (0.3, 0.3, 0.4),
                                  (0.0, 0.5, 0.5)]))
@example(events=[("9", "a", 5), ("9", "b", 5), ("9", "a", 5), ("9", "10", 2**63 - 1)],
         fractions=(0.5, 0.2, 0.3))   # one user; a duplicate event; a timestamp tie
@example(events=[("10", "x", 1), ("9", "x", 0), ("1", "x", 1), ("10", "x", 0)],
         fractions=(0.5, 0.2, 0.3))   # one item
@example(events=[("a", "1", 0)], fractions=(0.5, 0.2, 0.3))   # no train event
def test_coded_split_matches_the_lexsort_oracle(events, fractions):
    ratings = log(*[(u, i, 1.0, t) for u, i, t in events])
    want = outcome(lambda: split_parts(oracles.temporal_split_lexsort_oracle(ratings,
                                                                             fractions)))
    assert outcome(lambda: split_parts(temporal_split(ratings, fractions))) == want
    # the same log from the parser's codes
    with tempfile.TemporaryDirectory() as tmp:
        path = write_dat(Path(tmp), "".join(f"{u}::{i}::5::{t}\n" for u, i, t in events))
        parsed = parse_ratings(path, "movielens-dat")
    assert (parsed.user_ids, parsed.item_ids) == (ratings.user_ids, ratings.item_ids)
    assert parsed.user_code.tolist() == ratings.user_code.tolist()
    assert parsed.item_code.tolist() == ratings.item_code.tolist()
    assert outcome(lambda: split_parts(temporal_split(parsed, fractions))) == want


@pytest.mark.parametrize("users", [300, 2**16, 2**16 + 150, 2**32 + 150])
def test_event_order_is_the_lexsort_order(users):
    # the user codes sort in the narrowest unsigned dtype that holds them:
    # uint16 up to 2**16 users, which numpy sorts by radix, and wider above;
    # the top 300 codes (across 2**16 or 2**32 in the wider cases) share
    # 20,000 events with tied timestamps and repeated items
    rng = np.random.default_rng(users % 997)
    user = rng.integers(users - 300, users, 20_000)
    timestamp = rng.integers(0, 40, user.size) * 2**40
    item = rng.integers(0, 30, user.size)
    order = _event_order(user, timestamp, item, 30)
    assert order.tolist() == np.lexsort((item, timestamp, user)).tolist()


# SHA-256 of prep's four files for conftest's synthetic log, written in
# either format, at the default threshold and fractions, as the str-coding
# prep wrote them: a change to the files must be made on purpose.
PREP_GOLDEN = {
    "train.csv": "e34ba8a5a070f77bd65152ba10a42b9faaedf6fc6b3439c45364ac044cfd4a5d",
    "validation.csv": "62981579b35bb552eb024bc704b6c4df694a546091504d973f0dd5de8e8e2fb8",
    "test.csv": "b662bf608f39bfe0fd02161a8b12a030c8193792ecadbb9037791079f49c2d9a",
    "split.json": "d60314c13a211f754adbe075e7aaed48fe295c1784c393139bc35e4ed539df13",
}


def prep_synthetic_log(tmp_path, format):
    path = tmp_path / "ratings"
    writer = write_movielens_file if format == "movielens-dat" else write_amazon_file
    writer(path, synthetic_events())
    return lambda: cli.main(["prep", "--input", str(path), "--format", format,
                             "--out", str(tmp_path / "split")])


@pytest.mark.parametrize("format", FORMATS)
def test_prep_files_keep_their_pinned_hashes(tmp_path, format):
    assert prep_synthetic_log(tmp_path, format)() == 0
    digests = {name: hashlib.sha256((tmp_path / "split" / name).read_bytes()).hexdigest()
               for name in SPLIT_FILES}
    assert digests == PREP_GOLDEN


@pytest.mark.parametrize("format", FORMATS)
def test_prep_codes_str_ids_only_for_a_csv_log(tmp_path, monkeypatch, format):
    # a movielens-dat log's ids are coded by its parser; an amazon-csv log's
    # by one _codes call per id column
    prep, events = prep_synthetic_log(tmp_path, format), len(synthetic_events())
    codes, calls = dataset._codes, []

    def counted(ids):
        if format == "movielens-dat":
            raise AssertionError("a movielens-dat prep coded str ids")
        calls.append(len(ids))
        return codes(ids)

    monkeypatch.setattr(dataset, "_codes", counted)
    assert prep() == 0
    assert calls == ([] if format == "movielens-dat" else [events] * 2)


def test_save_load_roundtrip(tmp_path, tiny_split):
    save_split(tiny_split, tmp_path / "out", threshold=2)
    loaded = load_split(tmp_path / "out")
    assert loaded.user_ids == tiny_split.user_ids
    assert loaded.item_ids == tiny_split.item_ids
    for name in ("train", "validation", "test"):
        a, b = getattr(loaded, name), getattr(tiny_split, name)
        assert (a != b).nnz == 0
    save_split(loaded, tmp_path / "again", threshold=2)
    assert read_files(tmp_path / "again") == read_files(tmp_path / "out")
    meta = json.loads((tmp_path / "out" / "split.json").read_text())
    assert meta["content_hash"] == oracles.split_content_hash(loaded)


@pytest.mark.parametrize("row", ["0,99999", "-1,0"])
def test_out_of_range_index_names_file_and_line(tmp_path, tiny_split, row):
    save_split(tiny_split, tmp_path / "out", threshold=2)
    path = tmp_path / "out" / "train.csv"
    lines = path.read_text().splitlines(keepends=True)
    lines[3] = row + "\n"   # line 4; the entry count still matches split.json
    path.write_text("".join(lines))
    with pytest.raises(ParseError) as exc:
        load_split(tmp_path / "out")
    assert exc.value.line_number == 4
    assert str(path) in str(exc.value) and row in str(exc.value)


@pytest.mark.parametrize("name", ["train", "test"])
@pytest.mark.parametrize("repeat, line", [
    (lambda lines: lines.insert(3, lines[2]), 4),           # one row more than counts records
    (lambda lines: lines.__setitem__(4, lines[2]), 5),      # as many rows as counts records
], ids=["inserted", "replacing"])
def test_repeated_row_names_file_and_both_lines(tmp_path, tiny_split, name, repeat, line):
    save_split(tiny_split, tmp_path / "out", threshold=2)
    path = tmp_path / "out" / f"{name}.csv"
    lines = path.read_text().splitlines(keepends=True)
    assert len(lines) > 5
    row = lines[2].strip()
    repeat(lines)   # line 3's row again
    path.write_text("".join(lines))
    with pytest.raises(ParseError) as exc:
        load_split(tmp_path / "out")
    assert exc.value.line_number == line
    assert str(exc.value) == f"line {line}: {path}: row {row} repeats line 3"


@pytest.mark.parametrize("edit", [lambda text: text.replace("\r\n", "\n"),
                                  lambda text: text.rstrip("\r\n")],
                         ids=["lf-endings", "no-final-line-break"])
def test_line_endings_load_identical_matrices(tmp_path, tiny_split, edit):
    save_split(tiny_split, tmp_path / "out", threshold=2)
    for name in ("train", "validation", "test"):
        path = tmp_path / "out" / f"{name}.csv"
        path.write_bytes(edit(path.read_bytes().decode()).encode())
    loaded = load_split(tmp_path / "out")
    for name in ("train", "validation", "test"):
        a, b = getattr(loaded, name), getattr(tiny_split, name)
        assert a.shape == b.shape
        for field in ("indptr", "indices", "data"):
            assert getattr(a, field).tolist() == getattr(b, field).tolist()


@pytest.mark.parametrize("name, row", [("train", ""), ("train", "3,4,5"),
                                       ("validation", "2.0,1"), ("test", "1,2.0")])
def test_malformed_row_names_file_and_line(tmp_path, tiny_split, name, row):
    save_split(tiny_split, tmp_path / "out", threshold=2)
    path = tmp_path / "out" / f"{name}.csv"
    lines = path.read_text().splitlines(keepends=True)
    lines[2] = row + "\r\n"   # line 3
    path.write_text("".join(lines))
    with pytest.raises(ParseError) as exc:
        load_split(tmp_path / "out")
    assert exc.value.line_number == 3
    assert f"{path}: expected user_idx,item_idx, got {row!r}" in str(exc.value)


@pytest.mark.parametrize("edit, message", [
    (lambda meta: meta["item_ids"].pop(), "item_ids lists {n_1} ids, but num_items is {n}"),
    (lambda meta: meta["user_ids"].pop(), "user_ids lists {m_1} ids, but num_users is {m}"),
    (lambda meta: meta["user_ids"].__setitem__(0, 7), "user_ids must be a list of id strings"),
    (lambda meta: meta.update(item_ids="abc"), "item_ids must be a list of id strings"),
    (lambda meta: meta.update(num_users="3"), "num_users must be an integer >= 0, got '3'"),
    (lambda meta: meta.update(num_items=-1), "num_items must be an integer >= 0, got -1"),
    (lambda meta: meta.pop("counts"), "counts must give an integer >= 0 for train"),
    (lambda meta: meta["counts"].pop("test"), "counts must give an integer >= 0 for test"),
    (lambda meta: meta["counts"].update(validation=2.0),
     "counts must give an integer >= 0 for validation"),
    (lambda meta: meta["user_ids"].__setitem__(2, meta["user_ids"][1]),
     "user_ids repeats the id {u1!r}"),
    (lambda meta: meta["item_ids"].__setitem__(-1, meta["item_ids"][0]),
     "item_ids repeats the id {i0!r}"),
], ids=["short-item-ids", "short-user-ids", "int-user-id", "string-item-ids",
        "string-num-users", "negative-num-items", "no-counts", "no-test-count",
        "float-count", "repeated-user-id", "repeated-item-id"])
def test_malformed_split_json_rejected_before_any_csv(tmp_path, tiny_split, edit, message):
    save_split(tiny_split, tmp_path / "out", threshold=2)
    path = tmp_path / "out" / "split.json"
    meta = json.loads(path.read_text())
    edit(meta)
    path.write_text(json.dumps(meta))
    for name in ("train", "validation", "test"):
        (tmp_path / "out" / f"{name}.csv").unlink()
    m, n = tiny_split.shape
    with pytest.raises(ConfigError) as exc:
        load_split(tmp_path / "out")
    assert str(exc.value) == f"{path}: " + message.format(m=m, n=n, m_1=m - 1, n_1=n - 1,
                                                          u1=tiny_split.user_ids[1],
                                                          i0=tiny_split.item_ids[0])


def test_split_json_that_is_not_an_object_rejected(tmp_path, tiny_split):
    save_split(tiny_split, tmp_path / "out", threshold=2)
    path = tmp_path / "out" / "split.json"
    path.write_text("[]\n")
    with pytest.raises(ConfigError, match="is not a JSON object"):
        load_split(tmp_path / "out")


@pytest.mark.parametrize("text", [b"{oops", b"\xff{}"], ids=["truncated", "not-utf-8"])
def test_unreadable_split_json_names_the_file(tmp_path, tiny_split, capsys, text):
    save_split(tiny_split, tmp_path / "out", threshold=2)
    path = tmp_path / "out" / "split.json"
    path.write_bytes(text)
    assert cli.main(["evaluate", "--data", str(tmp_path / "out"), "--baseline", "pop"]) == 1
    assert capsys.readouterr().err.startswith(f"error: {path} is not readable JSON: ")


def test_empty_file_names_the_file(tmp_path, tiny_split):
    save_split(tiny_split, tmp_path / "out", threshold=2)
    path = tmp_path / "out" / "validation.csv"
    path.write_bytes(b"")
    with pytest.raises(ParseError) as exc:
        load_split(tmp_path / "out")
    assert exc.value.line_number == 1
    assert f"{path}: empty file" in str(exc.value)
