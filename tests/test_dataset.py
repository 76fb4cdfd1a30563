import math

import pytest

from amarec.dataset import (
    ConfigError,
    ParseError,
    RatingEvent,
    binarize,
    build_matrix,
    load_split,
    parse_ratings,
    save_split,
    split_content_hash,
    temporal_split,
)
from conftest import synthetic_events


def ev(user, item, rating=1.0, ts=0):
    return RatingEvent(user, item, rating, ts)


class TestParseRatings:
    def test_movielens_line(self, tmp_path):
        p = tmp_path / "ratings.dat"
        p.write_text("1::1193::5::978300760\n")
        events = parse_ratings(p, "movielens-dat")
        assert events == [RatingEvent("1", "1193", 5.0, 978300760)]

    def test_amazon_line(self, tmp_path):
        p = tmp_path / "ratings.csv"
        p.write_text("B00001,U42,4.0,1400000000\n")
        events = parse_ratings(p, "amazon-csv")
        assert events == [RatingEvent("U42", "B00001", 4.0, 1400000000)]

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

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_ratings(tmp_path / "x", "netflix")

    def test_order_preserved(self, tmp_path):
        p = tmp_path / "r.dat"
        p.write_text("2::9::3::5\n1::8::4::1\n")
        events = parse_ratings(p, "movielens-dat")
        assert [e.user_id for e in events] == ["2", "1"]

    def test_amazon_column_reorder(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("U42,B1,4.0,99\n")
        events = parse_ratings(p, "amazon-csv",
                               amazon_columns="user,item,rating,timestamp")
        assert events[0].user_id == "U42" and events[0].item_id == "B1"


class TestBinarize:
    def test_threshold_three(self):
        events = [ev("u", "a", 3.0), ev("u", "b", 4.0), ev("u", "c", 5.0)]
        out = binarize(events, 3.0)
        assert [e.item_id for e in out] == ["b", "c"]
        assert all(e.rating == 1.0 for e in out)

    def test_minus_inf_keeps_all(self):
        events = [ev("u", "a", 1.0), ev("u", "b", 5.0)]
        assert len(binarize(events, -math.inf)) == 2

    def test_empty(self):
        assert binarize([], 3.0) == []

    def test_idempotent(self):
        # holds for thresholds below 1, where binary output passes the filter
        events = [ev("u", str(i), float(r), i) for i, r in enumerate([1, 3, 4, 5, 2])]
        for t in (0.0, 0.5):
            once = binarize(events, t)
            assert binarize(once, t) == once


class TestTemporalSplit:
    def user_events(self, n, uid="u0"):
        return [ev(uid, f"i{k:02d}", 1.0, ts=100 + k) for k in range(n)]

    def test_ten_events_5_2_3(self):
        # anchor user keeps every item in the train index
        anchor = [ev("anchor", f"i{k % 10:02d}", 1.0, ts=k) for k in range(20)]
        data = temporal_split(self.user_events(10) + anchor)
        u0 = data.user_index["u0"]
        assert (data.train[u0].nnz, data.validation[u0].nnz, data.test[u0].nnz) == (5, 2, 3)

    def test_seven_events_3_1_3(self):
        # items not in train are dropped, so seed items for train coverage
        evs = self.user_events(7)
        anchor = [ev("u1", e.item_id, 1.0, ts=1) for e in evs] + [
            ev("u1", "extra", 1.0, ts=2)
        ] * 7
        data = temporal_split(evs + anchor)
        u0 = data.user_index["u0"]
        assert data.train[u0].nnz == 3
        assert data.validation[u0].nnz == 1
        assert data.test[u0].nnz == 3

    def test_single_event_user_dropped(self):
        evs = self.user_events(10, uid="big") + [ev("tiny", "i00", 1.0, 999)]
        data = temporal_split(evs)
        assert "tiny" not in data.user_index
        assert "big" in data.user_index

    def test_items_unseen_in_train_dropped(self):
        evs = self.user_events(10)
        # the last items only appear in u0's test portion
        data = temporal_split(evs)
        assert "i09" not in data.item_index
        assert data.shape[1] == data.train.shape[1]

    def test_empty_events_error(self):
        with pytest.raises(ConfigError):
            temporal_split([])

    def test_bad_fractions(self):
        with pytest.raises(ConfigError):
            temporal_split(self.user_events(4), fractions=(0.5, 0.2, 0.2))

    def test_partition_and_monotonic(self):
        events = binarize(synthetic_events(seed=11), 2)
        data = temporal_split(events)
        # pairwise disjoint
        for a, b in [(data.train, data.validation), (data.train, data.test),
                     (data.validation, data.test)]:
            assert (a.multiply(b)).nnz == 0
        # temporal order per user, ties broken by item id
        by_user = {}
        for e in sorted(events, key=lambda e: (e.user_id, e.timestamp, e.item_id)):
            by_user.setdefault(e.user_id, []).append(e)
        for uid, evs in by_user.items():
            if uid not in data.user_index:
                continue
            u = data.user_index[uid]
            n = len(evs)
            n_train = math.floor(0.5 * n)
            n_val = math.floor(0.7 * n) - n_train
            train_ts = [e.timestamp for e in evs[:n_train]]
            val_ts = [e.timestamp for e in evs[n_train:n_train + n_val]]
            test_ts = [e.timestamp for e in evs[n_train + n_val:]]
            if train_ts and val_ts:
                assert max(train_ts) <= min(val_ts)
            if val_ts and test_ts:
                assert max(val_ts) <= min(test_ts)
            # train events all kept
            assert data.train[u].nnz == len({e.item_id for e in evs[:n_train]})

    def test_deterministic_files(self, tmp_path):
        events = binarize(synthetic_events(seed=3), 2)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        save_split(temporal_split(events), out1, threshold=2)
        save_split(temporal_split(list(events)), out2, threshold=2)
        for name in ("train.csv", "validation.csv", "test.csv", "split.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


class TestBuildMatrix:
    def test_basic(self):
        mat = build_matrix([ev("u0", "i0"), ev("u0", "i2")],
                           {"u0": 0}, {"i0": 0, "i1": 1, "i2": 2})
        assert mat.shape == (1, 3)
        assert mat.indices.tolist() == [0, 2]

    def test_duplicates_collapse(self):
        mat = build_matrix([ev("u0", "i0"), ev("u0", "i0")], {"u0": 0}, {"i0": 0})
        assert mat.nnz == 1 and mat[0, 0] == 1.0

    def test_empty(self):
        mat = build_matrix([], {"a": 0, "b": 1}, {"x": 0, "y": 1})
        assert mat.shape == (2, 2) and mat.nnz == 0

    def test_unknown_id_named(self):
        with pytest.raises(KeyError, match="ghost"):
            build_matrix([ev("ghost", "i0")], {"u0": 0}, {"i0": 0})


def test_save_load_roundtrip(tmp_path, tiny_split):
    save_split(tiny_split, tmp_path / "out", threshold=2)
    loaded = load_split(tmp_path / "out")
    assert loaded.user_ids == tiny_split.user_ids
    assert loaded.item_ids == tiny_split.item_ids
    for name in ("train", "validation", "test"):
        a, b = getattr(loaded, name), getattr(tiny_split, name)
        assert (a != b).nnz == 0
    assert split_content_hash(loaded) == split_content_hash(tiny_split)


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


def test_empty_file_names_the_file(tmp_path, tiny_split):
    save_split(tiny_split, tmp_path / "out", threshold=2)
    path = tmp_path / "out" / "validation.csv"
    path.write_bytes(b"")
    with pytest.raises(ParseError) as exc:
        load_split(tmp_path / "out")
    assert exc.value.line_number == 1
    assert f"{path}: empty file" in str(exc.value)
