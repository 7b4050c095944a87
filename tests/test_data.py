"""Dataset parsing, integrity checking, pruning, splitting, and round trips."""

import codecs
import logging
import re
from dataclasses import replace

import numpy as np
import pytest

from framerec.data import (
    PORTIONS,
    Dataset,
    _ID,
    _line_of,
    _pair_array,
    _read_ids,
    _read_pairs,
    _write_pairs,
    check_dataset,
    load_dataset,
    load_frame_likes,
    load_split,
    prune_dataset,
    save_dataset,
    save_split,
    split_ratings,
)
from framerec.errors import ConfigError, EmptyDatasetError, IntegrityError, ParseError
from framerec.synth import SynthConfig, generate_synthetic
from framerec.training import gradcheck_instance

import reference
from conftest import (TOY_FEATURES, TOY_FRAMES, TOY_RATINGS, pair_set, traced_peak,
                      write_dataset_dir)


def portion_sets(split) -> list:
    """The split's train, validation and test pairs, each as a set of (user, item) tuples."""
    return [pair_set(split.pairs(name)) for name in PORTIONS]


def load_toy(tmp_path, ratings=TOY_RATINGS, frames=TOY_FRAMES, features=TOY_FEATURES):
    d = write_dataset_dir(tmp_path / "data", ratings, frames, features)
    return load_dataset(d / "ratings.tsv", d / "frames.tsv", d / "features.npy")


def write_npz(path):
    with open(path, "wb") as fh:  # given a path, np.savez would add an .npz suffix
        np.savez(fh, features=np.array(TOY_FEATURES))


# every str.isspace character, all 29 of them; five go by name in test ids, the rest by code
SPACES = [c for c in map(chr, range(0x110000)) if c.isspace()]
SPACE_NAMES = dict(zip(map(chr, (0x20, 0xA0, 0x2003, 0x1C, 0x0B)),
                       ("space", "nbsp", "em-space", "file-separator", "vtab")))
# the code points next to each range _ID leaves out, and the first and last code points; the
# neighbours of U+DC80-DCFF, U+DC7F and U+DD00, have no UTF-8 form, so no file holds them
ID_EDGES = "".join(map(chr, (
    0x00, 0x08, 0x0E, 0x1B, 0x21, 0x84, 0x86, 0x9F, 0xA1, 0x167F, 0x1681, 0x1FFF, 0x200B,
    0x2027, 0x202A, 0x202E, 0x2030, 0x205E, 0x2060, 0x2FFF, 0x3001, 0x10FFFF)))


# the lines each layout puts before every record; two layouts change the line ends instead
FILLERS = {"comment_lines": ["  # a comment\twith a tab"], "blank_lines": ["", " \t"],
           "crlf": [], "no_final_newline": []}


def lay_out(records, layout) -> tuple:
    """The bytes of an id file holding ``records`` in a layout, and each record's line number."""
    rows, numbers = [], []
    for record in records:
        rows += FILLERS[layout] + [record]
        numbers.append(len(rows))
    end = "\r\n" if layout == "crlf" else "\n"
    text = end.join(rows) + ("" if layout == "no_final_newline" else end)
    return text.encode("utf-8"), numbers


def draw_dataset(data, st, min_frames=1) -> Dataset:
    """A random dataset of up to 6 users and 8 items with min_frames to 3 frames each.

    Only items with frames are rated.  Each frame's feature row holds its
    own id, so subsets can be traced.
    """
    m = data.draw(st.integers(1, 6))
    n = data.draw(st.integers(1, 8))
    counts = data.draw(st.lists(st.integers(min_frames, 3), min_size=n, max_size=n))
    ratings = data.draw(st.frozensets(st.tuples(st.integers(0, m - 1), st.integers(0, n - 1))))
    ratings = frozenset((u, i) for u, i in ratings if counts[i])
    frame_parent = np.repeat(np.arange(n, dtype=np.int64), counts)
    num_frames = len(frame_parent)
    return Dataset(
        ratings=ratings, frame_parent=frame_parent,
        frame_features=np.arange(num_frames, dtype=np.float64)[:, None],
        user_ids=tuple(f"u{k}" for k in range(m)),
        item_ids=tuple(f"i{k}" for k in range(n)),
        frame_ids=tuple(f"f{k}" for k in range(num_frames)),
    )


class TestParsing:
    def test_basic_load(self, tmp_path):
        ds = load_toy(tmp_path)
        assert (ds.num_users, ds.num_items, ds.num_frames) == (3, 3, 6)
        assert ds.feature_dim == 2
        assert len(ds.ratings) == 6
        # tokens are sorted, so dense ids follow lexical order
        assert ds.user_ids == ("a", "b", "c")
        assert ds.item_ids == ("x", "y", "z")

    def test_blank_lines_and_comments_skipped(self, tmp_path):
        ratings = "# header\n\na\tx\n   \na\ty\nb\ty\nb\tz\nc\tx\nc\tz\n"
        ds = load_toy(tmp_path, ratings=ratings)
        assert len(ds.ratings) == 6

    def test_duplicate_ratings_collapse(self, tmp_path):
        ds = load_toy(tmp_path, ratings=TOY_RATINGS + "a\tx\na\tx\n")
        assert len(ds.ratings) == 6

    def test_malformed_line_reports_position(self, tmp_path):
        with pytest.raises(ParseError) as exc:
            load_toy(tmp_path, ratings="a\tx\nbroken-line\n")
        assert "ratings.tsv:2" in str(exc.value)

    def test_whitespace_in_id_rejected(self, tmp_path):
        with pytest.raises(ParseError):
            load_toy(tmp_path, ratings="a b\tx\n")

    @pytest.mark.parametrize("space", SPACES,
                             ids=[SPACE_NAMES.get(c, f"U+{ord(c):04X}") for c in SPACES])
    def test_every_str_whitespace_in_an_id_is_rejected(self, tmp_path, space):
        assert len(SPACES) == 29
        # a tab makes a record of three fields; "\n" and "\r" end the line, which leaves "a"
        # alone on ratings line 2 and "y" alone on frames line 2; any other space is in an id
        ends_line = space in "\n\r"
        want = ("expected two tab-separated ids" if ends_line or space == "\t"
                else "ids must not contain whitespace")
        with pytest.raises(ParseError, match=f"ratings.tsv:2: {want}"):
            load_toy(tmp_path, ratings=f"a\tx\na{space}b\tx\n")
        with pytest.raises(ParseError, match=f"frames.tsv:{1 + ends_line}: {want}"):
            load_toy(tmp_path, frames=f"fx1\tx{space}y\n" + TOY_FRAMES)

    def test_id_class_is_every_code_point_but_whitespace_and_bytes_not_utf8(self):
        # _ID spells its code points out as ranges: over all of them, its runs of matches
        # must cover exactly those that are neither str.isspace nor U+DC80-DCFF
        text = "".join(map(chr, range(0x110000)))
        want = bytes(not c.isspace() and not 0xDC80 <= ord(c) <= 0xDCFF for c in text)
        got = bytearray(len(text))
        for m in re.finditer(f"{_ID}+", text):
            got[m.start():m.end()] = bytes([1]) * (m.end() - m.start())
        assert got == want

    def test_ids_next_to_each_excluded_range_load(self, tmp_path):
        path = tmp_path / "ids.tsv"
        left, right = [f"a{c}" for c in ID_EDGES], [f"{c}b" for c in ID_EDGES]
        path.write_text("".join(f"{a}\t{b}\n" for a, b in zip(left, right)), encoding="utf-8")
        assert _read_pairs(path) == (left, right)
        ds = load_toy(tmp_path, ratings="".join(f"{c}\tx\n" for c in ID_EDGES))
        assert ds.user_ids == tuple(sorted(ID_EDGES))

    @pytest.mark.parametrize("name", ["ratings.tsv", "frames.tsv", "valid.tsv"])
    def test_bytes_that_are_not_utf8_name_the_line(self, tmp_path, name):
        d = write_dataset_dir(tmp_path / "data", TOY_RATINGS, TOY_FRAMES, TOY_FEATURES)
        files = (d / "ratings.tsv", d / "frames.tsv", d / "features.npy")
        save_split(split_ratings(load_dataset(*files), 0.5, 0.25, seed=0), d)
        (d / name).write_bytes(b"# header\r\nb\tz\xe9\n" + (d / name).read_bytes())
        with pytest.raises(ParseError, match=f"{name}:2: not valid UTF-8$"):
            load_split(load_dataset(*files), d)

    @pytest.mark.parametrize("name", ["ratings.tsv", "frames.tsv", "valid.tsv"])
    def test_a_leading_byte_order_mark_is_dropped(self, tmp_path, name):
        d = write_dataset_dir(tmp_path / "data", TOY_RATINGS, TOY_FRAMES, TOY_FEATURES)
        files = (d / "ratings.tsv", d / "frames.tsv", d / "features.npy")
        save_split(split_ratings(load_dataset(*files), 0.5, 0.25, seed=0), d)
        want = load_dataset(*files)
        want_split = load_split(want, d)
        (d / name).write_bytes(codecs.BOM_UTF8 + (d / name).read_bytes())
        got = load_dataset(*files)
        assert got == want
        assert got.user_ids == ("a", "b", "c")
        got_split = load_split(got, d)
        assert portion_sets(got_split) == portion_sets(want_split)

    def test_reader_matches_the_per_line_oracle(self, tmp_path):
        """Whole-file reading accepts the files the per-line reader accepts, with the same
        records on the same lines, and rejects the others with the same ParseError."""
        hypothesis = pytest.importorskip("hypothesis")
        from hypothesis import strategies as st

        spaces = [" ", "\t", "\u00a0", "\u2003", "\x1c", "\x0b", "\x85", "\u2028"]
        space = st.sampled_from([c.encode("utf-8") for c in spaces])
        id_ = st.lists(st.sampled_from([b"a", b"b", b"#", "\u00e9".encode("utf-8")]),
                       min_size=1, max_size=3).map(b"".join)
        piece = st.one_of(space, id_, st.just(b"\xff"))  # 0xff is never UTF-8
        near = st.lists(piece, max_size=3).map(b"".join)
        line = st.one_of(
            *[st.tuples(id_, id_).map(b"\t".join)] * 3,  # records
            st.tuples(near, near).map(b"\t".join),  # and near misses
            st.tuples(st.lists(space, max_size=2), st.lists(piece, max_size=3)).map(
                lambda p: b"".join(p[0]) + b"#" + b"".join(p[1])),  # comments
            st.lists(space, max_size=3).map(b"".join),  # blank lines
            st.lists(piece, max_size=4).map(b"".join),  # anything
        )
        path = tmp_path / "ids.tsv"

        def outcome(read):
            try:
                return read(path)
            except ParseError as exc:
                return str(exc)

        @hypothesis.settings(max_examples=400, deadline=None)
        @hypothesis.example(lines=[(b"#", b"\n"), (b"a\tb", b"\r")], final_end=False, bom=False)
        @hypothesis.example(lines=[(b"a\t\xff", b"\n")], final_end=True, bom=False)
        @hypothesis.given(lines=st.lists(st.tuples(line, st.sampled_from([b"\n", b"\r\n", b"\r"])),
                                         max_size=6),
                          final_end=st.booleans(), bom=st.booleans())
        def check(lines, final_end, bom):
            data = b"".join(text + end for text, end in lines)
            if lines and not final_end:
                data = data[:-len(lines[-1][1])]
            path.write_bytes(codecs.BOM_UTF8 * bom + data)
            want = outcome(reference.parse_pair_file)
            got = outcome(_read_pairs)
            if isinstance(want, str):
                assert got == want
            else:
                assert list(zip(*got)) == [(a, b) for _, a, b in want]
                assert [_line_of(path, k) for k in range(len(want))] == [n for n, _, _ in want]

        check()

    def test_bad_feature_float(self, tmp_path):
        # a string array loads without error, so only its dtype shows the fault
        feats = np.array(TOY_FEATURES).astype(str)
        with pytest.raises(IntegrityError, match=r"features.npy: .*, got <U\d+ \(6, 2\)$"):
            load_toy(tmp_path, features=feats)
        with pytest.raises(IntegrityError, match=r"got int64 \(6, 2\)$"):
            load_toy(tmp_path, features=np.array(TOY_FEATURES).astype(np.int64))

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_feature_names_line(self, tmp_path, value):
        feats = np.array(TOY_FEATURES)
        feats[3, 1] = float(value)
        with pytest.raises(IntegrityError, match="features.npy: row 3 is not finite$"):
            load_toy(tmp_path, features=feats)

    def test_inconsistent_feature_dim(self, tmp_path):
        for feats in (np.ones(6), np.ones((6, 2, 1)), np.ones((6, 0))):
            with pytest.raises(IntegrityError, match=r"features.npy: want a float array"):
                load_toy(tmp_path, features=feats)

    def test_rated_item_without_frames(self, tmp_path):
        with pytest.raises(IntegrityError):
            load_toy(tmp_path, ratings=TOY_RATINGS + "a\tw\n")

    def test_frame_without_features(self, tmp_path):
        with pytest.raises(IntegrityError, match="each of the 6 records of .*, got float64 "
                                                 r"\(5, 2\)$"):
            load_toy(tmp_path, features=TOY_FEATURES[:-1])

    def test_feature_for_unknown_frame(self, tmp_path):
        with pytest.raises(IntegrityError, match=r"got float64 \(7, 2\)$"):
            load_toy(tmp_path, features=TOY_FEATURES + ((1.0, 1.0),))

    def test_feature_rows_follow_frames_records(self, tmp_path):
        # comment and blank lines are not records; frame ids sort apart from file order
        frames = "# frame\titem\nfz3\tz\n\nfx1\tx\nfy1\ty\n"
        feats = np.array([[3.0, 0.0], [1.0, 0.0], [2.0, 0.0]], dtype=np.float32)
        ds = load_toy(tmp_path, frames=frames, ratings="a\tx\n", features=feats)
        assert ds.frame_ids == ("fx1", "fy1", "fz3")
        assert ds.frame_features.dtype == np.float64
        assert ds.frame_features[:, 0].tolist() == [1.0, 2.0, 3.0]

    @pytest.mark.parametrize("write", [
        write_npz,
        lambda p: np.save(p, np.array([{"f": 1.0}, None]), allow_pickle=True),
        lambda p: p.write_bytes(p.read_bytes()[:-1]),
        lambda p: p.write_bytes(p.read_bytes()[:20]),
        lambda p: p.write_text("fx1\t1.0 0.0\n", encoding="utf-8"),
    ], ids=["npz", "pickled-objects", "truncated-data", "truncated-header", "text"])
    def test_features_not_an_npy_array(self, tmp_path, write):
        d = write_dataset_dir(tmp_path / "data", TOY_RATINGS, TOY_FRAMES, TOY_FEATURES)
        write(d / "features.npy")
        with pytest.raises(IntegrityError, match="features.npy: not a .npy array: "):
            load_dataset(d / "ratings.tsv", d / "frames.tsv", d / "features.npy")

    def test_frame_with_two_parents(self, tmp_path):
        with pytest.raises(IntegrityError):
            load_toy(tmp_path, frames=TOY_FRAMES + "fx1\ty\n")

    def test_frame_listed_twice(self, tmp_path):
        # each line owns a feature row, so even an identical repeat is an error
        with pytest.raises(IntegrityError, match="frames.tsv:7: frame 'fx1' is listed twice$"):
            load_toy(tmp_path, frames=TOY_FRAMES + "fx1\tx\n",
                     features=TOY_FEATURES + TOY_FEATURES[:1])

    @pytest.mark.parametrize("layout", FILLERS)
    def test_integrity_errors_name_the_line(self, toy_dataset, tmp_path, layout):
        """The line of an unknown id or a repeated frame counts every line end, of any kind."""
        split = split_ratings(toy_dataset, 0.5, 0.25, seed=4, frame_likes={(0, 0)})
        save_split(split, tmp_path / "sp")
        data, lines = lay_out(["u0\tf0", "u0\tfx1", "u1\tf2"], layout)
        (tmp_path / "sp" / "frame_test.tsv").write_bytes(data)
        with pytest.raises(IntegrityError, match=rf"frame_test.tsv:{lines[1]}: unknown id 'fx1'$"):
            load_split(toy_dataset, tmp_path / "sp")

        data, lines = lay_out(["u0\tf0", "u1\tf1", "ux\tf2"], layout)
        (tmp_path / "likes.tsv").write_bytes(data)
        with pytest.raises(IntegrityError, match=rf"likes.tsv:{lines[2]}: unknown id 'ux'$"):
            _read_ids(tmp_path / "likes.tsv", toy_dataset.user_index, toy_dataset.frame_index)

        frames = TOY_FRAMES.splitlines()
        data, lines = lay_out(frames[:3] + ["fx1\tx"] + frames[3:], layout)
        d = write_dataset_dir(tmp_path / "data", TOY_RATINGS, "",
                              TOY_FEATURES + TOY_FEATURES[:1])
        (d / "frames.tsv").write_bytes(data)
        with pytest.raises(IntegrityError, match=rf"frames.tsv:{lines[3]}: frame 'fx1' is listed"
                                                 " twice$"):
            load_dataset(d / "ratings.tsv", d / "frames.tsv", d / "features.npy")

    def test_item_only_in_frames_is_kept_unrated(self, tmp_path):
        frames = TOY_FRAMES + "fw1\tw\n"
        feats = TOY_FEATURES + ((0.5, 0.5),)
        ds = load_toy(tmp_path, frames=frames, features=feats)
        assert ds.num_items == 4
        w = ds.item_ids.index("w")
        assert all(i != w for _, i in ds.ratings)
        assert len(np.flatnonzero(ds.frame_parent == w)) == 1


class TestDatasetStructure:
    def test_frame_table_padding(self, toy_dataset):
        ids, mask, counts = toy_dataset.frame_table
        assert ids.shape == (3, 3) and mask.shape == (3, 3)
        assert counts.tolist() == [2, 1, 3]
        assert mask.sum() == 6
        assert ids[1, 0] == 2 and not mask[1, 1]

    def test_items_of_user(self, toy_dataset):
        per_user = toy_dataset.items_of_user
        assert per_user[0].tolist() == [0, 1]
        assert per_user[2].tolist() == [0, 2]

    def test_items_of_user_matches_a_scan(self):
        hypothesis = pytest.importorskip("hypothesis")
        from hypothesis import strategies as st

        # users without ratings are drawn too
        @hypothesis.settings(max_examples=200, deadline=None)
        @hypothesis.given(data=st.data())
        def check(data):
            ds = draw_dataset(data, st, min_frames=0)
            got = ds.items_of_user
            assert [items.tolist() for items in got] == reference.items_of_user(ds)
            assert all(items.dtype == np.int64 for items in got)

        check()

    @pytest.mark.parametrize("pairs", [
        np.array([[2, 0], [0, 1], [2, 0], [0, 0], [1, 2], [0, 1]], dtype=np.int32),
        [(2, 0), (0, 1), (2, 0), (0, 0), (1, 2)],
        zip([2, 0, 0, 1, 2], [0, 1, 0, 2, 0]),
        {(2, 0), (0, 1), (0, 0), (1, 2)},
    ], ids=["array", "list", "zip", "set"])
    def test_ratings_are_sorted_and_unique(self, toy_dataset, pairs):
        ds = replace(toy_dataset, ratings=pairs)
        assert ds.ratings.dtype == np.int64
        assert ds.ratings.tolist() == [[0, 0], [0, 1], [1, 2], [2, 0]]

    @pytest.mark.parametrize("pairs", [(), set(), zip(), np.empty((0, 2), dtype=np.int64)],
                             ids=["tuple", "set", "zip", "array"])
    def test_no_ratings_is_an_empty_pair_array(self, toy_dataset, pairs):
        ds = replace(toy_dataset, ratings=pairs)
        assert ds.ratings.shape == (0, 2) and ds.ratings.dtype == np.int64
        assert [len(items) for items in ds.items_of_user] == [0, 0, 0]

    @pytest.mark.parametrize("change, message", [
        (dict(ratings=np.array([[0.0, 1.0]])), r"integer \(user, item\) pairs, got float64"),
        (dict(ratings=np.array([[0, 1, 2]])), r"integer \(user, item\) pairs, got int64 \(1, 3\)"),
        (dict(ratings={(0, 1), (2,)}), r"ratings are not \(user, item\) pairs"),
        (dict(ratings={("u0", "i1")}), r"integer \(user, item\) pairs, got <U2"),
        (dict(ratings={(0, 0), (-1, 0)}), r"^rating \(-1, 0\) out of range$"),
        (dict(ratings={(0, 0), (1, 3)}), r"^rating \(1, 3\) out of range$"),
        (dict(ratings={(3, 0), (0, 1)}), r"^rating \(3, 0\) out of range$"),
        (dict(frame_parent=np.array([0, 0, 0, 2, 2, 2])), "^item 'i1' is rated but has no frames$"),
    ], ids=["float", "three_columns", "ragged", "strings", "negative_user", "item_past_end",
            "user_past_end", "rated_frameless"])
    def test_bad_ratings_are_integrity_errors(self, toy_dataset, change, message):
        with pytest.raises(IntegrityError, match=message):
            check_dataset(replace(toy_dataset, **change))

    def test_check_rejects_orphan_frame(self, toy_dataset):
        # frame 5's parent is not an item of the dataset
        broken = replace(toy_dataset, frame_parent=np.array([0, 0, 1, 2, 2, 3]))
        with pytest.raises(IntegrityError):
            check_dataset(broken)

    @pytest.mark.parametrize("name, cut", [
        ("frame_ids", lambda v: v[:-1]),
        ("frame_parent", lambda v: v[:-1]),
        ("frame_features", lambda v: v[:-1]),
        ("frame_features", lambda v: v.ravel()[:len(v)]),  # one row per frame, but 1-d
    ], ids=["frame_ids", "frame_parent", "frame_features", "flat_features"])
    def test_check_rejects_frame_arrays_of_another_length(self, toy_dataset, name, cut):
        with pytest.raises(IntegrityError):
            check_dataset(replace(toy_dataset, **{name: cut(getattr(toy_dataset, name))}))

    def test_sizes_follow_the_id_tuples(self, toy_dataset):
        short = replace(toy_dataset, user_ids=toy_dataset.user_ids[:-1])
        assert (short.num_users, short.num_items, short.num_frames) == (2, 3, 6)
        with pytest.raises(IntegrityError):  # user 2's ratings are now out of range
            check_dataset(short)

    def test_frame_table_follows_frame_parent(self, toy_dataset):
        def frames(ds):
            ids, mask, _ = ds.frame_table
            return tuple(tuple(row[keep].tolist()) for row, keep in zip(ids, mask))

        assert frames(toy_dataset) == ((0, 1), (2,), (3, 4, 5))
        shuffled = replace(toy_dataset, frame_parent=np.array([2, 0, 1, 2, 0, 2]))
        assert frames(shuffled) == ((1, 4), (2,), (0, 3, 5))

    def test_pair_array_matches_an_always_sorting_oracle(self):
        hypothesis = pytest.importorskip("hypothesis")
        from hypothesis import strategies as st

        rows = st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), max_size=12)

        @hypothesis.settings(max_examples=300, deadline=None)
        @hypothesis.example(pairs=[])
        @hypothesis.example(pairs=[(0, 1), (0, 2), (1, 0)])  # sorted and unique
        @hypothesis.example(pairs=[(0, 1), (0, 1), (1, 0)])  # sorted, with a duplicate
        @hypothesis.example(pairs=[(1, 0), (0, 2)])  # unsorted
        @hypothesis.given(pairs=st.one_of(rows, rows.map(sorted), rows.map(lambda r: sorted(set(r)))))
        def check(pairs):
            arr = np.array(pairs, dtype=np.int64).reshape(-1, 2)
            got = _pair_array(arr)
            assert got.dtype == np.int64 and not np.shares_memory(got, arr)
            np.testing.assert_array_equal(got, reference.pair_array(arr))

        check()

    def test_padded_features_are_each_items_frames(self, toy_dataset):
        def padded(ds):
            got = ds.padded_features
            np.testing.assert_array_equal(got, ds.frame_features[ds.frame_table[0]])
            assert got is ds.padded_features  # held once
            return got

        even, _, _ = generate_synthetic(SynthConfig(num_users=6, num_items=7, frames_per_item=3,
                                                    feature_dim=4, ratings_per_user=2))
        assert np.shares_memory(padded(even), even.frame_features)  # item-major, equal counts
        uneven = gradcheck_instance()[2]
        assert len(set(uneven.frame_table[2].tolist())) > 1
        assert not np.shares_memory(padded(uneven), uneven.frame_features)
        order = np.random.default_rng(0).permutation(even.num_frames)
        shuffled = replace(even, frame_parent=even.frame_parent[order],
                           frame_features=even.frame_features[order])
        assert not np.shares_memory(padded(shuffled), shuffled.frame_features)
        assert not np.shares_memory(padded(toy_dataset), toy_dataset.frame_features)

    def test_token_indexes_are_built_once(self, toy_dataset):
        for index, tokens in ((toy_dataset.user_index, toy_dataset.user_ids),
                              (toy_dataset.item_index, toy_dataset.item_ids),
                              (toy_dataset.frame_index, toy_dataset.frame_ids)):
            assert index == {t: k for k, t in enumerate(tokens)}
        assert toy_dataset.user_index is toy_dataset.user_index

    def test_loaded_dataset_keeps_the_indexes_it_built(self, tmp_path):
        # load_dataset hands its {token: id} dicts over, so reading a split builds none;
        # the toy frames file lists its frames in token order, so the frame dict goes too
        ds = load_toy(tmp_path)
        assert {"user_index", "item_index", "frame_index"} <= vars(ds).keys()
        assert ds.user_index == {t: k for k, t in enumerate(ds.user_ids)}
        assert ds.item_index == {t: k for k, t in enumerate(ds.item_ids)}
        assert ds.frame_index == {t: k for k, t in enumerate(ds.frame_ids)}

    def test_unrated_items_matches_a_setdiff_loop(self):
        hypothesis = pytest.importorskip("hypothesis")
        from hypothesis import strategies as st

        # users without ratings, and users who rated every item, are drawn too
        @hypothesis.settings(max_examples=200, deadline=None)
        @hypothesis.given(data=st.data())
        def check(data):
            ds = draw_dataset(data, st, min_frames=0)
            pools = [np.setdiff1d(np.arange(ds.num_items), ds.items_of_user[u])
                     for u in range(ds.num_users)]
            for u, pool in enumerate(pools):
                got = ds.unrated_items(np.full(len(pool), u), np.arange(len(pool)))
                assert got.tolist() == pool.tolist()
            # a (users, k) block, users broadcast down its rows
            width = min(map(len, pools))
            users = np.arange(ds.num_users)
            got = ds.unrated_items(users[:, None], np.tile(np.arange(width), (len(users), 1)))
            assert got.tolist() == [pool[:width].tolist() for pool in pools]

        check()

    def test_equality_compares_arrays_by_value(self, toy_dataset):
        twin = replace(toy_dataset, frame_parent=toy_dataset.frame_parent.copy(),
                       frame_features=toy_dataset.frame_features.copy())
        assert (twin == toy_dataset) is True and (twin != toy_dataset) is False
        features = toy_dataset.frame_features.copy()
        features[0, 0] += 1.0
        changed = replace(toy_dataset, frame_features=features)
        assert (changed == toy_dataset) is False
        split = split_ratings(toy_dataset, 0.5, 0.25, seed=1)
        assert (replace(split, base=twin) == split) is True
        assert (replace(split, base=changed) == split) is False


class TestPruning:
    def test_prune_cascades_to_fixed_point(self, tmp_path):
        # user d has one rating on item v; dropping v orphans nothing else
        ratings = TOY_RATINGS + "d\tv\n"
        frames = TOY_FRAMES + "fv1\tv\n"
        feats = TOY_FEATURES + ((3.0, 3.0),)
        ds = load_toy(tmp_path, ratings=ratings, frames=frames, features=feats)
        pruned = prune_dataset(ds, min_count=2)
        assert "d" not in pruned.user_ids
        assert "v" not in pruned.item_ids
        assert "fv1" not in pruned.frame_ids
        # the surviving core is unchanged
        assert len(pruned.ratings) == 6
        check_dataset(pruned)

    def test_prune_can_empty(self, toy_dataset):
        with pytest.raises(EmptyDatasetError):
            prune_dataset(toy_dataset, min_count=5)

    def test_prune_rejects_bad_min_count(self, toy_dataset):
        with pytest.raises(ConfigError):
            prune_dataset(toy_dataset, min_count=0)

    def test_prune_properties(self):
        hypothesis = pytest.importorskip("hypothesis")
        from hypothesis import strategies as st

        @hypothesis.settings(max_examples=200, deadline=None)
        @hypothesis.given(data=st.data(), min_count=st.integers(1, 3))
        def check(data, min_count):
            ds = draw_dataset(data, st)
            try:
                pruned = prune_dataset(ds, min_count)
            except EmptyDatasetError:
                return
            users = [u for u, _ in pruned.ratings]
            items = [i for _, i in pruned.ratings]
            assert min(np.bincount(users, minlength=pruned.num_users)) >= min_count
            assert min(np.bincount(items, minlength=pruned.num_items)) >= min_count
            kept_items = set(pruned.item_ids)
            want = [f for f in range(ds.num_frames)
                    if ds.item_ids[ds.frame_parent[f]] in kept_items]
            assert pruned.frame_ids == tuple(ds.frame_ids[f] for f in want)
            assert pruned.frame_features[:, 0].tolist() == want
            assert [pruned.item_ids[i] for i in pruned.frame_parent] == [
                ds.item_ids[ds.frame_parent[f]] for f in want]
            assert prune_dataset(pruned, min_count) == pruned

        check()

    def test_prune_matches_the_set_based_oracle(self):
        hypothesis = pytest.importorskip("hypothesis")
        from hypothesis import strategies as st

        # items without frames, and users and items without ratings, are drawn too
        @hypothesis.settings(max_examples=300, deadline=None)
        @hypothesis.given(data=st.data(), min_count=st.integers(1, 3))
        def check(data, min_count):
            ds = draw_dataset(data, st, min_frames=0)
            try:
                want = reference.prune_dataset(ds, min_count)
            except EmptyDatasetError:
                with pytest.raises(EmptyDatasetError):
                    prune_dataset(ds, min_count)
                return
            got = prune_dataset(ds, min_count)
            assert got == want
            assert got.frame_parent.dtype == np.int64
            assert got.frame_features.dtype == np.float64

        check()

    def test_prune_reindexes_densely(self, tmp_path):
        ratings = TOY_RATINGS + "d\tv\n"
        frames = TOY_FRAMES + "fv1\tv\n"
        feats = TOY_FEATURES + ((3.0, 3.0),)
        ds = load_toy(tmp_path, ratings=ratings, frames=frames, features=feats)
        pruned = prune_dataset(ds, min_count=2)
        assert set(range(pruned.num_frames)) == {
            f for i in range(pruned.num_items)
            for f in np.flatnonzero(pruned.frame_parent == i).tolist()
        }
        # feature rows follow their frames through the re-indexing
        for tok, row in zip(pruned.frame_ids, pruned.frame_features):
            old = ds.frame_ids.index(tok)
            np.testing.assert_array_equal(row, ds.frame_features[old])


class TestSplitting:
    def test_floor_rule_counts(self, toy_dataset):
        # 6 ratings at 70/10: train floor(4.2)=4, valid floor(0.6)=0 is not
        # allowed by check... use 0.5/0.25 -> 3/1/2
        split = split_ratings(toy_dataset, 0.5, 0.25, seed=0)
        assert [len(split.pairs(name)) for name in PORTIONS] == [3, 1, 2]

    def test_ten_ratings_split_seven_one_two(self):
        rng = np.random.default_rng(0)
        ds = Dataset(
            ratings=frozenset((u, i) for u in range(2) for i in range(5)),
            frame_parent=np.arange(5, dtype=np.int64),
            frame_features=rng.normal(size=(5, 1)),
            user_ids=("u0", "u1"),
            item_ids=tuple(f"i{k}" for k in range(5)),
            frame_ids=tuple(f"f{k}" for k in range(5)),
        )
        split = split_ratings(ds, 0.7, 0.1, seed=3)
        assert [len(split.pairs(name)) for name in PORTIONS] == [7, 1, 2]

    def test_partition_is_exact(self, toy_dataset):
        split = split_ratings(toy_dataset, 0.5, 0.25, seed=1)
        # disjoint and covering
        reference.check_split(toy_dataset, *portion_sets(split), set())

    def test_deterministic_in_seed(self, toy_dataset):
        a = split_ratings(toy_dataset, 0.5, 0.25, seed=7)
        b = split_ratings(toy_dataset, 0.5, 0.25, seed=7)
        c = split_ratings(toy_dataset, 0.5, 0.25, seed=8)
        assert portion_sets(a) == portion_sets(b)
        assert portion_sets(a) != portion_sets(c)

    def test_per_user_keeps_every_user_in_train(self):
        rng = np.random.default_rng(1)
        n = 10
        ds = Dataset(
            ratings=frozenset((u, i) for u in range(4) for i in range(n)),
            frame_parent=np.arange(n, dtype=np.int64),
            frame_features=rng.normal(size=(n, 1)),
            user_ids=tuple(f"u{k}" for k in range(4)),
            item_ids=tuple(f"i{k}" for k in range(n)),
            frame_ids=tuple(f"f{k}" for k in range(n)),
        )
        split = split_ratings(ds, 0.7, 0.1, seed=0, per_user=True)
        trained = split.pairs("train")[:, 0]
        assert np.bincount(trained).tolist() == [7] * 4

    def test_cold_user_warning(self, caplog):
        # one user with a single rating: global split may leave them cold
        ds = Dataset(
            ratings=frozenset({(0, 0), (0, 1), (0, 2), (1, 3)}),
            frame_parent=np.arange(4, dtype=np.int64),
            frame_features=np.ones((4, 1)),
            user_ids=("u0", "u1"),
            item_ids=("i0", "i1", "i2", "i3"),
            frame_ids=("f0", "f1", "f2", "f3"),
        )
        for seed in range(20):
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="framerec.data"):
                split = split_ratings(ds, 0.5, 0.25, seed=seed)
            cold = {u for u, _ in ds.ratings} - set(split.pairs("train")[:, 0].tolist())
            warned = [r for r in caplog.records
                      if r.levelno == logging.WARNING and "(cold)" in r.getMessage()]
            assert len(warned) == len(cold)

    def test_frame_test_follows_test_ratings(self, toy_dataset):
        likes = {(u, f) for u, i in toy_dataset.ratings
                 for f in np.flatnonzero(toy_dataset.frame_parent == i).tolist()}
        split = split_ratings(toy_dataset, 0.5, 0.25, seed=2, frame_likes=likes)
        parent = toy_dataset.frame_parent
        test = pair_set(split.pairs("test"))
        assert len(split.frame_test)  # the test portion is non-empty, so likes exist
        for u, f in split.frame_test.tolist():
            assert (u, int(parent[f])) in test
        # every test rating whose item frames were liked is represented
        covered = {(u, int(parent[f])) for u, f in split.frame_test.tolist()}
        assert covered == test

    def test_split_properties(self):
        hypothesis = pytest.importorskip("hypothesis")
        from hypothesis import strategies as st

        @hypothesis.settings(max_examples=200, deadline=None)
        @hypothesis.given(
            data=st.data(),
            train_frac=st.floats(0.05, 0.9),
            valid_frac=st.floats(0.05, 0.9),
            per_user=st.booleans(),
            seed=st.integers(0, 2**32 - 1),
        )
        def check(data, train_frac, valid_frac, per_user, seed):
            hypothesis.assume(train_frac + valid_frac < 1.0)
            ds = draw_dataset(data, st)
            likes = data.draw(st.frozensets(st.tuples(
                st.integers(0, ds.num_users - 1), st.integers(0, ds.num_frames - 1))))
            split = split_ratings(ds, train_frac, valid_frac, seed=seed,
                                  per_user=per_user, frame_likes=likes)
            train, validation, test = portion_sets(split)
            assert len(train) + len(validation) + len(test) == len(ds.ratings)
            assert sorted(train | validation | test) == list(map(tuple, ds.ratings.tolist()))
            groups = ([[p for p in ds.ratings if p[0] == u] for u in range(ds.num_users)]
                      if per_user else [list(ds.ratings)])
            n_train = sum(int(len(g) * train_frac) for g in groups)
            n_valid = sum(int(len(g) * valid_frac) for g in groups)
            assert (len(train), len(validation)) == (n_train, n_valid)
            parent = ds.frame_parent
            assert pair_set(split.frame_test) == {
                (u, f) for u, f in likes if (u, int(parent[f])) in test}

        check()

    @pytest.mark.parametrize("per_user", [False, True])
    def test_split_matches_the_set_based_oracle(self, caplog, per_user):
        hypothesis = pytest.importorskip("hypothesis")
        from hypothesis import strategies as st

        @hypothesis.settings(max_examples=200, deadline=None)
        @hypothesis.given(
            data=st.data(),
            train_frac=st.floats(0.05, 0.9),
            valid_frac=st.floats(0.05, 0.9),
            seed=st.integers(0, 2**32 - 1),
        )
        def check(data, train_frac, valid_frac, seed):
            hypothesis.assume(train_frac + valid_frac < 1.0)
            ds = draw_dataset(data, st)
            likes = data.draw(st.frozensets(st.tuples(
                st.integers(0, ds.num_users - 1), st.integers(0, ds.num_frames - 1))))
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="framerec.data"):
                split = split_ratings(ds, train_frac, valid_frac, seed=seed,
                                      per_user=per_user, frame_likes=likes)
            *want, cold = reference.split_ratings(ds, train_frac, valid_frac, seed,
                                                  per_user=per_user, frame_likes=likes)
            assert [*portion_sets(split), pair_set(split.frame_test)] == want
            assert [r.args[0] for r in caplog.records if "(cold)" in r.getMessage()] == cold

        check()

    def test_portions_are_labels_of_the_ratings(self, toy_dataset):
        split = split_ratings(toy_dataset, 0.5, 0.25, seed=3)
        assert split.portion.dtype == np.int8 and len(split.portion) == 6
        for label, name in enumerate(PORTIONS):
            pairs = split.pairs(name)
            assert pairs.dtype == np.int64
            assert pairs.tolist() == toy_dataset.ratings[split.portion == label].tolist()
            assert getattr(split, name) == pair_set(pairs)  # the set view of the portion

    @pytest.mark.parametrize("frame", [6, -1])
    def test_a_like_naming_no_frame_is_an_integrity_error(self, toy_dataset, frame):
        with pytest.raises(IntegrityError, match=rf"^frame like \(1, {frame}\): frame id "
                                                 "out of range$"):
            split_ratings(toy_dataset, 0.5, 0.25, seed=0, frame_likes={(0, 0), (1, frame)})

    def test_rejects_bad_fractions(self, toy_dataset):
        with pytest.raises(ConfigError):
            split_ratings(toy_dataset, 0.9, 0.2, seed=0)
        with pytest.raises(ConfigError):
            split_ratings(toy_dataset, 0.0, 0.5, seed=0)


class TestRoundTrips:
    def test_dataset_save_load_bit_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        ds = Dataset(
            ratings=frozenset({(0, 0), (1, 1)}),
            frame_parent=np.array([0, 0, 1], dtype=np.int64),
            frame_features=rng.normal(size=(3, 4)),  # full-precision doubles
            user_ids=("alice", "bob"),
            item_ids=("m1", "m2"),
            frame_ids=("k1", "k2", "k3"),
        )
        save_dataset(ds, tmp_path / "out")
        back = load_dataset(
            tmp_path / "out" / "ratings.tsv",
            tmp_path / "out" / "frames.tsv",
            tmp_path / "out" / "features.npy",
        )
        assert np.array_equal(back.ratings, ds.ratings)
        assert back.frame_ids == ds.frame_ids
        np.testing.assert_array_equal(back.frame_features, ds.frame_features)

    @pytest.mark.parametrize("shuffled,dtype,copies", [
        (False, np.float64, 0), (True, np.float64, 1), (False, np.float32, 0.5),
        (True, np.float32, 0.5)], ids=["saved", "shuffled", "saved-float32", "shuffled-float32"])
    def test_every_frames_layout_loads_the_same_dataset(self, tmp_path, shuffled, dtype, copies):
        # The frame ids run item by item, so save_dataset writes them in token
        # order; "shuffled" permutes the frame records and feature rows alike.
        # Against 8 MB of float64 features the tokens are a few hundred kB:
        # beside the features it returns, a load holds at most one array of
        # the features as read, and none for the saved float64 layout.
        n, f = 2000, 512
        ds = Dataset(
            ratings=frozenset((u, u % 100) for u in range(200)),
            frame_parent=np.arange(n, dtype=np.int64) // 20,
            # values the float32 file holds exactly
            frame_features=np.random.default_rng(1).normal(size=(n, f)).astype(np.float32)
            .astype(np.float64),
            user_ids=tuple(f"u{k:04d}" for k in range(200)),
            item_ids=tuple(f"i{k:04d}" for k in range(100)),
            frame_ids=tuple(f"f{k:05d}" for k in range(n)),
        )
        paths = save_dataset(ds, tmp_path)
        frames = paths["frames"].read_text(encoding="utf-8").splitlines(keepends=True)
        order = np.random.default_rng(2).permutation(n) if shuffled else np.arange(n)
        paths["frames"].write_text("".join(frames[k] for k in order), encoding="utf-8")
        np.save(paths["features"], np.load(paths["features"])[order].astype(dtype))
        back, peak = traced_peak(
            lambda: load_dataset(paths["ratings"], paths["frames"], paths["features"]))
        assert back == ds
        assert ("frame_index" in vars(back)) is not shuffled  # handed over in token order
        assert back.frame_index == ds.frame_index
        assert back.frame_features.dtype == np.float64 and back.frame_features.flags.c_contiguous
        assert back.frame_features.tobytes() == ds.frame_features.tobytes()
        assert peak < (1.25 + copies) * ds.frame_features.nbytes, (peak, copies)

    def test_split_save_load(self, toy_dataset, tmp_path):
        likes = {(0, 0), (0, 2), (1, 2), (2, 3)}
        split = split_ratings(toy_dataset, 0.5, 0.25, seed=4, frame_likes=likes)
        save_split(split, tmp_path / "sp")
        back = load_split(toy_dataset, tmp_path / "sp")
        assert portion_sets(back) == portion_sets(split)
        assert np.array_equal(back.frame_test, split.frame_test)

    def test_a_pair_in_two_portions_is_an_overlap(self, toy_dataset, tmp_path):
        # the pair sorts next to its own copy in the merged portions
        split = split_ratings(toy_dataset, 0.5, 0.25, seed=4)
        save_split(split, tmp_path)
        u, i = split.pairs("test")[0].tolist()
        with open(tmp_path / "train.tsv", "a", encoding="utf-8") as fh:
            fh.write(f"{toy_dataset.user_ids[u]}\t{toy_dataset.item_ids[i]}\n")
        with pytest.raises(IntegrityError, match="^split portions overlap$"):
            load_split(toy_dataset, tmp_path)

    def test_frame_likes_load_drops_unknown(self, tmp_path, toy_dataset):
        p = tmp_path / "likes.tsv"
        p.write_text("u0\tf0\nu9\tf0\nu1\tghost\n", encoding="utf-8")
        likes = load_frame_likes(p, toy_dataset)
        assert likes.dtype == np.int64 and likes.tolist() == [[0, 0]]

    def test_save_load_round_trip_properties(self, tmp_path):
        hypothesis = pytest.importorskip("hypothesis")
        from hypothesis import strategies as st

        tokens = st.text(alphabet="abxy019_-", min_size=1, max_size=3)

        @hypothesis.settings(max_examples=100, deadline=None)
        @hypothesis.given(data=st.data(), seed=st.integers(0, 2**32 - 1))
        def check(data, seed):
            users = sorted(data.draw(st.sets(tokens, min_size=1, max_size=5)))
            items = sorted(data.draw(st.sets(tokens, min_size=1, max_size=5)))
            frames = sorted(data.draw(st.sets(tokens, min_size=len(items), max_size=9)))
            # every item owns a frame; frame tokens are not in item order
            parent = data.draw(st.permutations(
                list(range(len(items))) + data.draw(st.lists(
                    st.integers(0, len(items) - 1),
                    min_size=len(frames) - len(items), max_size=len(frames) - len(items)))))
            dim = data.draw(st.integers(1, 3))
            feats = data.draw(st.lists(
                st.floats(allow_nan=False, allow_infinity=False),
                min_size=len(frames) * dim, max_size=len(frames) * dim))
            ratings = frozenset(
                (u, i) for u in range(len(users))
                for i in data.draw(st.sets(st.integers(0, len(items) - 1), min_size=1)))
            likes = data.draw(st.frozensets(st.tuples(
                st.integers(0, len(users) - 1), st.integers(0, len(frames) - 1))))
            ds = Dataset(
                ratings=ratings, frame_parent=np.array(parent, dtype=np.int64),
                frame_features=np.array(feats).reshape(len(frames), dim),
                user_ids=tuple(users), item_ids=tuple(items), frame_ids=tuple(frames),
            )
            split = split_ratings(ds, 0.5, 0.25, seed=seed, frame_likes=likes)
            out = tmp_path / "out"
            save_dataset(ds, out, frame_likes=likes)
            save_split(split, out)

            back = load_dataset(out / "ratings.tsv", out / "frames.tsv", out / "features.npy")
            assert back == ds
            assert pair_set(load_frame_likes(out / "frame_likes.tsv", back)) == likes
            got = load_split(back, out)
            assert got == split
            # frames.tsv lists the frames item by item, each item's in id order
            order = sorted(range(len(frames)), key=lambda f: (parent[f], f))
            assert (out / "frames.tsv").read_text(encoding="utf-8").splitlines() == [
                f"{frames[f]}\t{items[parent[f]]}" for f in order]
            saved = np.load(out / "features.npy", allow_pickle=False)
            assert saved.dtype == np.float64
            np.testing.assert_array_equal(saved, ds.frame_features[order])

        check()

    def test_pair_files_are_written_in_token_order(self, tmp_path):
        # ids in another order than their tokens, as synthetic "u2" < "u10" ids are
        ds = Dataset(
            ratings=frozenset({(0, 0), (0, 1), (1, 0), (1, 1), (2, 1)}),
            frame_parent=np.array([0, 1, 1], dtype=np.int64),
            frame_features=np.ones((3, 1)),
            user_ids=("u2", "u10", "u1"), item_ids=("i9", "i10"), frame_ids=("f3", "f20", "f1"),
        )
        likes = {(0, 0), (1, 1), (2, 2), (0, 2)}
        split = split_ratings(ds, 0.4, 0.2, seed=0, frame_likes=likes)
        save_dataset(ds, tmp_path, frame_likes=likes)
        save_split(split, tmp_path)
        for name in ("ratings", "frame_likes", "train", "valid", "test", "frame_test"):
            rows = [line.split("\t") for line in
                    (tmp_path / f"{name}.tsv").read_text(encoding="utf-8").splitlines()]
            assert rows == sorted(rows), name
        assert (tmp_path / "ratings.tsv").read_text(encoding="utf-8").startswith("u1\ti10\n")

    def test_token_files_match_the_tuple_sorting_writers(self, tmp_path):
        """_write_pairs and save_dataset's frames file write the oracles' bytes, or, for a
        token with no UTF-8 form, raise as they do and leave no file."""
        hypothesis = pytest.importorskip("hypothesis")
        from hypothesis import strategies as st

        # shared prefixes ("a", "a0", "b"), characters below the tab (so tuples do not sort
        # as their lines do), non-ASCII ones
        tokens = st.one_of(
            st.sampled_from(["a", "a\x00", "a0", "b", "é", "\u4e2d\U0001f600"]),
            st.text(alphabet=["a", "0", "\x00", "\x1f", "é"], min_size=1, max_size=3))

        def written(write, path):
            """The bytes ``write(path)`` leaves, or None if a token does not encode."""
            path.unlink(missing_ok=True)
            try:
                write(path)
            except UnicodeEncodeError:
                return None
            return path.read_bytes()

        @hypothesis.settings(max_examples=200, deadline=None)
        @hypothesis.given(data=st.data())
        def check(data):
            # unsorted token tuples that may repeat a token
            left = data.draw(st.lists(tokens, min_size=1, max_size=6))
            right = tuple(data.draw(st.lists(tokens, min_size=1, max_size=6)))
            if data.draw(st.integers(0, 3)) == 0:  # the surrogate escape of a byte not UTF-8
                left[data.draw(st.integers(0, len(left) - 1))] = "b\udcff"
            left = tuple(left)
            # every pair once, some again, in any order
            grid = [(a, b) for a in range(len(left)) for b in range(len(right))]
            rows = data.draw(st.permutations(grid + data.draw(st.lists(
                st.sampled_from(grid), max_size=6))))
            pairs = np.array(rows, dtype=np.int64)
            want = written(lambda p: reference.write_pairs(p, pairs, left, right),
                           tmp_path / "want.tsv")
            got = written(lambda p: _write_pairs(p, pairs, left, right), tmp_path / "got.tsv")
            assert got == want
            assert want is not None or not (tmp_path / "got.tsv").exists()

            parent = data.draw(st.lists(st.integers(0, len(right) - 1),
                                        min_size=len(left), max_size=len(left)))
            ds = Dataset(ratings=(), frame_parent=np.array(parent, dtype=np.int64),
                         frame_features=np.zeros((len(left), 1)), user_ids=("u",),
                         item_ids=right, frame_ids=left)
            want = written(lambda p: reference.write_frames(p, ds), tmp_path / "want.tsv")
            got = written(lambda p: save_dataset(ds, p.parent), tmp_path / "frames.tsv")
            assert got == want
            assert want is not None or not (tmp_path / "frames.tsv").exists()

        check()

    def test_m_files_load_back_the_same_dataset_and_split(self, tmp_path):
        ds, likes, _ = generate_synthetic(SynthConfig(
            num_users=2000, num_items=3000, frames_per_item=8, feature_dim=64, seed=3))
        split = split_ratings(ds, 0.8, 0.1, seed=4, frame_likes=likes)
        save_dataset(ds, tmp_path, frame_likes=likes)
        save_split(split, tmp_path)
        back = load_dataset(tmp_path / "ratings.tsv", tmp_path / "frames.tsv",
                            tmp_path / "features.npy")
        assert back == ds
        assert load_split(back, tmp_path) == split

    def test_split_check_matches_the_set_based_oracle(self, tmp_path):
        """load_split rejects a saved split with one kind of defect injected exactly as the
        set-based check does: the same error class and text, or no error at all."""
        hypothesis = pytest.importorskip("hypothesis")
        from hypothesis import strategies as st

        defects = ["none", "overlap", "missing", "extra", "unmatched_likes"]

        @hypothesis.settings(max_examples=200, deadline=None)
        @hypothesis.given(data=st.data(), defect=st.sampled_from(defects),
                          seed=st.integers(0, 2**32 - 1))
        def check(data, defect, seed):
            ds = draw_dataset(data, st)
            likes = data.draw(st.frozensets(st.tuples(
                st.integers(0, ds.num_users - 1), st.integers(0, ds.num_frames - 1))))
            split = split_ratings(ds, 0.5, 0.25, seed=seed, frame_likes=likes)
            out = tmp_path / "out"
            save_split(split, out)
            files = ["train.tsv", "valid.tsv", "test.tsv"]
            rated, test = pair_set(ds.ratings), pair_set(split.pairs("test"))

            def pick(pool):
                return data.draw(st.sampled_from(sorted(pool)))

            def add(name, left, right):
                with open(out / name, "a", encoding="utf-8") as fh:
                    fh.write(f"{left}\t{right}\n")

            if defect in ("overlap", "missing"):
                hypothesis.assume(len(rated))
                row = data.draw(st.integers(0, len(rated) - 1))
                (u, i), home = ds.ratings[row].tolist(), files[split.portion[row]]
                if defect == "overlap":
                    add(pick(set(files) - {home}), ds.user_ids[u], ds.item_ids[i])
                else:
                    lines = (out / home).read_text(encoding="utf-8").splitlines(keepends=True)
                    lines.remove(f"{ds.user_ids[u]}\t{ds.item_ids[i]}\n")
                    (out / home).write_text("".join(lines), encoding="utf-8")
            elif defect == "extra":
                unrated = {(u, i) for u in range(ds.num_users) for i in range(ds.num_items)}
                hypothesis.assume(unrated - rated)
                u, i = pick(unrated - rated)
                add(pick(files), ds.user_ids[u], ds.item_ids[i])
            elif defect == "unmatched_likes":
                unmatched = {(u, f) for u in range(ds.num_users) for f in range(ds.num_frames)
                             if (u, int(ds.frame_parent[f])) not in test}
                hypothesis.assume(unmatched)
                for u, f in data.draw(st.lists(st.sampled_from(sorted(unmatched)),
                                               min_size=1, max_size=3)):
                    add("frame_test.tsv", ds.user_ids[u], ds.frame_ids[f])

            def outcome(call):
                try:
                    return call()
                except IntegrityError as exc:
                    return type(exc), str(exc)

            users, items = ds.user_index, ds.item_index
            sets = [pair_set(_read_ids(out / name, users, items)) for name in files]
            sets.append(pair_set(_read_ids(out / "frame_test.tsv", users, ds.frame_index)))
            want = outcome(lambda: reference.check_split(ds, *sets))
            got = outcome(lambda: load_split(ds, out))
            if want is None:
                assert defect == "none" and got == split
            else:
                assert defect != "none" and got == want

        check()

    @pytest.mark.parametrize("name,line", [
        ("train.tsv", "ghost\ti0"),
        ("valid.tsv", "u0\tghost"),
        ("test.tsv", "ghost\ti1"),
        ("frame_test.tsv", "u0\tghost"),
    ])
    def test_split_file_naming_an_unknown_id(self, toy_dataset, tmp_path, name, line):
        split = split_ratings(toy_dataset, 0.5, 0.25, seed=4, frame_likes={(0, 0)})
        save_split(split, tmp_path / "sp")
        path = tmp_path / "sp" / name
        path.write_text(f"# comment\n{line}\n", encoding="utf-8")
        with pytest.raises(IntegrityError, match=rf"{name}:2: unknown id 'ghost'$"):
            load_split(toy_dataset, tmp_path / "sp")
