"""Dataset ingestion, pruning, splitting, and the on-disk TSV and ``.npy`` formats.

All entities are re-indexed to dense integer ids when a dataset is built.
The original string tokens are retained (sorted, so the mapping is stable)
and every file written back out uses the caller's ids.
"""

from __future__ import annotations

import logging
import os
import re
import uuid
from contextlib import contextmanager
from dataclasses import dataclass, fields
from functools import cached_property
from itertools import compress, islice, repeat
from pathlib import Path

import numpy as np

from .errors import ConfigError, EmptyDatasetError, IntegrityError, ParseError, check_seed

logger = logging.getLogger(__name__)

RATINGS_FILE = "ratings.tsv"
FRAMES_FILE = "frames.tsv"
FEATURES_FILE = "features.npy"
FRAME_LIKES_FILE = "frame_likes.tsv"
FRAME_TEST_FILE = "frame_test.tsv"
# A split's portions, in the order of their labels in SplitDataset.portion, and their files.
PORTIONS = ("train", "validation", "test")
SPLIT_FILES = ("train.tsv", "valid.tsv", "test.tsv")


# ---------------------------------------------------------------------------
# Core types
# ---------------------------------------------------------------------------


def _fields_equal(a, b) -> bool:
    """Dataclass equality that compares the array fields by value."""
    if type(a) is not type(b):
        return NotImplemented
    return all(
        np.array_equal(mine, theirs) if isinstance(mine, np.ndarray) else mine == theirs
        for mine, theirs in ((getattr(a, f.name), getattr(b, f.name)) for f in fields(a))
    )


@dataclass(frozen=True)
class Dataset:
    """Immutable user/item/frame universe with per-frame feature vectors.

    Ids are dense: users in ``0..num_users-1``, items in ``0..num_items-1``,
    frames in ``0..num_frames-1``.  ``ratings`` holds one (user, item) row per
    rating in an (R, 2) int64 array, sorted by user and then item; the pairs
    given (an array, a set of tuples, a ``zip``) are brought to that form.
    ``frame_parent`` names each frame's item.
    ``user_ids`` (and friends) map each dense id back to its original token,
    and their lengths are the sizes; ``user_index`` (and friends) map each
    token to its id, built once per dataset for every file read against it.
    Instances are safe to share read-only across threads.
    """

    ratings: np.ndarray
    frame_parent: np.ndarray
    frame_features: np.ndarray
    user_ids: tuple
    item_ids: tuple
    frame_ids: tuple

    __eq__ = _fields_equal

    def __post_init__(self):
        object.__setattr__(self, "ratings", _pair_array(self.ratings))

    @property
    def num_users(self) -> int:
        return len(self.user_ids)

    @property
    def num_items(self) -> int:
        return len(self.item_ids)

    @property
    def num_frames(self) -> int:
        return len(self.frame_ids)

    @property
    def feature_dim(self) -> int:
        return self.frame_features.shape[1]

    @cached_property
    def items_of_user(self) -> tuple:
        """Per-user sorted arrays of rated item ids: slices of one copy of ``ratings[:, 1]``."""
        ends = np.cumsum(np.bincount(self.ratings[:, 0], minlength=self.num_users)).tolist()
        items = np.ascontiguousarray(self.ratings[:, 1])
        return tuple(items[lo:hi] for lo, hi in zip([0] + ends, ends))

    @cached_property
    def frame_table(self):
        """Padded per-item frame index arrays for vectorised scoring.

        Returns (ids, mask, counts) where ids is (N, max_frames) int64 with
        each item's frames in ascending order and zero padding, mask is the
        matching bool validity array, and counts holds each item's frame count.
        """
        counts = np.bincount(self.frame_parent, minlength=self.num_items)
        order = np.argsort(self.frame_parent, kind="stable")
        ids = np.zeros((self.num_items, max(int(counts.max(initial=0)), 1)), dtype=np.int64)
        # each frame's position among its item's frames: rank minus the item's first rank
        slot = np.arange(len(order)) - np.repeat(np.cumsum(counts) - counts, counts)
        ids[self.frame_parent[order], slot] = order
        return ids, np.arange(ids.shape[1]) < counts[:, None], counts

    @cached_property
    def padded_features(self) -> np.ndarray:
        """The (N, max_frames, F) features ``frame_features[frame_table[0]]``, held once.

        When the frames are stored item by item, each item with as many as
        the others (the layout ``save_dataset`` writes), this is a reshaped
        view of ``frame_features``; otherwise it is one gathered copy.
        """
        ids = self.frame_table[0]
        if ids.size == self.num_frames and (ids.ravel() == np.arange(ids.size)).all():
            return self.frame_features.reshape(*ids.shape, self.feature_dim)
        return self.frame_features[ids]

    @cached_property
    def _pool_keys(self):
        """(start, keys): each user's first row in ``ratings``, and per rating
        ``user * N`` plus the count of the user's unrated items below the item."""
        users, items = self.ratings.T
        counts = np.bincount(users, minlength=self.num_users)
        start = np.cumsum(counts) - counts
        return start, users * self.num_items + items - (np.arange(len(users)) - start[users])

    def unrated_items(self, users, k) -> np.ndarray:
        """The item at pool index ``k`` of each of ``users``: its k-th (0-based) unrated item.

        ``users`` and ``k`` are id arrays that broadcast together, and each k
        lies below its user's count of unrated items.  The k-th unrated item
        is k plus the rated items with at most k unrated ones below them,
        found by one ``searchsorted`` over all ratings.
        """
        start, keys = self._pool_keys
        users, k = np.asarray(users), np.asarray(k)
        return k + np.searchsorted(keys, users * self.num_items + k, side="right") - start[users]

    user_index = cached_property(lambda self: _index(self.user_ids))
    item_index = cached_property(lambda self: _index(self.item_ids))
    frame_index = cached_property(lambda self: _index(self.frame_ids))

    def describe(self) -> str:
        return (
            f"{self.num_users} users, {self.num_items} items, "
            f"{self.num_frames} frames (dim {self.feature_dim}), "
            f"{len(self.ratings)} ratings"
        )


@dataclass(frozen=True)
class SplitDataset:
    """A train/validation/test partition of a dataset's ratings.

    ``portion`` labels each row of ``base.ratings`` with its portion's index in
    PORTIONS, so no rating is in two portions or in none; ``pairs(name)`` gives
    a portion's rows.  ``frame_test``, the ground truth for frame ranking, is a
    sorted (L, 2) int64 array of the (user, frame) likes of test ratings.
    """

    base: Dataset
    portion: np.ndarray
    frame_test: np.ndarray

    __eq__ = _fields_equal

    def pairs(self, name: str) -> np.ndarray:
        """The sorted (user, item) rows of the portion ``name``, one of PORTIONS."""
        return self.base.ratings[self.portion == PORTIONS.index(name)]

    # The portions as frozensets of (user, item) tuples, only for perfbench/workloads.py's
    # set reads until ROADMAP item 1b changes them; the package reads pairs(name).
    train = property(lambda self: frozenset(map(tuple, self.pairs("train").tolist())))
    validation = property(lambda self: frozenset(map(tuple, self.pairs("validation").tolist())))
    test = property(lambda self: frozenset(map(tuple, self.pairs("test").tolist())))


def _pair_array(pairs) -> np.ndarray:
    """Integer pairs (an array or an iterable of pairs) as sorted, unique (R, 2) int64 rows."""
    try:
        arr = np.asarray(pairs if isinstance(pairs, np.ndarray) else list(pairs))
    except ValueError as exc:  # pairs of different lengths
        raise IntegrityError(f"ratings are not (user, item) pairs: {exc}") from None
    arr = np.empty((0, 2), dtype=np.int64) if arr.shape == (0,) else arr  # from an empty set
    if arr.dtype.kind not in "iu" or arr.ndim != 2 or arr.shape[1] != 2:
        raise IntegrityError(f"ratings must be integer (user, item) pairs, "
                             f"got {arr.dtype} {arr.shape}")
    arr = arr.astype(np.int64)
    users, items = arr.T
    # rows strictly increasing in (user, item) are sorted and unique already
    if ((users[1:] > users[:-1]) | (users[1:] == users[:-1]) & (items[1:] > items[:-1])).all():
        return arr
    arr = arr[np.lexsort((items, users))]
    return arr[np.r_[True, (arr[1:] != arr[:-1]).any(axis=1)]]


def check_dataset(d: Dataset) -> None:
    """Raise IntegrityError if any structural invariant is violated.

    Checked: one feature row and one parent per frame id, id ranges, and
    that every rated item has at least one frame; the first bad rating is named.
    """
    if d.frame_features.ndim != 2 or len(d.frame_features) != d.num_frames:
        raise IntegrityError(
            f"feature matrix shape {d.frame_features.shape} does not match "
            f"{d.num_frames} frame ids"
        )
    if d.frame_parent.shape != (d.num_frames,):
        raise IntegrityError(
            f"frame_parent shape {d.frame_parent.shape} does not match {d.num_frames} frame ids"
        )
    if d.num_frames and (d.frame_parent.min() < 0 or d.frame_parent.max() >= d.num_items):
        raise IntegrityError("frame_parent references an out-of-range item")
    users, items = d.ratings.T
    bad = (users < 0) | (users >= d.num_users) | (items < 0) | (items >= d.num_items)
    if bad.any():
        u, i = d.ratings[bad.argmax()].tolist()
        raise IntegrityError(f"rating ({u}, {i}) out of range")
    frameless = d.frame_table[2][items] == 0
    if frameless.any():
        raise IntegrityError(
            f"item {d.item_ids[items[frameless.argmax()]]!r} is rated but has no frames"
        )


def _liked_in_test(dataset: Dataset, portion: np.ndarray, likes: np.ndarray) -> np.ndarray:
    """Whether each (user, frame) like's parent (user, item) rating is labelled test;
    IntegrityError, naming the first such like, for a frame id out of range."""
    users, frames = likes.T
    bad = (frames < 0) | (frames >= dataset.num_frames)
    if bad.any():
        u, f = likes[bad.argmax()].tolist()
        raise IntegrityError(f"frame like ({u}, {f}): frame id out of range")
    n, test = dataset.num_items, dataset.ratings[portion == PORTIONS.index("test")]
    keys = test[:, 0] * n + test[:, 1]  # sorted and unique, as the rows are
    want = users * n + dataset.frame_parent[frames]
    return np.searchsorted(keys, want, side="right") > np.searchsorted(keys, want)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


# A file is read with "\n" put before and after it, so that a "\n" starts each line.  A blank
# line, or one whose first non-space character is "#", is skipped; any other is a record, two
# ids around one tab.  \s is exactly str.isspace; a byte that is not UTF-8 reads as U+DC80-DCFF.
# An id character is any other code point.  _ID spells that set out as the runs of code points
# left between the 29 str.isspace ones and U+DC80-DCFF, found by a scan of all 0x110000 code
# points: the regex engine tests a character against 12 ranges faster than against the negated
# class [^\s\udc80-\udcff], and the reader spends most of its time there.  A test holds _ID to
# that set over every code point.
_ID = (r"[\x00-\x08\x0e-\x1b\x21-\x84\x86-\x9f\xa1-\u167f\u1681-\u1fff"
       r"\u200b-\u2027\u202a-\u202e\u2030-\u205e\u2060-\u2fff\u3001-\udc7f\udd00-\U0010ffff]")
_SKIPPED = re.compile(r"\n[^\S\n]*(?:#[^\n\udc80-\udcff]*)?(?=\n)")
_LINES = re.compile(rf"(?:\n{_ID}+\t{_ID}+(?=\n)|{_SKIPPED.pattern})*")
_RECORD = re.compile(r"\n(?=[^\s#])")


def _text(path) -> str:
    r"""``path``'s text as ``_LINES`` reads it: a leading BOM dropped, "\r\n" and "\r" as "\n"."""
    return f"\n{Path(path).read_text(encoding='utf-8-sig', errors='surrogateescape')}\n"


def _read_pairs(path) -> tuple:
    """A two-column TSV's left and right ids, as two lists with one entry per record."""
    text = _text(path)
    end = _LINES.match(text).end()  # the "\n" before the first line the pattern rejects, if any
    if end < len(text) - 1:
        line_no, line = text.count("\n", 0, end + 1), text[end + 1:text.index("\n", end + 1)]
        try:
            line.encode("utf-8")
        except UnicodeEncodeError:
            raise ParseError(path, line_no, "not valid UTF-8") from None
        parts = line.split("\t")
        if len(parts) != 2 or not parts[0] or not parts[1]:
            raise ParseError(path, line_no, f"expected two tab-separated ids, got {line!r}")
        raise ParseError(path, line_no, "ids must not contain whitespace")  # all that is left
    tokens = (_SKIPPED.sub("", text) if "#" in text else text).split()  # comments drop out
    return tokens[0::2], tokens[1::2]


def _line_of(path, record: int) -> int:
    """The number of the line holding record ``record`` (0-based) of a file that reads."""
    text = _text(path)
    return text.count("\n", 0, next(islice(_RECORD.finditer(text), record, None)).start() + 1)


def _index(tokens) -> dict:
    """``{token: position}``: the dense id of each token in a sorted id tuple."""
    return {t: k for k, t in enumerate(tokens)}


def _ids(tokens, index: dict) -> np.ndarray:
    """Each token's id in ``index`` as an int64 array, -1 where it has none."""
    return np.fromiter(map(index.get, tokens, repeat(-1)), np.int64, len(tokens))


def _read_ids(path, left: dict, right: dict, drop_unknown: bool = False) -> np.ndarray:
    """Read a two-column token file as sorted, unique (left id, right id) int64 rows.

    ``left`` and ``right`` are the ``{token: id}`` indexes of the two columns
    (a Dataset's ``user_index`` and friends).  A line naming an absent token
    raises IntegrityError with the file and line, or, with ``drop_unknown``,
    is skipped and counted in the log.
    """
    a, b = _read_pairs(path)
    ia, ib = _ids(a, left), _ids(b, right)
    known = (ia >= 0) & (ib >= 0)
    if not known.all():
        k = int(known.argmin())
        if not drop_unknown:
            raise IntegrityError(f"{path}:{_line_of(path, k)}: unknown id "
                                 f"{b[k] if ia[k] >= 0 else a[k]!r}")
        logger.info("%s: dropped %d lines naming absent ids", path, len(a) - known.sum())
    return _pair_array(np.column_stack([ia[known], ib[known]]))


def load_dataset(ratings_path, frames_path, features_path) -> Dataset:
    """Load a dataset from ``ratings.tsv``, ``frames.tsv`` and ``features.npy``.

    The features file is a 2-D float ``.npy`` array (no pickles) whose row k
    belongs to the k-th record of the frames file.  When the frames file
    lists the frames in sorted-token order (its token list equals its sorted
    copy), as ``save_dataset`` writes a dataset whose frame ids run item by
    item (synthetic data does), the array as read becomes ``frame_features``,
    converted to float64 if it is not; otherwise each frame's record is found
    by dict lookup and the rows are gathered once into that order.  Either
    way at most one copy sits beside the array as read.  The ``{token: id}``
    dicts built while reading become the dataset's ``user_index`` and
    ``item_index``, and, when the frames file is in sorted-token order, the
    frame dict built to find each frame's row becomes its ``frame_index``;
    the other per-record tokens are freed before the features are read.
    Duplicate rating lines collapse to one positive; items only in the
    frames file are kept unrated.
    Raises ParseError for malformed lines and IntegrityError for broken
    cross-references (a rated item without frames, a frame listed twice) and
    for a feature array of the wrong shape or dtype or with a non-finite value.
    """
    users, rated = _read_pairs(ratings_path)
    frames, parents = _read_pairs(frames_path)
    n = len(frames)
    row_of = dict(zip(reversed(frames), range(n - 1, -1, -1)))  # each frame's first row
    if len(row_of) < n:
        k = int((_ids(frames, row_of) != np.arange(n)).argmax())  # the first repeat
        raise IntegrityError(f"{frames_path}:{_line_of(frames_path, k)}: "
                             f"frame {frames[k]!r} is listed twice")
    frame_tokens = sorted(row_of)
    in_order = frames == frame_tokens  # then row_of is _index(frame_tokens)
    rows = slice(None) if in_order else _ids(frame_tokens, row_of)  # each frame id's record
    frame_index = row_of if in_order else None
    user_tokens = sorted(set(users))
    item_tokens = sorted(set(rated).union(parents))
    user_index, item_index = _index(user_tokens), _index(item_tokens)
    ratings = np.column_stack([_ids(users, user_index), _ids(rated, item_index)])
    frame_parent = _ids(parents, item_index)[rows]
    del users, rated, frames, parents, row_of  # a token per record, freed before the features
    try:
        with open(features_path, "rb") as fh:
            features = np.lib.format.read_array(fh, allow_pickle=False)
    except ValueError as exc:
        raise IntegrityError(f"{features_path}: not a .npy array: {exc}") from None
    if (features.dtype.kind != "f" or features.ndim != 2 or len(features) != n
            or (n and not features.shape[1])):
        raise IntegrityError(f"{features_path}: want a float array with one row for each of "
                             f"the {n} records of {frames_path} and at "
                             f"least one column, got {features.dtype} {features.shape}")
    # the whole-array test is the cheap one; the first bad row is looked for only on failure
    if not np.isfinite(features).all():
        bad = np.isfinite(features).all(axis=1).argmin()
        raise IntegrityError(f"{features_path}: row {bad} is not finite")
    if not in_order:
        # one gather in the dtype as read; rebinding frees the array as read
        features = features[rows]
    d = Dataset(
        ratings=ratings,
        frame_parent=frame_parent,
        frame_features=np.ascontiguousarray(features, dtype=np.float64),
        user_ids=tuple(user_tokens),
        item_ids=tuple(item_tokens),
        frame_ids=tuple(frame_tokens),
    )
    check_dataset(d)
    # the cached indexes, so that reading a split against d does not build them again
    object.__setattr__(d, "user_index", user_index)
    object.__setattr__(d, "item_index", item_index)
    if frame_index is not None:
        object.__setattr__(d, "frame_index", frame_index)
    return d


def load_frame_likes(path, dataset: Dataset) -> np.ndarray:
    """Load (user, frame) like records as sorted, unique (L, 2) int64 id rows.

    Records whose user or frame is not present in the dataset (for example
    because pruning removed them) are dropped with a log message; malformed
    lines still raise ParseError.
    """
    return _read_ids(path, dataset.user_index, dataset.frame_index, drop_unknown=True)


# ---------------------------------------------------------------------------
# Pruning and splitting
# ---------------------------------------------------------------------------


def prune_dataset(dataset: Dataset, min_count: int) -> Dataset:
    """Iteratively drop users/items with fewer than min_count ratings.

    Removal cascades until a fixed point: dropping a user can push an item
    below the threshold and vice versa.  Frames of removed items are removed,
    and the result is densely re-indexed.  Raises EmptyDatasetError if
    nothing survives.
    """
    if min_count < 1:
        raise ConfigError(f"min_count must be >= 1, got {min_count}")
    pairs = dataset.ratings
    while True:
        users = np.bincount(pairs[:, 0], minlength=dataset.num_users) >= min_count
        items = np.bincount(pairs[:, 1], minlength=dataset.num_items) >= min_count
        live = users[pairs[:, 0]] & items[pairs[:, 1]]
        if live.all():
            break
        pairs = pairs[live]
    if not users.any() or not items.any():
        raise EmptyDatasetError(
            f"pruning with min_count={min_count} removed every user or item"
        )
    # a kept entity's new id is the number of kept entities before it
    user_map, item_map = np.cumsum(users) - 1, np.cumsum(items) - 1
    frames = items[dataset.frame_parent]
    return Dataset(
        ratings=np.column_stack([user_map[pairs[:, 0]], item_map[pairs[:, 1]]]),
        frame_parent=item_map[dataset.frame_parent[frames]],
        frame_features=dataset.frame_features[frames],
        user_ids=tuple(compress(dataset.user_ids, users)),
        item_ids=tuple(compress(dataset.item_ids, items)),
        frame_ids=tuple(compress(dataset.frame_ids, frames)),
    )


def split_ratings(
    dataset: Dataset,
    train_frac: float,
    valid_frac: float,
    seed: int,
    per_user: bool = False,
    frame_likes=(),
) -> SplitDataset:
    """Randomly label each rating train, validation or test.

    Counts follow the floor rule: train gets ``floor(R * train_frac)``,
    validation ``floor(R * valid_frac)``, the remainder goes to test (applied
    per user when ``per_user`` is set).  ``frame_likes`` are (user, frame)
    pairs (an array or an iterable of pairs); the ones whose parent (user,
    item) rating landed in test make up ``frame_test``, and a frame id out of
    range raises IntegrityError.  Deterministic given the seed.
    """
    if not (0 < train_frac and 0 < valid_frac and train_frac + valid_frac < 1):
        raise ConfigError(
            f"fractions must be positive with a sum below 1, got "
            f"train={train_frac}, valid={valid_frac}"
        )
    check_seed(seed)
    rng = np.random.default_rng(seed)
    ratings = dataset.ratings
    counts = np.bincount(ratings[:, 0], minlength=dataset.num_users)
    portion = np.empty(len(ratings), dtype=np.int8)  # 0 train, 1 validation, 2 test
    lo = 0
    # each group is a run of rows: one user's (rows are sorted by user) or all of them;
    # a user without ratings is an empty group, and permutation(0) draws nothing
    for n in (counts.tolist() if per_user else [len(ratings)]):
        n_train, n_valid = int(n * train_frac), int(n * valid_frac)
        portion[lo + rng.permutation(n)] = np.repeat(
            [0, 1, 2], [n_train, n_valid, n - n_train - n_valid])
        lo += n

    trained = np.bincount(ratings[portion == 0, 0], minlength=dataset.num_users)
    for u in np.flatnonzero((counts > 0) & (trained == 0)).tolist():
        logger.warning("user %r has no training ratings (cold)", dataset.user_ids[u])

    likes = _pair_array(frame_likes)
    return SplitDataset(dataset, portion, likes[_liked_in_test(dataset, portion, likes)])


# ---------------------------------------------------------------------------
# Writing
# ---------------------------------------------------------------------------


@contextmanager
def atomic_writer(path, binary: bool = False):
    """Open ``path`` for UTF-8 text (or bytes) so that it is replaced whole or not at all.

    Creates ``path``'s directory if it is missing.  The block writes a
    temporary file in the same directory, which replaces ``path`` through
    ``os.replace`` when the block completes.  If the block raises, the
    temporary file is removed and ``path`` is left as it was.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with (open(tmp, "xb") if binary else open(tmp, "x", encoding="utf-8")) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _token_ranks(tokens) -> np.ndarray:
    """Each token's rank in sorted order, as an int64 array; equal tokens share a rank."""
    tokens = np.array(tokens, dtype=object)
    order = np.argsort(tokens, kind="stable")
    ranks = np.empty(len(tokens), dtype=np.int64)
    ranks[order] = np.cumsum(np.r_[False, tokens[order[1:]] != tokens[order[:-1]]])
    return ranks


def _write_rows(path, left, right, left_ids, right_ids) -> None:
    """Write line k as the tokens ``left_ids[left[k]]`` and ``right_ids[right[k]]`` around a tab.

    Each column's tokens are looked up once, as an object array in id order,
    and the lines are joined into one string and written in one call.
    """
    cells = np.empty((len(left), 4), dtype=object)
    cells[:, 0] = np.array(left_ids, dtype=object)[left]
    cells[:, 1] = "\t"
    cells[:, 2] = np.array(right_ids, dtype=object)[right]
    cells[:, 3] = "\n"
    with atomic_writer(path) as fh:
        fh.write("".join(cells.ravel().tolist()))


def _write_pairs(path, pairs: np.ndarray, left_ids, right_ids) -> None:
    """Write (left id, right id) rows as their tokens, one line each, in token order.

    The rows are ordered by one key each, the left token's rank times the
    number of right ids plus the right token's rank (``_token_ranks``): the
    order of the (left token, right token) tuples, whatever order the ids run
    in, with equal lines side by side.
    """
    left, right = _token_ranks(left_ids)[pairs[:, 0]], _token_ranks(right_ids)[pairs[:, 1]]
    rows = pairs[np.argsort(left * len(right_ids) + right, kind="stable")]
    _write_rows(path, rows[:, 0], rows[:, 1], left_ids, right_ids)


def save_dataset(dataset: Dataset, out_dir, frame_likes=None) -> dict:
    """Write ``ratings.tsv``, ``frames.tsv``, ``features.npy`` (and optionally frame likes).

    Frames are written item by item, each item's in id order, and row k of
    ``features.npy`` holds the k-th frame's features, written by numpy's
    ``.npy`` writer so a reload reproduces them bit-for-bit.  The pair files
    are in token order (``_write_pairs``); every token file is built from the
    id arrays and written in one call (``_write_rows``).  Returns a name ->
    path dict of everything written.
    """
    out_dir = Path(out_dir)
    paths = {
        "ratings": out_dir / RATINGS_FILE,
        "frames": out_dir / FRAMES_FILE,
        "features": out_dir / FEATURES_FILE,
    }
    d = dataset
    _write_pairs(paths["ratings"], d.ratings, d.user_ids, d.item_ids)
    ids, mask, _ = d.frame_table
    frames = ids[mask]
    _write_rows(paths["frames"], frames, d.frame_parent[frames], d.frame_ids, d.item_ids)
    with atomic_writer(paths["features"], binary=True) as fh:
        np.save(fh, d.frame_features[frames], allow_pickle=False)
    if frame_likes is not None:
        paths["frame_likes"] = out_dir / FRAME_LIKES_FILE
        _write_pairs(paths["frame_likes"], _pair_array(frame_likes), d.user_ids, d.frame_ids)
    return paths


def save_split(split: SplitDataset, out_dir) -> dict:
    """Write train/valid/test rating files plus the frame_test file."""
    out_dir = Path(out_dir)
    d = split.base
    paths = {name: out_dir / name for name in (*SPLIT_FILES, FRAME_TEST_FILE)}
    for name, portion in zip(SPLIT_FILES, PORTIONS):
        _write_pairs(paths[name], split.pairs(portion), d.user_ids, d.item_ids)
    _write_pairs(paths[FRAME_TEST_FILE], split.frame_test, d.user_ids, d.frame_ids)
    return paths


def load_split(dataset: Dataset, split_dir) -> SplitDataset:
    """Read a split manifest written by save_split and validate it.

    A line naming a user, item or frame absent from ``dataset`` raises
    IntegrityError with the file and line.  So does a pair listed in two
    portion files, portion files whose pairs are not exactly the dataset's
    ratings, and a frame_test pair whose parent rating is not in the test
    file; the first such frame_test pair in sorted order is named.  The
    merged portions are sorted by one key per pair, ``user * num_items +
    item``, which orders them as the ratings are, and a pair in two
    portions shows as two equal keys side by side.
    """
    split_dir = Path(split_dir)
    users, items = dataset.user_index, dataset.item_index
    portions = [_read_ids(split_dir / name, users, items) for name in SPLIT_FILES]
    pairs = np.concatenate(portions)
    keys = pairs[:, 0] * dataset.num_items + pairs[:, 1]
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    if (keys[1:] == keys[:-1]).any():
        raise IntegrityError("split portions overlap")
    union = pairs[order]
    if not np.array_equal(union, dataset.ratings):
        raise IntegrityError("split portions do not cover the ratings exactly")
    portion = np.repeat(np.arange(len(portions), dtype=np.int8), list(map(len, portions)))
    split = SplitDataset(dataset, portion[order],
                         _read_ids(split_dir / FRAME_TEST_FILE, users, dataset.frame_index))
    matched = _liked_in_test(dataset, split.portion, split.frame_test)
    if not matched.all():
        u, f = split.frame_test[matched.argmin()].tolist()
        raise IntegrityError(f"frame_test pair ({u}, {f}) has no matching test rating")
    return split
