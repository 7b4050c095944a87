"""Dataset ingestion, pruning, splitting, and the on-disk TSV formats.

All entities are re-indexed to dense integer ids when a dataset is built.
The original string tokens are retained (sorted, so the mapping is stable)
and every file written back out uses the caller's ids.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .errors import EmptyDatasetError, IntegrityError, ParseError

logger = logging.getLogger(__name__)

RATINGS_FILE = "ratings.tsv"
FRAMES_FILE = "frames.tsv"
FEATURES_FILE = "features.tsv"
FRAME_LIKES_FILE = "frame_likes.tsv"
TRAIN_FILE = "train.tsv"
VALID_FILE = "valid.tsv"
TEST_FILE = "test.tsv"
FRAME_TEST_FILE = "frame_test.tsv"


# ---------------------------------------------------------------------------
# Core types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Dataset:
    """Immutable user/item/frame universe with per-frame feature vectors.

    Ids are dense: users in ``0..num_users-1``, items in ``0..num_items-1``,
    frames in ``0..num_frames-1``.  ``user_ids`` (and friends) map each dense
    id back to its original token.  Instances are safe to share read-only
    across threads.
    """

    num_users: int
    num_items: int
    num_frames: int
    feature_dim: int
    ratings: frozenset
    frames_of_item: tuple
    frame_parent: np.ndarray
    frame_features: np.ndarray
    user_ids: tuple
    item_ids: tuple
    frame_ids: tuple

    @cached_property
    def items_of_user(self) -> tuple:
        """Per-user sorted arrays of rated item ids."""
        per_user = [[] for _ in range(self.num_users)]
        for u, i in sorted(self.ratings):
            per_user[u].append(i)
        return tuple(np.array(lst, dtype=np.int64) for lst in per_user)

    @cached_property
    def frame_table(self):
        """Padded per-item frame index arrays for vectorised scoring.

        Returns (ids, mask, counts) where ids is (N, max_frames) int64 with
        zero padding, mask is the matching bool validity array, and counts
        holds each item's frame count.
        """
        counts = np.array([len(f) for f in self.frames_of_item], dtype=np.int64)
        max_m = int(counts.max()) if self.num_items else 0
        ids = np.zeros((self.num_items, max(max_m, 1)), dtype=np.int64)
        mask = np.zeros_like(ids, dtype=bool)
        for i, frames in enumerate(self.frames_of_item):
            ids[i, : len(frames)] = frames
            mask[i, : len(frames)] = True
        return ids, mask, counts

    def describe(self) -> str:
        return (
            f"{self.num_users} users, {self.num_items} items, "
            f"{self.num_frames} frames (dim {self.feature_dim}), "
            f"{len(self.ratings)} ratings"
        )


@dataclass(frozen=True)
class SplitDataset:
    """A disjoint train/validation/test partition of a dataset's ratings.

    ``frame_test`` holds (user, frame) pairs whose parent (user, item) rating
    landed in the test portion; it is the ground truth for frame ranking.
    """

    base: Dataset
    train: frozenset
    validation: frozenset
    test: frozenset
    frame_test: frozenset
    warnings: tuple = ()

    @cached_property
    def train_array(self) -> np.ndarray:
        if not self.train:
            return np.empty((0, 2), dtype=np.int64)
        return np.array(sorted(self.train), dtype=np.int64)


def check_dataset(d: Dataset) -> None:
    """Raise IntegrityError if any structural invariant is violated.

    Checked: id ranges, feature matrix shape, one parent item per frame,
    and that every rated item has at least one frame.
    """
    if d.frame_features.shape != (d.num_frames, d.feature_dim):
        raise IntegrityError(
            f"feature matrix shape {d.frame_features.shape} does not match "
            f"({d.num_frames}, {d.feature_dim})"
        )
    if d.frame_parent.shape != (d.num_frames,):
        raise IntegrityError("frame_parent length does not match num_frames")
    if d.num_frames and (d.frame_parent.min() < 0 or d.frame_parent.max() >= d.num_items):
        raise IntegrityError("frame_parent references an out-of-range item")
    if len(d.frames_of_item) != d.num_items:
        raise IntegrityError("frames_of_item length does not match num_items")
    seen = set()
    for item, frames in enumerate(d.frames_of_item):
        for f in frames:
            if f in seen:
                raise IntegrityError(f"frame {f} is listed under more than one item")
            seen.add(f)
            if not 0 <= f < d.num_frames:
                raise IntegrityError(f"frame id {f} out of range")
            if d.frame_parent[f] != item:
                raise IntegrityError(f"frame {f} parent mismatch")
    if len(seen) != d.num_frames:
        raise IntegrityError("some frames are not assigned to any item")
    for u, i in d.ratings:
        if not (0 <= u < d.num_users and 0 <= i < d.num_items):
            raise IntegrityError(f"rating ({u}, {i}) out of range")
        if not d.frames_of_item[i]:
            raise IntegrityError(
                f"item {d.item_ids[i]!r} is rated but has no frames"
            )


def check_split(s: SplitDataset) -> None:
    """Raise IntegrityError unless the split partitions the ratings exactly."""
    if s.train & s.validation or s.train & s.test or s.validation & s.test:
        raise IntegrityError("split portions overlap")
    if (s.train | s.validation | s.test) != s.base.ratings:
        raise IntegrityError("split portions do not cover the ratings exactly")
    test_set = s.test
    parent = s.base.frame_parent
    for u, f in s.frame_test:
        if not 0 <= f < s.base.num_frames:
            raise IntegrityError(f"frame_test frame id {f} out of range")
        if (u, int(parent[f])) not in test_set:
            raise IntegrityError(
                f"frame_test pair ({u}, {f}) has no matching test rating"
            )


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def _records(path) -> Iterator:
    """Yield (line_no, line) for non-empty, non-comment lines."""
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n").rstrip("\r")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            yield line_no, line


def _parse_pair_file(path) -> list:
    """Parse a two-column TSV into (line_no, left, right) tuples."""
    out = []
    for line_no, line in _records(path):
        parts = line.split("\t")
        if len(parts) != 2 or not parts[0] or not parts[1]:
            raise ParseError(path, line_no, f"expected two tab-separated ids, got {line!r}")
        if any(ch.isspace() for tok in parts for ch in tok):
            raise ParseError(path, line_no, "ids must not contain whitespace")
        out.append((line_no, parts[0], parts[1]))
    return out


def _build_dataset(
    rating_pairs,
    frame_pairs,
    features,
    feature_dim,
) -> Dataset:
    """Assemble a Dataset from token-level records, enforcing invariants.

    rating_pairs: iterable of (user_token, item_token); frame_pairs:
    iterable of (frame_token, item_token) in file order; features: dict
    frame_token -> 1-D float array.
    """
    user_tokens = sorted({u for u, _ in rating_pairs})
    item_tokens = sorted({i for _, i in rating_pairs} | {i for _, i in frame_pairs})
    frame_tokens = sorted({f for f, _ in frame_pairs})
    user_index = {t: k for k, t in enumerate(user_tokens)}
    item_index = {t: k for k, t in enumerate(item_tokens)}
    frame_index = {t: k for k, t in enumerate(frame_tokens)}

    parent_by_frame = {}
    for f, i in frame_pairs:
        if f in parent_by_frame and parent_by_frame[f] != i:
            raise IntegrityError(
                f"frame {f!r} is assigned to both items {parent_by_frame[f]!r} and {i!r}"
            )
        parent_by_frame[f] = i

    missing = [f for f in frame_tokens if f not in features]
    if missing:
        raise IntegrityError(f"no feature vector for frame {missing[0]!r}")
    unknown = [f for f in features if f not in frame_index]
    if unknown:
        raise IntegrityError(f"features reference unknown frame {unknown[0]!r}")

    num_frames = len(frame_tokens)
    feats = np.zeros((num_frames, feature_dim), dtype=np.float64)
    frame_parent = np.zeros(num_frames, dtype=np.int64)
    frames_of_item = [[] for _ in item_tokens]
    for f in frame_tokens:
        k = frame_index[f]
        feats[k] = features[f]
        item = item_index[parent_by_frame[f]]
        frame_parent[k] = item
        frames_of_item[item].append(k)

    ratings = frozenset(
        (user_index[u], item_index[i]) for u, i in rating_pairs
    )

    d = Dataset(
        num_users=len(user_tokens),
        num_items=len(item_tokens),
        num_frames=num_frames,
        feature_dim=feature_dim,
        ratings=ratings,
        frames_of_item=tuple(tuple(f) for f in frames_of_item),
        frame_parent=frame_parent,
        frame_features=feats,
        user_ids=tuple(user_tokens),
        item_ids=tuple(item_tokens),
        frame_ids=tuple(frame_tokens),
    )
    check_dataset(d)
    return d


def load_dataset(ratings_path, frames_path, features_path) -> Dataset:
    """Load a dataset from the three TSV inputs and densely re-index it.

    Duplicate rating lines collapse to one positive.  Items mentioned only
    in the frames file are kept as unrated items.  Raises ParseError for
    malformed lines and IntegrityError for broken cross-references (a rated
    item without frames, a frame without features, a feature row for an
    unknown frame, or inconsistent feature dimensions).
    """
    rating_pairs = [(u, i) for _, u, i in _parse_pair_file(ratings_path)]
    frame_records = _parse_pair_file(frames_path)
    frame_pairs = [(f, i) for _, f, i in frame_records]

    features = {}
    feature_dim = None
    for line_no, line in _records(features_path):
        head, sep, rest = line.partition("\t")
        if not sep or not head or not rest.strip():
            raise ParseError(
                features_path, line_no, "expected '<frame_id>\\t<v1> <v2> ...'"
            )
        try:
            vec = np.array([float(tok) for tok in rest.split()], dtype=np.float64)
        except ValueError as exc:
            raise ParseError(features_path, line_no, f"bad float: {exc}") from None
        if feature_dim is None:
            feature_dim = vec.size
        elif vec.size != feature_dim:
            raise IntegrityError(
                f"{features_path}:{line_no}: feature dimension {vec.size} "
                f"differs from first row's {feature_dim}"
            )
        if head in features:
            raise IntegrityError(f"duplicate feature row for frame {head!r}")
        features[head] = vec
    if feature_dim is None:
        feature_dim = 0

    seen_pairs = set()
    deduped = []
    for u, i in rating_pairs:
        if (u, i) not in seen_pairs:
            seen_pairs.add((u, i))
            deduped.append((u, i))

    return _build_dataset(deduped, frame_pairs, features, feature_dim)


def load_frame_likes(path, dataset: Dataset) -> frozenset:
    """Load (user, frame) like records and map them to dense ids.

    Records whose user or frame is not present in the dataset (for example
    because pruning removed them) are dropped with a log message; malformed
    lines still raise ParseError.
    """
    user_index = {t: k for k, t in enumerate(dataset.user_ids)}
    frame_index = {t: k for k, t in enumerate(dataset.frame_ids)}
    likes = set()
    dropped = 0
    for _, u, f in _parse_pair_file(path):
        if u in user_index and f in frame_index:
            likes.add((user_index[u], frame_index[f]))
        else:
            dropped += 1
    if dropped:
        logger.info("dropped %d frame likes referencing absent users/frames", dropped)
    return frozenset(likes)


# ---------------------------------------------------------------------------
# Pruning and splitting
# ---------------------------------------------------------------------------


def _subset(dataset: Dataset, keep_users, keep_items) -> Dataset:
    """Re-index a dataset onto the given (sorted) user/item id subsets."""
    keep_users = sorted(keep_users)
    keep_items = sorted(keep_items)
    user_map = {old: new for new, old in enumerate(keep_users)}
    item_map = {old: new for new, old in enumerate(keep_items)}

    keep_frames = []
    for old_item in keep_items:
        keep_frames.extend(dataset.frames_of_item[old_item])
    keep_frames.sort()
    frame_map = {old: new for new, old in enumerate(keep_frames)}

    frames_of_item = tuple(
        tuple(frame_map[f] for f in dataset.frames_of_item[old_item])
        for old_item in keep_items
    )
    frame_parent = np.array(
        [item_map[int(dataset.frame_parent[f])] for f in keep_frames], dtype=np.int64
    )
    features = (
        dataset.frame_features[np.array(keep_frames, dtype=np.int64)]
        if keep_frames
        else np.zeros((0, dataset.feature_dim), dtype=np.float64)
    )
    ratings = frozenset(
        (user_map[u], item_map[i])
        for u, i in dataset.ratings
        if u in user_map and i in item_map
    )
    return Dataset(
        num_users=len(keep_users),
        num_items=len(keep_items),
        num_frames=len(keep_frames),
        feature_dim=dataset.feature_dim,
        ratings=ratings,
        frames_of_item=frames_of_item,
        frame_parent=frame_parent,
        frame_features=features,
        user_ids=tuple(dataset.user_ids[u] for u in keep_users),
        item_ids=tuple(dataset.item_ids[i] for i in keep_items),
        frame_ids=tuple(dataset.frame_ids[f] for f in keep_frames),
    )


def prune_dataset(dataset: Dataset, min_count: int) -> Dataset:
    """Iteratively drop users/items with fewer than min_count ratings.

    Removal cascades until a fixed point: dropping a user can push an item
    below the threshold and vice versa.  Frames of removed items are removed,
    and the result is densely re-indexed.  Raises EmptyDatasetError if
    nothing survives.
    """
    if min_count < 1:
        raise ValueError(f"min_count must be >= 1, got {min_count}")
    users = set(range(dataset.num_users))
    items = set(range(dataset.num_items))
    ratings = set(dataset.ratings)
    while True:
        user_counts = {u: 0 for u in users}
        item_counts = {i: 0 for i in items}
        for u, i in ratings:
            user_counts[u] += 1
            item_counts[i] += 1
        bad_users = {u for u, c in user_counts.items() if c < min_count}
        bad_items = {i for i, c in item_counts.items() if c < min_count}
        if not bad_users and not bad_items:
            break
        users -= bad_users
        items -= bad_items
        ratings = {(u, i) for u, i in ratings if u in users and i in items}
    if not users or not items:
        raise EmptyDatasetError(
            f"pruning with min_count={min_count} removed every user or item"
        )
    return _subset(dataset, users, items)


def split_ratings(
    dataset: Dataset,
    train_frac: float,
    valid_frac: float,
    seed: int,
    per_user: bool = False,
    frame_likes: Iterable = (),
) -> SplitDataset:
    """Randomly partition ratings into train/validation/test portions.

    Counts follow the floor rule: train gets ``floor(R * train_frac)``,
    validation ``floor(R * valid_frac)``, the remainder goes to test (applied
    per user when ``per_user`` is set).  ``frame_likes`` are (user, frame)
    pairs; the ones whose parent (user, item) rating landed in test populate
    ``frame_test``.  Deterministic given the seed.
    """
    if not (0 < train_frac and 0 < valid_frac and train_frac + valid_frac < 1):
        raise ValueError(
            f"fractions out of range: train={train_frac}, valid={valid_frac}"
        )
    rng = np.random.default_rng(seed)
    train, valid, test = set(), set(), set()

    def partition(pairs):
        pairs = sorted(pairs)
        order = rng.permutation(len(pairs))
        n_train = int(len(pairs) * train_frac)
        n_valid = int(len(pairs) * valid_frac)
        for pos, idx in enumerate(order):
            pair = pairs[idx]
            if pos < n_train:
                train.add(pair)
            elif pos < n_train + n_valid:
                valid.add(pair)
            else:
                test.add(pair)

    if per_user:
        by_user = {}
        for u, i in sorted(dataset.ratings):
            by_user.setdefault(u, []).append((u, i))
        for u in sorted(by_user):
            partition(by_user[u])
    else:
        partition(dataset.ratings)

    warnings = []
    trained_users = {u for u, _ in train}
    for u in sorted({u for u, _ in dataset.ratings} - trained_users):
        msg = f"user {dataset.user_ids[u]!r} has no training ratings (cold)"
        warnings.append(msg)
        logger.warning(msg)

    parent = dataset.frame_parent
    frame_test = frozenset(
        (u, f) for u, f in frame_likes if (u, int(parent[f])) in test
    )
    split = SplitDataset(
        base=dataset,
        train=frozenset(train),
        validation=frozenset(valid),
        test=frozenset(test),
        frame_test=frame_test,
        warnings=tuple(warnings),
    )
    check_split(split)
    return split


# ---------------------------------------------------------------------------
# Writing
# ---------------------------------------------------------------------------


def _write_pairs(path, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for left, right in rows:
            fh.write(f"{left}\t{right}\n")


def save_dataset(dataset: Dataset, out_dir, frame_likes=None) -> dict:
    """Write ratings/frames/features (and optionally frame likes) TSVs.

    Feature values are written with repr so a reload reproduces them
    bit-for-bit.  Returns a name -> path dict of everything written.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {
        "ratings": out_dir / RATINGS_FILE,
        "frames": out_dir / FRAMES_FILE,
        "features": out_dir / FEATURES_FILE,
    }
    _write_pairs(
        paths["ratings"],
        sorted((dataset.user_ids[u], dataset.item_ids[i]) for u, i in dataset.ratings),
    )
    _write_pairs(
        paths["frames"],
        [
            (dataset.frame_ids[f], dataset.item_ids[i])
            for i in range(dataset.num_items)
            for f in dataset.frames_of_item[i]
        ],
    )
    with open(paths["features"], "w", encoding="utf-8") as fh:
        for f in range(dataset.num_frames):
            vals = " ".join(repr(float(x)) for x in dataset.frame_features[f])
            fh.write(f"{dataset.frame_ids[f]}\t{vals}\n")
    if frame_likes is not None:
        paths["frame_likes"] = out_dir / FRAME_LIKES_FILE
        _write_pairs(
            paths["frame_likes"],
            sorted((dataset.user_ids[u], dataset.frame_ids[f]) for u, f in frame_likes),
        )
    return paths


def save_split(split: SplitDataset, out_dir) -> dict:
    """Write train/valid/test rating files plus the frame_test file."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    d = split.base
    paths = {}
    for name, pairs in (
        (TRAIN_FILE, split.train),
        (VALID_FILE, split.validation),
        (TEST_FILE, split.test),
    ):
        paths[name] = out_dir / name
        _write_pairs(
            paths[name],
            sorted((d.user_ids[u], d.item_ids[i]) for u, i in pairs),
        )
    paths[FRAME_TEST_FILE] = out_dir / FRAME_TEST_FILE
    _write_pairs(
        paths[FRAME_TEST_FILE],
        sorted((d.user_ids[u], d.frame_ids[f]) for u, f in split.frame_test),
    )
    return paths


def load_split(dataset: Dataset, split_dir) -> SplitDataset:
    """Read a split manifest written by save_split and validate it."""
    split_dir = Path(split_dir)
    user_index = {t: k for k, t in enumerate(dataset.user_ids)}
    item_index = {t: k for k, t in enumerate(dataset.item_ids)}
    frame_index = {t: k for k, t in enumerate(dataset.frame_ids)}

    def read_rating_pairs(name):
        pairs = set()
        for line_no, u, i in _parse_pair_file(split_dir / name):
            if u not in user_index or i not in item_index:
                raise IntegrityError(f"{name}:{line_no}: unknown user or item")
            pairs.add((user_index[u], item_index[i]))
        return frozenset(pairs)

    train = read_rating_pairs(TRAIN_FILE)
    valid = read_rating_pairs(VALID_FILE)
    test = read_rating_pairs(TEST_FILE)
    frame_test = set()
    for line_no, u, f in _parse_pair_file(split_dir / FRAME_TEST_FILE):
        if u not in user_index or f not in frame_index:
            raise IntegrityError(f"{FRAME_TEST_FILE}:{line_no}: unknown user or frame")
        frame_test.add((user_index[u], frame_index[f]))

    split = SplitDataset(
        base=dataset,
        train=train,
        validation=valid,
        test=test,
        frame_test=frozenset(frame_test),
    )
    check_split(split)
    return split
