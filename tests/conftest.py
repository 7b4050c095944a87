"""Shared fixtures: a small handcrafted dataset, data directory and checkpoint helpers."""

import json

import numpy as np
import pytest

from framerec.data import Dataset


@pytest.fixture
def toy_dataset() -> Dataset:
    """3 users, 3 items with 2/1/3 frames, 2-d features, 6 ratings.

    Feature rows are chosen so hand-computed embeddings come out in small
    fractions: item 0 owns frames (1,0) and (0,1), so its mean under an
    identity projection is (0.5, 0.5).
    """
    return Dataset(
        ratings=frozenset({(0, 0), (0, 1), (1, 1), (1, 2), (2, 0), (2, 2)}),
        frame_parent=np.array([0, 0, 1, 2, 2, 2], dtype=np.int64),
        frame_features=np.array(
            [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [2.0, 0.0], [0.0, 2.0], [1.0, 1.0]]
        ),
        user_ids=("u0", "u1", "u2"),
        item_ids=("i0", "i1", "i2"),
        frame_ids=("f0", "f1", "f2", "f3", "f4", "f5"),
    )


def write_dataset_dir(path, ratings, frames, features, frame_likes=None):
    """Write raw TSV texts and ``features.npy`` into a directory and return it.

    ``features`` holds one row per ``frames`` record, in that order.
    """
    path.mkdir(parents=True, exist_ok=True)
    (path / "ratings.tsv").write_text(ratings, encoding="utf-8")
    (path / "frames.tsv").write_text(frames, encoding="utf-8")
    np.save(path / "features.npy", np.asarray(features))
    if frame_likes is not None:
        (path / "frame_likes.tsv").write_text(frame_likes, encoding="utf-8")
    return path


TOY_RATINGS = "a\tx\na\ty\nb\ty\nb\tz\nc\tx\nc\tz\n"
TOY_FRAMES = "fx1\tx\nfx2\tx\nfy1\ty\nfz1\tz\nfz2\tz\nfz3\tz\n"
TOY_FEATURES = ((1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (2.0, 0.0), (0.0, 2.0), (1.0, 1.0))


def pair_set(pairs: np.ndarray) -> set:
    """The rows of an (R, 2) id array as a set of (int, int) tuples."""
    return set(map(tuple, pairs.tolist()))


def read_members(path) -> dict:
    """Every member of a checkpoint archive by name, ``meta`` decoded from its JSON text."""
    with np.load(path, allow_pickle=False) as z:
        members = {name: z[name] for name in z.files}
    members["meta"] = json.loads(str(members["meta"]))
    return members


def write_members(path, members) -> None:
    """Write ``members`` (as ``read_members`` gives them) as an archive at exactly ``path``.

    ``meta`` is encoded back to JSON text; object arrays are pickled.
    """
    with open(path, "wb") as fh:
        np.savez(fh, **{**members, "meta": np.array(json.dumps(members["meta"]))})
