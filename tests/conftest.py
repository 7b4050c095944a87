"""Shared fixtures: a small handcrafted dataset, data directory, checkpoint and
memory helpers, and ``tools/seed_table.py`` as a module."""

import importlib.util
import json
import os
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from framerec import model
from framerec.data import Dataset

SEED_TABLE = Path(__file__).resolve().parent.parent / "tools" / "seed_table.py"


@pytest.fixture(scope="session")
def seed_table():
    """The tool as a module; the environment and search path it sets are restored."""
    spec = importlib.util.spec_from_file_location("seed_table", SEED_TABLE)
    module = importlib.util.module_from_spec(spec)
    with mock.patch.dict(os.environ), mock.patch.object(sys, "path", list(sys.path)):
        spec.loader.exec_module(module)
    return module


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


def traced_peak(fn):
    """``(fn(), peak)``: the result of calling ``fn`` and the peak bytes
    tracemalloc traced while it ran."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def every_item_blocks(monkeypatch, module, budget=None):
    """Spy on the every-item ``score_catalog`` calls that ``module`` makes with a ``keep``.

    Returns a list that gets one list per such call: the sizes of the user
    blocks its ``keep`` saw, in block order.  With ``budget``, those calls
    alone run under ``model.CACHE_BLOCK = budget``, so that a test can size
    their user blocks apart from the table, candidate and frame blocks.
    """
    calls, real = [], module.score_catalog

    def spy(users, *args, keep=None, items=None, **kw):
        if keep is None or items is not None:
            return real(users, *args, keep=keep, items=items, **kw)
        seen = []

        def seen_keep(scores, rows):
            seen.append((rows.start, len(scores)))  # blocks run on several threads
            return keep(scores, rows)

        try:
            with pytest.MonkeyPatch.context() as m:
                if budget is not None:
                    m.setattr(model, "CACHE_BLOCK", budget)
                return real(users, *args, keep=seen_keep, **kw)
        finally:
            calls.append([size for _, size in sorted(seen)])

    monkeypatch.setattr(module, "score_catalog", spy)
    return calls
