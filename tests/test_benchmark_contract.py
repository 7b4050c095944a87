"""The benchmark's use of the package: the names and keywords it relies on.

``perfbench/workloads.py`` imports from ``framerec`` and calls the imported
functions directly or through ``rec.call(label, function, *args, **kw)``.
A rename or a dropped keyword in ``src/`` would otherwise show only as
failed benchmark operations.
"""

import ast
import importlib
import inspect
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from framerec import SynthConfig, TrainConfig, generate_synthetic
from framerec.data import (
    FEATURES_FILE,
    FRAMES_FILE,
    RATINGS_FILE,
    Dataset,
    SplitDataset,
    load_dataset,
    load_split,
    save_dataset,
    save_split,
    split_ratings,
)
from framerec.model import VisualTable

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def package_imports(tree) -> dict:
    """Name -> object for every ``from framerec[.data] import name``."""
    found = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in ("framerec", "framerec.data"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), f"{node.module} has no {alias.name}"
                found[alias.asname or alias.name] = getattr(module, alias.name)
    return found


def callee(node):
    """(function, positional args) of a call, looking through ``rec.call(label, f, ...)``."""
    func, args = node.func, node.args
    if isinstance(func, ast.Attribute) and func.attr == "call" and len(args) >= 2:
        return args[1], args[2:]
    return func, args


def package_calls(tree, imported):
    """(line, callee, positional count or None, keyword names) per package call."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func, args = callee(node)
        if isinstance(func, ast.Name) and func.id in imported:
            starred = any(isinstance(a, ast.Starred) for a in args)
            keywords = [k.arg for k in node.keywords if k.arg is not None]
            yield node.lineno, func.id, None if starred else len(args), keywords


@pytest.fixture(scope="module")
def tree():
    if not WORKLOADS.exists():
        pytest.skip("perfbench/workloads.py is not in this checkout")
    return ast.parse(WORKLOADS.read_text(encoding="utf-8"))


def test_imported_names_exist(tree):
    imported = package_imports(tree)
    assert "score_pairs" in imported and "RATINGS_FILE" in imported


def test_calls_bind_to_current_signatures(tree):
    imported = package_imports(tree)
    calls = list(package_calls(tree, imported))
    assert {"batch_gradients", "score_pairs", "item_visual_table"} <= {c[1] for c in calls}
    for line, name, n_positional, keywords in calls:
        signature = inspect.signature(imported[name])
        try:
            signature.bind_partial(*[None] * (n_positional or 0), **dict.fromkeys(keywords))
        except TypeError as exc:
            pytest.fail(f"workloads.py:{line}: {name}{signature} rejects the call: {exc}")


def visual_table_reads(tree) -> set:
    """Attributes read from every name bound to an ``item_visual_table`` result."""
    tables = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            func, _ = callee(node.value)
            if isinstance(func, ast.Name) and func.id == "item_visual_table":
                tables.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id in tables}


# What workloads.py's names hold: a Dataset or a SplitDataset (``self.split`` too).
HELD_BY_NAME = {"base": Dataset, "dataset": Dataset, "split": SplitDataset}


def held_class(node):
    """The class a workloads.py expression holds, judged by its name, or None."""
    if isinstance(node, ast.Name):
        return HELD_BY_NAME.get(node.id)
    if isinstance(node, ast.Attribute):
        if node.attr == "split" and isinstance(node.value, ast.Name) and node.value.id == "self":
            return SplitDataset
        if node.attr == "base" and held_class(node.value) is SplitDataset:
            return Dataset
    return None


def test_dataset_attributes_read_by_the_benchmark_exist(tree):
    reads = {Dataset: set(), SplitDataset: set()}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and held_class(node.value) is not None:
            reads[held_class(node.value)].add(node.attr)
    assert {"num_items", "items_of_user"} <= reads[Dataset]
    assert {"base", "test", "validation", "frame_test"} <= reads[SplitDataset]
    for cls, names in reads.items():
        # dataclass fields without a default are no class attributes; properties are
        missing = {n for n in names if not hasattr(cls, n)} - {f.name for f in fields(cls)}
        assert not missing, f"workloads.py reads {cls.__name__} attributes {sorted(missing)}"


def test_attributes_read_by_the_benchmark_exist(tree):
    reads = visual_table_reads(tree)
    assert "x" in reads
    missing = reads - {f.name for f in fields(VisualTable)}
    assert not missing, f"workloads.py reads VisualTable attributes {sorted(missing)}"
    assert "loss_reduction" in {f.name for f in fields(TrainConfig)}


def test_split_portions_take_the_benchmarks_set_reads(tmp_path):
    """workloads.py reads a split's portions as sets: ``sorted``, ``|`` and ``len``."""
    ds, likes, _ = generate_synthetic(SynthConfig(
        num_users=12, num_items=20, frames_per_item=3, feature_dim=4, latent_dim=3,
        ratings_per_user=5))
    made = split_ratings(ds, 0.7, 0.1, seed=0, frame_likes=likes)
    save_dataset(ds, tmp_path, frame_likes=likes)
    save_split(made, tmp_path)
    loaded = load_split(load_dataset(tmp_path / RATINGS_FILE, tmp_path / FRAMES_FILE,
                                     tmp_path / FEATURES_FILE), tmp_path)
    for split in (made, loaded):
        held_out = np.array(sorted(split.test | split.validation), dtype=np.int64)
        assert held_out.shape == (len(split.test) + len(split.validation), 2)
        valid = np.array(sorted(split.validation), dtype=np.int64)
        assert valid.shape == (len(split.validation), 2)
        assert len(split.frame_test) > 0
        base = split.base
        every = split.train | split.validation | split.test
        assert [len(base.items_of_user[u]) for u, _ in sorted(split.test)] == [
            sum(v == u for v, _ in every) for u, _ in sorted(split.test)]
