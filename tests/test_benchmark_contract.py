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

import pytest

from framerec import TrainConfig
from framerec.data import Dataset, SplitDataset
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
