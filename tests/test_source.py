"""Static checks on the package source and the tools."""

import ast
from pathlib import Path

import pytest

import framerec

SOURCES = sorted(Path(framerec.__file__).parent.glob("*.py"))
TOOLS = sorted((Path(__file__).resolve().parent.parent / "tools").glob("*.py"))


def reads(node) -> set:
    """Names a subtree reads, counting ``x += ...`` as a read of ``x``."""
    found = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            found.add(n.id)
        elif isinstance(n, ast.AugAssign) and isinstance(n.target, ast.Name):
            found.add(n.target.id)
    return found


@pytest.mark.parametrize("path", SOURCES + TOOLS, ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    """A parameter no function body reads is a dead argument every caller still passes."""
    unread = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = node.args
        params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg)
                  if p is not None]
        read = set().union(*(reads(stmt) for stmt in node.body))
        unread += [f"{path.name}:{node.lineno} {node.name}({p})" for p in params if p not in read]
    assert not unread, unread


TREES = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in SOURCES}
HELPERS = [(module, node.name) for module, tree in TREES.items() for node in tree.body
           if isinstance(node, (ast.FunctionDef, ast.ClassDef))
           and node.name.startswith("_") and not node.name.startswith("__")]


@pytest.mark.parametrize("module,name", HELPERS, ids=[f"{m[:-3]}.{n}" for m, n in HELPERS])
def test_every_private_helper_is_referenced(module, name):
    """A module-level private function or class nothing uses is dead code, such as
    a helper left behind when its only caller was folded into another function."""
    definition = next(n for n in TREES[module].body if getattr(n, "name", None) == name)
    inside = {id(n) for n in ast.walk(definition)}
    uses = [n for tree in TREES.values() for n in ast.walk(tree) if id(n) not in inside
            and (isinstance(n, ast.Name) and n.id == name
                 or isinstance(n, ast.Attribute) and n.attr == name)]
    assert uses, f"{module}: {name} is never referenced outside its definition"


@pytest.mark.parametrize("path", [p for p in SOURCES + TOOLS if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_every_import_is_used(path):
    """A name a module imports and never reads is a dead import, such as one left
    behind when the code that used it moved to another module.  ``__init__``
    imports to re-export, so it is not checked."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = [alias.asname or alias.name.split(".")[0]
                for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__" for alias in node.names]
    assert not set(imported) - reads(tree), sorted(set(imported) - reads(tree))


# SplitDataset's set views of its portions, kept for the benchmark's reads alone; they go,
# with this check, when the benchmark reads split.pairs(name) (ROADMAP item 1b).
PORTION_SETS = {"train", "validation", "test"}


@pytest.mark.parametrize("module", sorted(TREES))
def test_no_module_reads_the_portion_sets(module):
    """The package reads a split's portions as id arrays, through ``split.pairs(name)``."""
    found = [f"{module}:{n.lineno}" for n in ast.walk(TREES[module])
             if isinstance(n, ast.Attribute) and n.attr in PORTION_SETS
             or isinstance(n, ast.Call) and getattr(n.func, "id", None) == "getattr"
             and any(isinstance(a, ast.Constant) and a.value in PORTION_SETS for a in n.args)]
    assert not found, found


@pytest.mark.parametrize("module", sorted(set(TREES) - {"model.py"}))
def test_only_the_model_projects_frames(module):
    """``model.score_frames`` is the one frame scorer: no other module multiplies
    the frame features by a projection."""
    found = [f"{module}:{n.lineno}" for n in ast.walk(TREES[module])
             if isinstance(n, ast.BinOp) and isinstance(n.op, ast.MatMult)
             and any(isinstance(a, ast.Attribute) and a.attr == "frame_features"
                     for a in ast.walk(n.left))]
    assert not found, found


def loads(tree, names) -> list:
    """The nodes of ``tree`` that read one of ``names``, as a name or as an attribute."""
    return [n for n in ast.walk(tree) if isinstance(n, (ast.Name, ast.Attribute))
            and isinstance(n.ctx, ast.Load) and getattr(n, "id", getattr(n, "attr", None)) in names]


@pytest.mark.parametrize("module", sorted(TREES))
def test_only_the_runner_sizes_blocks(module):
    """``model._run_blocks`` is the one reader of the block budget and the CPU count;
    every other function hands it the floats one row of its block holds."""
    runner = [n for n in TREES[module].body if getattr(n, "name", None) == "_run_blocks"]
    inside = {id(n) for r in runner for n in ast.walk(r)}
    found = [f"{module}:{n.lineno}" for n in loads(TREES[module], {"CACHE_BLOCK", "_cpus"})
             if id(n) not in inside]
    assert not found, found


def test_synth_calls_only_public_scorers():
    """The generator scores through the model's public functions: it neither imports
    ``model`` as a module nor uses a private ``model`` name."""
    found = [f"synth.py:{n.lineno} {alias.name}" for n in ast.walk(TREES["synth.py"])
             if isinstance(n, (ast.Import, ast.ImportFrom)) for alias in n.names
             if alias.name.split(".")[-1] == "model"
             or getattr(n, "module", None) == "model" and alias.name.startswith("_")]
    found += [f"synth.py:{n.lineno} model.{n.attr}" for n in ast.walk(TREES["synth.py"])
              if isinstance(n, ast.Attribute) and getattr(n.value, "id", None) == "model"]
    assert not found, found


def test_the_runners_flag_is_the_only_per_thread_state():
    """``model._in_worker``, which keeps blocks run from a pool thread on that thread,
    is the package's one ``threading.local``."""
    found = [(module, n.lineno) for module, tree in TREES.items() for n in ast.walk(tree)
             if isinstance(n, ast.Attribute) and n.attr == "local"
             and getattr(n.value, "id", None) == "threading"
             or isinstance(n, ast.ImportFrom) and n.module == "threading"]
    flag = [(module, n.lineno) for module, tree in TREES.items() for n in tree.body
            if isinstance(n, ast.Assign) and ast.unparse(n.targets[0]) == "_in_worker"]
    assert found == flag == [("model.py", flag[0][1])], found
