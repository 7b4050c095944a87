"""Static checks on the package source."""

import ast
from pathlib import Path

import pytest

import framerec

SOURCES = sorted(Path(framerec.__file__).parent.glob("*.py"))


def reads(node) -> set:
    """Names a subtree reads, counting ``x += ...`` as a read of ``x``."""
    found = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            found.add(n.id)
        elif isinstance(n, ast.AugAssign) and isinstance(n.target, ast.Name):
            found.add(n.target.id)
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
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
