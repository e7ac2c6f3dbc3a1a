"""Source hygiene checks over the package modules."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "mmnlearn"


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            for arg in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]:
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def unused_imports(source):
    """Imported names a module never reads, in source order.

    A name is read when it occurs as an identifier, inside a string
    annotation, or in a module-level ``__all__`` (a re-export).
    """
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for ann in _annotations(tree):
        for n in ast.walk(ann):
            if isinstance(n, ast.Constant) and isinstance(n.value, str):
                expr = ast.parse(n.value, mode="eval")
                used.update(m.id for m in ast.walk(expr) if isinstance(m, ast.Name))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


def test_unused_imports_checker():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from typing import Iterable, Optional, TextIO\n"
        "from .m import Kept, Dropped\n"
        "__all__ = ['Kept']\n"
        "def f(x: 'Optional[int]') -> None:\n"
        "    return os.sep\n"
    )
    assert unused_imports(source) == ["Iterable", "TextIO", "Dropped"]


def test_no_unused_imports_in_package():
    found = {
        path.name: names
        for path in sorted(SRC.glob("*.py"))
        if (names := unused_imports(path.read_text()))
    }
    assert found == {}
