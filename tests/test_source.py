"""Source hygiene checks over the package modules."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "mmnlearn"


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


def defined_names(source):
    """(name, line) of every function, method and class a module defines,
    dunders left out, in source order."""
    return sorted(
        ((node.name, node.lineno)
         for node in ast.walk(ast.parse(source))
         if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
         and not (node.name.startswith("__") and node.name.endswith("__"))),
        key=lambda d: d[1],
    )


def referenced_names(source):
    """Identifiers a module reads: names, attributes, imported names, and
    string constants that are identifiers (``getattr``-style lookups)."""
    refs = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.alias):
            refs.add(node.name.split(".")[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                refs.add(node.value)
    return refs


def test_dead_definitions_checker():
    source = (
        "class Used:\n"
        "    def __init__(self): pass\n"
        "    def method(self): return helper()\n"
        "    def orphan(self): pass\n"
        "def helper(): pass\n"
        "def looked_up(): pass\n"
        "def dead(): pass\n"
        "x = Used().method, getattr(Used, 'looked_up')\n"
    )
    refs = referenced_names(source)
    assert [d for d in defined_names(source) if d[0] not in refs] == [
        ("orphan", 4), ("dead", 7)
    ]


def test_no_dead_definitions_in_package():
    """Every function, method and class of the package is referenced
    somewhere in ``src/``, ``tests/`` or ``perfbench/``."""
    refs = set()
    for top in ("src", "tests", "perfbench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            refs |= referenced_names(path.read_text())
    dead = [
        "%s:%d %s" % (path.name, line, name)
        for path in sorted(SRC.glob("*.py"))
        for name, line in defined_names(path.read_text())
        if name not in refs
    ]
    assert dead == []
