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


def private_self_attributes(source):
    """Underscore attributes a module assigns on ``self``, dunders left out."""
    return {
        node.attr
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
        and isinstance(node.value, ast.Name) and node.value.id == "self"
        and node.attr.startswith("_") and not node.attr.endswith("__")
    }


def foreign_reads(source, names):
    """(attribute, line) of every read of one of ``names`` off an object
    other than ``self``, in source order."""
    return sorted(
        ((node.attr, node.lineno)
         for node in ast.walk(ast.parse(source))
         if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
         and node.attr in names
         and not (isinstance(node.value, ast.Name) and node.value.id == "self")),
        key=lambda r: r[1],
    )


def test_private_state_checker():
    owner = (
        "class Plan:\n"
        "    def __init__(self):\n"
        "        self._steps = []\n"
        "        self._cache: dict = {}\n"
        "        self.public = 1\n"
        "        self.__dict__ = {}\n"
        "    def size(self):\n"
        "        return len(self._steps)\n"
    )
    names = private_self_attributes(owner)
    assert names == {"_steps", "_cache"}
    reader = (
        "def walk(plan, other):\n"
        "    n = plan.public\n"
        "    plan._cache = {}\n"
        "    return plan._steps, other._private, plan.size()._cache\n"
    )
    assert foreign_reads(reader, names) == [("_steps", 4), ("_cache", 4)]


def test_no_module_reads_network_private_state():
    """Other modules read the network and its MMNs only through public
    attributes such as ``Network.wiring``."""
    names = private_self_attributes((SRC / "network.py").read_text())
    found = {
        path.name: reads
        for path in sorted(SRC.glob("*.py"))
        if path.name != "network.py"
        and (reads := foreign_reads(path.read_text(), names))
    }
    assert found == {}
