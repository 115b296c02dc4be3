"""Every name that a module of the package binds with `from ... import` is
used in that module, so code that is deleted leaves no stale import behind;
and every name that a module of the package, `tests/reference.py` or
`tests/cases.py` defines at top level is referenced somewhere in the package
or its tests, so code that nothing calls is deleted too.

`__init__.py` is skipped by the import check: it imports names to export them.
The modules are parsed, not imported; a name counts as used where it is read as
a name, annotations included.
"""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

import lcplie

PACKAGE = sorted(Path(lcplie.__file__).resolve().parent.glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))
# the modules every test draws on: a route or a generator that no test calls is dead
SHARED = [p for p in TESTS if p.name in ("reference.py", "cases.py")]


def unused_imports(source: str) -> list[str]:
    """The names bound by the `from ... import` statements of source (other than
    `from __future__`) that no name expression reads."""
    tree = ast.parse(source)
    bound = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
    }
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


def test_the_guard_sees_an_unused_name():
    source = "from __future__ import annotations\nfrom math import gcd, lcm\nx: lcm = 1\n"
    assert unused_imports(source) == ["gcd"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def defined_names(tree: ast.Module) -> set[str]:
    """The names a module binds at top level (by def, class or assignment),
    dunders aside."""
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return {n for n in defined if not (n.startswith("__") and n.endswith("__"))}


def read_names(tree: ast.Module) -> set[str]:
    """The names a module reads: as a name, as an attribute, or in an import."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.alias):
            read.add(node.name)
    return read


def unreferenced_names(tree: ast.Module, read: set[str]) -> list[str]:
    """The names that tree binds at top level that are not in read, the names
    that the sources read. A name read only in its own module counts as
    referenced."""
    return sorted(defined_names(tree) - read)


def test_the_dead_name_guard_sees_an_unreferenced_name():
    source = "import math\n__all__ = []\nA = 1\nB = A\ndef f(): return g\ndef g(): pass\nclass C: pass\n"
    tree = ast.parse(source)
    read = read_names(tree) | read_names(ast.parse("from m import f\n"))
    assert unreferenced_names(tree, read) == ["B", "C"]


def test_every_top_level_name_is_referenced():
    """Over the package and the tests' reference routes and cases, each source
    parsed once."""
    trees = {p: ast.parse(p.read_text(encoding="utf-8")) for p in PACKAGE + TESTS}
    read = set().union(*map(read_names, trees.values()))
    dead = {p.name: unreferenced_names(trees[p], read) for p in PACKAGE + SHARED}
    assert {name: names for name, names in dead.items() if names} == {}
