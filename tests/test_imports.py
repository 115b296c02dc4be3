"""Every name that a module of the package binds with `from ... import` is
used in that module, so code that is deleted leaves no stale import behind.

`__init__.py` is skipped: it imports names to export them. The modules are
parsed, not imported; a name counts as used where it is read as a name,
annotations included.
"""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

import lcplie

MODULES = sorted(p for p in Path(lcplie.__file__).resolve().parent.glob("*.py") if p.name != "__init__.py")


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
