"""Every function and method the benchmark tracer patches must exist in lcplie,
defined in the module the tracer names.

`bench/tracing.py` wraps the names in its SPANS and COUNTERS tables from
outside; a name that no longer resolves would make the tracer fail or lose a
span, and a function moved to another module would charge its time to the
wrong layer's self time. The file is loaded by path and only read.
"""
from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("lcplie_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclass looks itself up
    spec.loader.exec_module(module)
    return module


def resolves(module: str, attr: str) -> bool:
    """Whether the tracer can patch lcplie.<module>.<attr>: a callable module
    attribute, or for "Class.method" a method defined on the class itself."""
    owner = importlib.import_module(f"lcplie.{module}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(owner, cls_name, None)
        return cls is not None and meth in vars(cls)
    return callable(getattr(owner, attr, None))


def test_every_traced_name_resolves(monkeypatch):
    tracing = load_tracing(monkeypatch)
    names = {**tracing.SPANS, **tracing.COUNTERS}
    assert len(names) == len(tracing.SPANS) + len(tracing.COUNTERS)
    missing = [name for name, (module, attr) in names.items() if not resolves(module, attr)]
    assert missing == []


def defining_module(module: str, attr: str) -> str:
    """The module that defines lcplie.<module>.<attr> (or the "Class.method")."""
    owner = importlib.import_module(f"lcplie.{module}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    return owner.__module__


def test_every_traced_name_is_defined_in_its_layer(monkeypatch):
    tracing = load_tracing(monkeypatch)
    names = {**tracing.SPANS, **tracing.COUNTERS}
    moved = [
        name
        for name, (module, attr) in names.items()
        if defining_module(module, attr) != f"lcplie.{module}"
    ]
    assert moved == []
