"""Every command line the benchmark's workloads run is a plain line, one that
`cli._read_plain` reads without argparse: the share of plain lines is 100% in
each workload. Help and usage errors, the lines argparse still reads, are run
by no workload.

`bench/workloads.py` and the `bench/oracles.py` it imports are loaded by path
and only read.
"""
from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

from lcplie import cli

from conftest import CORPUS_DIR

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    for name in ("oracles", "workloads"):  # workloads imports oracles by this name
        spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, name, module)  # its dataclasses look themselves up
        spec.loader.exec_module(module)
    return module


def test_every_workload_line_is_plain(workloads):
    for name in workloads.WORKLOADS:
        wl = workloads.build(name, workloads.seeded(1), CORPUS_DIR)
        assert wl.invocations, name
        assert [i.argv for i in wl.invocations if cli._read_plain(list(i.argv)) is None] == []
