"""Every command line the benchmark's workloads run is a plain line, one that
`cli._read_plain` reads without argparse: the share of plain lines is 100% in
each workload. Help and usage errors, the lines argparse still reads, are run
by no workload.

`bench/workloads.py` and the `bench/oracles.py` it imports are loaded by path
and only read, by `cases.workloads`.
"""
from __future__ import annotations

from lcplie import cli

from cases import workloads
from conftest import CORPUS_DIR


def test_every_workload_line_is_plain():
    bench = workloads()
    for name in bench.WORKLOADS:
        wl = bench.build(name, bench.seeded(1), CORPUS_DIR)
        assert wl.invocations, name
        assert [i.argv for i in wl.invocations if cli._read_plain(list(i.argv)) is None] == []
