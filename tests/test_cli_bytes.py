"""Exit code, stdout and stderr of every applicable command on every corpus
file, text and --json, compared byte for byte with `cli_bytes.json`.

The record was made by this module's own `record`, run against the code the
record pins; the command lines and `invoke` are in `cases.py`:

    PYTHONPATH=src python3 tests/test_cli_bytes.py

rewrites `tests/cli_bytes.json` from the current code. Re-record only when a
change to the output is intended, and say why in CHANGES.md.
"""
from __future__ import annotations

import json

import pytest

from cases import RECORD, commands, invoke


def record() -> None:
    pinned = {" ".join(argv): invoke(argv) for argv in commands()}
    RECORD.write_text(json.dumps(pinned, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")


@pytest.fixture(scope="module")
def pinned() -> dict:
    return json.loads(RECORD.read_text(encoding="utf-8"))


def test_the_record_covers_every_command(pinned):
    assert sorted(pinned) == sorted(" ".join(argv) for argv in commands())


@pytest.mark.parametrize("argv", commands(), ids=" ".join)
def test_bytes_match_the_record(pinned, argv):
    assert invoke(argv) == pinned[" ".join(argv)]


if __name__ == "__main__":
    record()
