"""Exit code, stdout and stderr of every applicable command on every corpus
file, text and --json, compared byte for byte with `cli_bytes.json`.

The record was made by this module's own `record`, run against the code the
record pins:

    PYTHONPATH=src python3 tests/test_cli_bytes.py

rewrites `tests/cli_bytes.json` from the current code. Re-record only when a
change to the output is intended, and say why in CHANGES.md.
"""
from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import pytest

from lcplie.cli import main

CORPUS_DIR = Path(__file__).parent / "corpus"
RECORD = Path(__file__).parent / "cli_bytes.json"

ALGEBRA_ACTIONS = ("detect", "max-flat", "from-triple", "char-bound")
LATTICE_ACTIONS = ("snf", "index", "lemma51")
# Candidates inside the metric complement of the flat factor (identity metric).
CANDIDATES = {
    "sol3": '[["0", "1", "0"]]',
    "rot4": '[["0", "0", "0", "1"]]',
    "rot5": '[["0", "0", "0", "1", "0"]]',
}


def commands() -> list[tuple[str, ...]]:
    """Every command line the record pins, with the corpus file by its name."""
    out: list[tuple[str, ...]] = []
    for path in sorted(CORPUS_DIR.glob("*.json")):
        name = path.name
        if "matrix" in json.loads(path.read_text(encoding="utf-8")):
            lines = [("lattice", action, name) for action in LATTICE_ACTIONS]
        else:
            out += [("validate", name), ("analyze", name)]
            lines = [("lcp", action, name) for action in ALGEBRA_ACTIONS]
        if path.stem in CANDIDATES:
            lines.append(("lcp", "char-bound", name, "--candidate", CANDIDATES[path.stem]))
        for argv in lines:
            out += [argv, argv + ("--json",)]
    return out


def invoke(argv: tuple[str, ...]) -> dict:
    args = [str(CORPUS_DIR / a) if a.endswith(".json") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args)
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


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
