"""The exact `error:` line and exit code of every failure site in the bracket
list and the rational vectors and matrices of a document, and in the integer
matrix of a lattice document.

Each case replaces one value of a corpus document and runs the command
through `cli.main`. The expected lines were recorded from the code before
the parser built its locations only on failure; the parser must keep every
message byte for byte.
"""
from __future__ import annotations

import copy
import json

import pytest

from lcplie.cli import main
from lcplie.documents import parse_algebra_document

from conftest import corpus_json

DELETE = object()
LONG = "7" * 5000
DIM12 = {"dim": 12, "basis": [f"e{k}" for k in range(12)], "brackets": []}
H_BRACKETS = ("triple", "h", "brackets")
BETA = ("triple", "beta")

# (id, corpus file or document, path to the replaced value, new value, expected line);
# every case runs `validate` and exits 1.
CASES = [
    ("brackets-not-a-list", "sol3.json", ("brackets",), {},
     "document.brackets: expected a list of bracket entries"),
    ("entry-not-an-object", "sol3.json", ("brackets", 1), [0, 1],
     "document.brackets[1]: expected a JSON object"),
    ("entry-unknown-field", "sol3.json", ("brackets", 1, "k"), 1,
     "document.brackets[1]: unknown field(s): k"),
    ("entry-missing-i", "sol3.json", ("brackets", 0, "i"), DELETE,
     "document.brackets[0]: missing field 'i'"),
    ("entry-missing-j", "sol3.json", ("brackets", 1, "j"), DELETE,
     "document.brackets[1]: missing field 'j'"),
    ("entry-missing-c", "sol3.json", ("brackets", 1, "c"), DELETE,
     "document.brackets[1]: missing field 'c'"),
    ("i-a-string", "sol3.json", ("brackets", 1, "i"), "1",
     "document.brackets[1].i: expected an integer, got '1'"),
    ("i-a-bool", "sol3.json", ("brackets", 0, "i"), False,
     "document.brackets[0].i: expected an integer, got False"),
    ("j-a-float", "sol3.json", ("brackets", 1, "j"), 2.0,
     "document.brackets[1].j: expected an integer, got 2.0"),
    ("i-negative", "sol3.json", ("brackets", 1, "i"), -1,
     "document.brackets[1].i: expected an integer >= 0, got -1"),
    ("j-negative", "sol3.json", ("brackets", 0, "j"), -2,
     "document.brackets[0].j: expected an integer >= 0, got -2"),
    ("j-out-of-range", "sol3.json", ("brackets", 1, "j"), 3,
     "document.brackets[1]: bracket indices (1, 3) out of range for dim 3"),
    ("i-equals-j", "sol3.json", ("brackets", 1, "j"), 1,
     "document.brackets[1]: bracket (1, 1) is zero by antisymmetry; do not list it"),
    ("duplicate-pair", "sol3.json", ("brackets", 1), {"i": 1, "j": 0, "c": {"0": "-1"}},
     "document.brackets[1]: bracket pair (0, 1) appears more than once"),
    ("c-a-list", "sol3.json", ("brackets", 1, "c"), ["1"],
     "document.brackets[1].c: expected a nonempty object of index -> rational string"),
    ("c-empty", "sol3.json", ("brackets", 0, "c"), {},
     "document.brackets[0].c: expected a nonempty object of index -> rational string"),
    ("key-leading-zero", "sol3.json", ("brackets", 1, "c"), {"02": "1"},
     "document.brackets[1].c: coefficient keys must be index strings, got '02'"),
    ("key-negative", "sol3.json", ("brackets", 1, "c"), {"-1": "1"},
     "document.brackets[1].c: coefficient keys must be index strings, got '-1'"),
    ("key-out-of-range", "sol3.json", ("brackets", 1, "c"), {"2": "1", "3": "1"},
     "document.brackets[1].c: coefficient index 3 out of range for dim 3"),
    ("key-longer-than-dim", "sol3.json", ("brackets", 1, "c"), {"10": "1"},
     "document.brackets[1].c: coefficient index 10 out of range for dim 3"),
    ("coefficient-an-int", "sol3.json", ("brackets", 1, "c", "2"), 1,
     "document.brackets[1].c[2]: rationals must be strings like '3' or '-2/5', got 1"),
    ("coefficient-decimal", "sol3.json", ("brackets", 0, "c", "0"), "0.5",
     "document.brackets[0].c[0]: not a decimal-free rational string: '0.5'"),
    ("coefficient-plus-sign", "sol3.json", ("brackets", 1, "c", "2"), "+1",
     "document.brackets[1].c[2]: not a decimal-free rational string: '+1'"),
    ("coefficient-zero-denominator", "sol3.json", ("brackets", 1, "c", "2"), "1/0",
     "document.brackets[1].c[2]: zero denominator in '1/0'"),
    ("coefficient-too-long", "sol3.json", ("brackets", 1, "c", "2"), LONG,
     "document.brackets[1].c[2]: rational has more than 4300 digits in a part"),
    ("coefficient-two-digit-key", DIM12, ("brackets",), [{"i": 0, "j": 11, "c": {"10": "x"}}],
     "document.brackets[0].c[10]: not a decimal-free rational string: 'x'"),
    ("theta-not-a-list", "sol3.json", ("theta",), "0",
     "document.theta: expected a list of 3 rational strings"),
    ("theta-too-short", "sol3.json", ("theta",), ["0", "1"],
     "document.theta: expected a list of 3 rational strings"),
    ("theta-entry-null", "sol3.json", ("theta", 1), None,
     "document.theta[1]: rationals must be strings like '3' or '-2/5', got None"),
    ("theta-entry-exponent", "sol3.json", ("theta", 2), "1e3",
     "document.theta[2]: not a decimal-free rational string: '1e3'"),
    ("theta-entry-too-long", "sol3.json", ("theta", 0), "1/" + LONG,
     "document.theta[0]: rational has more than 4300 digits in a part"),
    ("metric-unknown-word", "sol3.json", ("metric",), "euclidean",
     "document.metric: expected a list of 3 rows"),
    ("metric-too-few-rows", "sol3.json", ("metric",), [["1", "0", "0"]],
     "document.metric: expected a list of 3 rows"),
    ("metric-row-too-long", "sol3.json", ("metric",), [["1", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "1"]],
     "document.metric[1]: expected a list of 3 rational strings"),
    ("metric-entry-decimal", "sol3.json", ("metric",), [["1", "0", "0"], ["0", "1", "0"], ["0", "0.0", "1"]],
     "document.metric[2][1]: not a decimal-free rational string: '0.0'"),
    ("metric-entry-an-int", "sol3.json", ("metric",), [[1, "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
     "document.metric[0][0]: rationals must be strings like '3' or '-2/5', got 1"),
    ("flat-factor-not-a-list", "sol3.json", ("flat_factor",), {"0": "1"},
     "document.flat_factor: expected a list of rows"),
    ("flat-factor-row-too-short", "sol3.json", ("flat_factor", 0), ["1", "0"],
     "document.flat_factor[0]: expected a list of 3 rational strings"),
    ("flat-factor-entry-space", "sol3.json", ("flat_factor", 0, 2), " 0",
     "document.flat_factor[0][2]: not a decimal-free rational string: ' 0'"),
    ("h-brackets-not-a-list", "sol3_triple.json", H_BRACKETS, "none",
     "document.triple.h.brackets: expected a list of bracket entries"),
    ("h-entry-j-a-string", "sol3_triple.json", (*H_BRACKETS, 0, "j"), "1",
     "document.triple.h.brackets[0].j: expected an integer, got '1'"),
    ("h-entry-out-of-range", "sol3_triple.json", (*H_BRACKETS, 0, "j"), 2,
     "document.triple.h.brackets[0]: bracket indices (0, 2) out of range for dim 2"),
    ("h-entry-c-empty", "sol3_triple.json", (*H_BRACKETS, 0, "c"), {},
     "document.triple.h.brackets[0].c: expected a nonempty object of index -> rational string"),
    ("h-coefficient-decimal", "sol3_triple.json", (*H_BRACKETS, 0, "c", "1"), "1.0",
     "document.triple.h.brackets[0].c[1]: not a decimal-free rational string: '1.0'"),
    ("h-coefficient-zero-denominator", "sol3_triple.json", (*H_BRACKETS, 0, "c", "1"), "2/0",
     "document.triple.h.brackets[0].c[1]: zero denominator in '2/0'"),
    ("h-metric-entry", "sol3_triple.json", ("triple", "h", "metric"), [["1", "0"], ["0", "one"]],
     "document.triple.h.metric[1][1]: not a decimal-free rational string: 'one'"),
    ("beta-not-a-list", "sol3_triple.json", BETA, {},
     "document.triple.beta: expected 2 matrices, one per basis vector"),
    ("beta-too-few", "sol3_triple.json", BETA, [[["0"]]],
     "document.triple.beta: expected 2 matrices, one per basis vector"),
    ("beta-matrix-rows", "sol3_triple.json", (*BETA, 1), [["0"], ["0"]],
     "document.triple.beta[1]: expected a list of 1 rows"),
    ("beta-row-length", "sol3_triple.json", (*BETA, 0, 0), ["0", "0"],
     "document.triple.beta[0][0]: expected a list of 1 rational strings"),
    ("beta-entry-null", "sol3_triple.json", (*BETA, 1, 0, 0), None,
     "document.triple.beta[1][0][0]: rationals must be strings like '3' or '-2/5', got None"),
    ("beta-entry-decimal", "sol3_triple.json", (*BETA, 0, 0, 0), "0.25",
     "document.triple.beta[0][0][0]: not a decimal-free rational string: '0.25'"),
]


# Documents read by other commands, and values that are not documents.
OTHER_CASES = [
    ("split-e1-not-a-list", "lat_diag21_split.json", ("split", "e1"), "1",
     ("lattice", "snf", "DOC"), 1, "document.split.e1: expected a list of rows"),
    ("split-e1-row-too-long", "lat_diag21_split.json", ("split", "e1", 0), ["1", "0", "0"],
     ("lattice", "snf", "DOC"), 1, "document.split.e1[0]: expected a list of 2 rational strings"),
    ("split-e2-entry-decimal", "lat_diag21_split.json", ("split", "e2", 0, 1), "1.",
     ("lattice", "lemma51", "DOC"), 1, "document.split.e2[0][1]: not a decimal-free rational string: '1.'"),
    ("matrix-not-a-list", "lat_diag23.json", ("matrix",), {"1": 1},
     ("lattice", "snf", "DOC"), 1, "document.matrix: expected a nonempty list of rows"),
    ("matrix-empty", "lat_diag23.json", ("matrix",), [],
     ("lattice", "index", "DOC"), 1, "document.matrix: expected a nonempty list of rows"),
    ("matrix-row-not-a-list", "lat_diag23.json", ("matrix", 1), 3,
     ("lattice", "snf", "DOC"), 1, "document.matrix: expected a nonempty list of rows"),
    ("matrix-entry-a-string", "lat_diag23.json", ("matrix", 1, 0), "0",
     ("lattice", "snf", "DOC"), 1, "document.matrix[1][0]: expected an integer, got '0'"),
    ("matrix-entry-a-bool", "lat_diag23.json", ("matrix", 0, 1), True,
     ("lattice", "index", "DOC"), 1, "document.matrix[0][1]: expected an integer, got True"),
    ("matrix-entry-a-float", "lat_diag23.json", ("matrix", 1, 1), 3.0,
     ("lattice", "snf", "DOC"), 1, "document.matrix[1][1]: expected an integer, got 3.0"),
    ("matrix-entry-null", "lat_diag23.json", ("matrix", 0, 0), None,
     ("lattice", "lemma51", "DOC"), 1, "document.matrix[0][0]: expected an integer, got None"),
    ("matrix-ragged", "lat_diag23.json", ("matrix", 1), [0, 3, 0],
     ("lattice", "snf", "DOC"), 1, "document.matrix: ragged matrix"),
    ("matrix-ragged-entry-a-string", "lat_diag23.json", ("matrix",), [[2, 0, 1], [0, "3"]],
     ("lattice", "snf", "DOC"), 1, "document.matrix[1][1]: expected an integer, got '3'"),
    ("matrix-not-square", "lat_diag23.json", ("matrix",), [[2, 0, 0], [0, 3, 0]],
     ("lattice", "index", "DOC"), 1, "document.matrix: matrix must be square"),
    ("matrix-empty-row", "lat_diag23.json", ("matrix",), [[]],
     ("lattice", "snf", "DOC"), 1, "document.matrix: matrix must be square"),
    ("label-lone-surrogate", "sol3.json", ("basis", 2), "b\ud800",
     ("analyze", "DOC"), 1, "document.basis: labels must not contain unpaired surrogates"),
    ("h-label-lone-surrogate", "sol3_triple.json", ("triple", "h", "basis", 0), "\udfff",
     ("validate", "DOC"), 1, "document.triple.h.basis: labels must not contain unpaired surrogates"),
    ("candidate-not-a-list", "sol3.json", (), None,
     ("lcp", "char-bound", "DOC", "--candidate", '{"0": "1"}'), 2,
     "invalid candidate basis: candidate: expected a list of rows"),
    ("candidate-row-too-short", "sol3.json", (), None,
     ("lcp", "char-bound", "DOC", "--candidate", '[["0", "1"]]'), 2,
     "invalid candidate basis: candidate[0]: expected a list of 3 rational strings"),
    ("candidate-entry-decimal", "sol3.json", (), None,
     ("lcp", "char-bound", "DOC", "--candidate", '[["0", "1", "0"], ["0", "0.5", "0"]]'), 2,
     "invalid candidate basis: candidate[1][1]: not a decimal-free rational string: '0.5'"),
]


def document(base, path: tuple, value) -> dict:
    data = copy.deepcopy(base) if isinstance(base, dict) else corpus_json(base)
    if not path:
        return data
    *parents, last = path
    target = data
    for key in parents:
        target = target[key]
    if value is DELETE:
        del target[last]
    else:
        target[last] = value
    return data


@pytest.fixture
def run(capsys, tmp_path):
    """Write the document and run the command with its path in place of "DOC"."""

    def _run(data, *argv):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        code = main([str(path) if a == "DOC" else a for a in argv])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return _run


@pytest.mark.parametrize("base, path, value, line", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_validate_error_line(run, base, path, value, line):
    assert run(document(base, path, value), "validate", "DOC") == (1, "", f"error: {line}\n")


@pytest.mark.parametrize(
    "base, path, value, argv, code, line", [c[1:] for c in OTHER_CASES], ids=[c[0] for c in OTHER_CASES]
)
def test_command_error_line(run, base, path, value, argv, code, line):
    assert run(document(base, path, value), *argv) == (code, "", f"error: {line}\n")


def test_non_ascii_labels_are_read():
    data = document("sol3.json", ("basis",), ["\u03b1", "\U0001d44e", "b"])
    doc = parse_algebra_document(json.dumps(data))
    assert doc.basis == ("\u03b1", "\U0001d44e", "b")
