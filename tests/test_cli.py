"""End-to-end command behavior, exit codes and frozen report text."""
from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from lcplie import cli, connections, documents, lcp, linalg
from lcplie.cli import main
from lcplie.liealg import check_jacobi
from lcplie.linalg import pairs

import reference
from cases import (
    RECORD,
    commands,
    invoke as invoke_pinned,
    mutated_lines,
    pinned_lines,
    random_table,
    subspaces_by_dimension,
)
from conftest import CORPUS_DIR, corpus_text

SOL3_ANALYSIS = """\
dim: 3
abelian: no
unimodular: yes
solvable: yes
nilpotent: no
semisimple: no
derived algebra: span{u, b} (dim 2)
radical: span{u, a, b} (dim 3)
center: 0 (dim 0)
trace form: 0
killing signature: (1, 0, 2)
"""

LEMMA51_DIAG21 = """\
hypotheses: integral: yes; E1 invariant: yes; E2 invariant: yes; (A - I)|E1 invertible: yes
det(A - I) = 0
witness x = (0, 1)
hyperplane W = 0 (dim 0)
density refuted: projections of lattice points onto E2 lie in W + Z * p2(x/|x|^2)
"""


@pytest.fixture
def run(capsys):
    def _run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return _run


def corpus(name: str) -> str:
    return str(CORPUS_DIR / name)


class TestModuleEntryPoint:
    def test_python_m_lcplie_prints_what_main_prints(self, run):
        path = corpus("sol3.json")
        expected = run("validate", path)
        src = str(Path(cli.__file__).resolve().parents[1])
        paths = (src, os.environ.get("PYTHONPATH"))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
        done = subprocess.run(
            [sys.executable, "-B", "-m", "lcplie", "validate", path],
            capture_output=True, env=env, timeout=60, check=False,
        )
        assert expected[0] == done.returncode == 0
        assert done.stdout == expected[1].encode("utf-8")
        assert done.stderr == b""


class TestParser:
    def test_two_calls_build_the_parser_once(self, capsys):
        # two lines that only argparse reads: plain lines never build the parser
        cli.build_parser.cache_clear()
        for argv in (["analyze"], ["lcp", "detect"]):
            with pytest.raises(SystemExit):
                main(argv)
        assert cli.build_parser.cache_info().misses == 1

    def test_usage_error_exits_2_with_the_same_stderr_every_time(self, capsys):
        expected = (
            "usage: lcplie analyze [-h] file\n"
            "lcplie analyze: error: the following arguments are required: file\n"
        )
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(["analyze"])
            assert exc.value.code == 2
            assert capsys.readouterr() == ("", expected)


def parse(parser, argv):
    """(vars of the namespace or None, exit code, stdout, stderr) of parse_args."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            namespace = vars(parser.parse_args(argv))
    except SystemExit as exc:
        return None, exc.code, out.getvalue(), err.getvalue()
    return namespace, None, out.getvalue(), err.getvalue()


def parse_main(argv):
    """(exit code, stdout, stderr) of main on a line that argparse exits on."""
    out, err = io.StringIO(), io.StringIO()
    with pytest.raises(SystemExit) as exc:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            main(argv)
    return exc.value.code, out.getvalue(), err.getvalue()


# One line for each kind that argparse reads, not the plain-line reader.
ARGPARSE_LINES = (
    (),
    ("-h",),
    ("--help",),
    ("lcp", "-h"),
    ("lattice", "snf", "m.json", "--help"),
    ("lcp", "detect", "s.json", "--js"),
    ("lcp", "char-bound", "s.json", "--cand", "[]"),
    ("lcp", "char-bound", "s.json", "--candidate=[]"),
    ("validate", "--", "s.json"),
    ("validate", "-"),
    ("validate", "-x"),
    ("validate", ""),
    ("lcp", "char-bound", "s.json", "--candidate", "-1"),
    ("lcp", "char-bound", "s.json", "--candidate", ""),
    ("lcp", "char-bound", "s.json", "--candidate"),
    ("lcp", "--json", "detect", "s.json"),
    ("analyze",),
    ("analyze", "s.json", "t.json"),
    ("lcp", "detect"),
    ("lcp", "solve", "s.json"),
    ("frobnicate", "s.json"),
    ("validate", "s.json", "--json"),
    ("analyze", "s.json", "--json"),
    ("lattice", "snf", "m.json", "--candidate", "[]"),
)
ARGV_SEED = 28
ARGV_MUTATIONS = 10000


class TestPlainLines:
    """`cli._read_plain` reads a plain line into argparse's own namespace and
    leaves every other line to argparse."""

    def test_every_pinned_line_is_plain(self):
        cli.build_parser.cache_clear()
        for argv in commands():
            invoke_pinned(argv)
        assert cli.build_parser.cache_info().misses == 0

    def test_the_reader_agrees_with_argparse_on_seeded_lines(self):
        parser = cli.build_parser()
        pinned = pinned_lines()
        lines = [*pinned, *map(list, ARGPARSE_LINES)]
        lines += mutated_lines(random.Random(ARGV_SEED), pinned, ARGPARSE_LINES, ARGV_MUTATIONS)
        read = 0
        for argv in lines:
            plain = cli._read_plain(argv)
            if plain is not None:
                read += 1
                assert vars(plain) == parse(parser, argv)[0], argv
        assert len(pinned) < read < len(lines)

    @pytest.mark.parametrize("argv", ARGPARSE_LINES, ids=" ".join)
    def test_other_lines_go_to_argparse_and_read_as_they_did(self, argv, monkeypatch):
        assert cli._read_plain(list(argv)) is None
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
        expected = parse(reference.parser_as_it_was(), list(argv))
        assert parse(cli.build_parser(), list(argv)) == expected
        if expected[0] is None:
            assert parse_main(list(argv)) == expected[1:]


class TestValidate:
    def test_sol3(self, run):
        code, out, err = run("validate", corpus("sol3.json"))
        assert code == 0
        assert out == "jacobi: ok\nmetric: ok\ntheta: ok (closed)\nvalid: yes\n"
        assert err == ""

    def test_triple_document(self, run):
        code, out, _ = run("validate", corpus("sol3_triple.json"))
        assert code == 0
        assert out == "triple: ok\nvalid: yes\n"

    def test_jacobi_failure_names_the_triple(self, run, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps(
                {
                    "dim": 3,
                    "basis": ["e1", "e2", "e3"],
                    "brackets": [
                        {"i": 0, "j": 1, "c": {"0": "1"}},
                        {"i": 0, "j": 2, "c": {"1": "1"}},
                    ],
                }
            )
        )
        code, out, _ = run("validate", str(bad))
        assert code == 2
        assert "jacobi: FAIL at basis triples (e1, e2, e3)" in out
        assert out.endswith("valid: no\n")

    def test_jacobi_failures_are_named_as_check_jacobi_finds_them(self, run, tmp_path):
        rng = random.Random(1066)
        failures = 0
        for _ in range(40):
            dim = rng.randint(3, 6)
            basis = rng.sample([f"{c}{t}" for c in "xyz" for t in range(6)], dim)
            dense = dict(zip(pairs(dim), random_table(rng, dim)))
            brackets = {p: {k: c for k, c in enumerate(row) if c} for p, row in dense.items() if any(row)}
            triples = check_jacobi(dim, brackets)
            if not triples:
                continue
            failures += 1
            doc = tmp_path / "table.json"
            doc.write_text(json.dumps({"dim": dim, "basis": basis, "brackets": [
                {"i": i, "j": j, "c": {str(k): str(c) for k, c in coeffs.items()}}
                for (i, j), coeffs in brackets.items()
            ]}))
            names = ", ".join("(" + ", ".join(basis[t] for t in triple) + ")" for triple in triples)
            code, out, _ = run("validate", str(doc))
            assert code == 2
            assert out == f"jacobi: FAIL at basis triples {names}\nmetric: absent\ntheta: absent\nvalid: no\n"
        assert failures >= 20

    def test_missing_file_is_an_io_error(self, run, tmp_path):
        code, _, err = run("validate", str(tmp_path / "absent.json"))
        assert code == 1
        assert err.startswith("error: ")

    def test_truncated_file_is_a_parse_error(self, run, tmp_path):
        broken = tmp_path / "broken.json"
        broken.write_text('{"dim": 3,')
        code, _, err = run("validate", str(broken))
        assert code == 1
        assert "invalid JSON" in err

    def test_schema_violation_is_a_parse_error(self, run, tmp_path):
        doc = tmp_path / "doc.json"
        doc.write_text('{"dim": 1, "basis": ["x"], "brackets": [], "theta": [0.5]}')
        code, _, err = run("validate", str(doc))
        assert code == 1


class TestAnalyze:
    def test_sol3_report(self, run):
        code, out, _ = run("analyze", corpus("sol3.json"))
        assert code == 0
        assert out == SOL3_ANALYSIS

    def test_sl2_report(self, run):
        code, out, _ = run("analyze", corpus("sl2.json"))
        assert code == 0
        assert "radical: 0 (dim 0)\n" in out
        assert "semisimple: yes\n" in out
        assert "killing signature: (2, 1, 0)\n" in out

    def test_abelian_report(self, run):
        code, out, _ = run("analyze", corpus("abelian_r3.json"))
        assert code == 0
        assert "abelian: yes\n" in out

    def test_document_without_algebra_fields(self, run):
        code, _, err = run("analyze", corpus("sol3_triple.json"))
        assert code == 2
        assert "no algebra fields" in err


# Pinned lines whose document lacks a field, with the `documents` builder that checks it.
MISSING_FIELD_LINES = [
    ("analyze sol3_triple.json", documents.document_algebra),
    ("lcp detect sol3_triple.json", documents.document_algebra),
    ("lcp max-flat sol3_triple.json", documents.document_algebra),
    ("lcp char-bound sol3_triple.json --json", documents.document_algebra),
    ("lcp from-triple sol3.json", documents.document_triple),
    ("lcp from-triple heis3.json --json", documents.document_triple),
]


@pytest.mark.parametrize(("line", "build"), MISSING_FIELD_LINES)
def test_a_missing_field_is_checked_once_in_documents(line, build):
    """`documents` alone checks that a field is present: its ValueError is the
    pinned line after "error: ", and `main` maps it to exit 2 with no stdout."""
    argv = tuple(line.split())
    name = next(a for a in argv if a.endswith(".json"))
    with pytest.raises(ValueError) as exc:
        build(documents.parse_algebra_document(corpus_text(name)), parsed=True)
    expected = {"code": 2, "stdout": "", "stderr": f"error: {exc.value}\n"}
    assert json.loads(RECORD.read_text(encoding="utf-8"))[line] == expected
    assert invoke_pinned(argv) == expected


class TestFormatterOracle:
    """The formatters print x / row[pivot] of the integer echelon rows as the
    Fraction versions did, and no command that prints a subspace builds the
    Fraction basis."""

    def test_matches_the_fraction_versions(self):
        seen = set()
        for s in subspaces_by_dimension(22, range(1, 7), 40, num=4, den=6, density=0.6):
            labels = [f"e{k}" for k in range(s.ambient_dim)]
            assert cli._format_subspace(s, labels) == reference.fraction_format_subspace(s, labels)
            assert cli._subspace_rows(s) == reference.fraction_subspace_rows(s)
            entries = [x for row in reference.fraction_rows(s) for x in row]
            seen |= {
                "pivot > 1" if any(row[p] > 1 for row, p in zip(s.rows, s.pivots)) else "",
                "negative" if any(x < 0 for x in entries) else "",
                "fractional" if any(x.denominator > 1 for x in entries) else "",
                "integer > 1" if any(abs(x) > 1 and x.denominator == 1 for x in entries) else "",
                "zero" if s.is_zero() else "full" if s.is_full() else "",
            }
        assert seen >= {"pivot > 1", "negative", "fractional", "integer > 1", "zero", "full"}

    def test_trace_form_coefficients_stay_fractions(self):
        coeffs = (Fraction(-3, 2), Fraction(0), Fraction(1), Fraction(-1), Fraction(4))
        labels = ("a", "b", "c", "d", "e")
        assert cli._format_combination(coeffs, labels, dual=True) == reference.fraction_format_combination(
            coeffs, labels, dual=True
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ("analyze", "sol3.json"),
            ("analyze", "sl2.json"),
            ("analyze", "heis3.json"),
            ("lcp", "max-flat", "sol3.json", "--json"),
            ("lcp", "max-flat", "rot4.json", "--json"),
            ("lcp", "max-flat", "rot5.json", "--json"),
        ],
    )
    def test_no_fraction_basis_is_built(self, run, monkeypatch, argv):
        calls = []
        original = linalg._fraction_rows

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(linalg, "_fraction_rows", counting)
        code, _, _ = run(*(corpus(a) if a.endswith(".json") else a for a in argv))
        assert code == 0
        assert calls == []


class TestLcpDetect:
    def test_sol3(self, run):
        code, out, _ = run("lcp", "detect", corpus("sol3.json"))
        assert code == 0
        assert out == "valid: yes\nadapted: yes\nmaximal: yes\nflat factor: span{u} (dim 1)\n"

    def test_invalid_factor_lists_violations(self, run, tmp_path):
        data = json.loads(corpus_text("sol3.json"))
        data["flat_factor"] = [["0", "0", "1"]]
        doc = tmp_path / "doc.json"
        doc.write_text(json.dumps(data))
        code, out, _ = run("lcp", "detect", str(doc))
        assert code == 2
        assert "valid: no" in out
        assert "violation: flat factor is not parallel for the conformal connection" in out

    def test_missing_metric_is_semantic(self, run, tmp_path):
        data = json.loads(corpus_text("sol3.json"))
        del data["metric"]
        doc = tmp_path / "doc.json"
        doc.write_text(json.dumps(data))
        code, _, err = run("lcp", "detect", str(doc))
        assert code == 2
        assert "no metric" in err


class TestLcpMaxFlat:
    def test_sol3(self, run):
        code, out, _ = run("lcp", "max-flat", corpus("sol3.json"))
        assert code == 0
        assert out == "flat factor = span{u} (dim 1)\nclassification: lcp\nadapted: yes\n"

    def test_conformally_flat_plane(self, run, tmp_path):
        doc = tmp_path / "plane.json"
        doc.write_text(
            json.dumps(
                {
                    "dim": 2,
                    "basis": ["x", "y"],
                    "brackets": [],
                    "metric": "identity",
                    "theta": ["1", "0"],
                }
            )
        )
        code, out, _ = run("lcp", "max-flat", str(doc))
        assert code == 0
        assert "classification: conformally-flat" in out

    def test_no_factor(self, run, tmp_path):
        doc = tmp_path / "heis4.json"
        doc.write_text(
            json.dumps(
                {
                    "dim": 4,
                    "basis": ["x", "y", "z", "w"],
                    "brackets": [{"i": 0, "j": 1, "c": {"2": "1"}}],
                    "metric": "identity",
                    "theta": ["1", "0", "0", "0"],
                }
            )
        )
        code, out, _ = run("lcp", "max-flat", str(doc))
        assert code == 0
        assert "flat factor = 0 (dim 0)" in out
        assert "classification: none" in out

    def test_non_unimodular_input_is_rejected(self, run, tmp_path):
        doc = tmp_path / "aff.json"
        doc.write_text(
            json.dumps(
                {
                    "dim": 2,
                    "basis": ["a", "b"],
                    "brackets": [{"i": 0, "j": 1, "c": {"1": "1"}}],
                    "metric": "identity",
                    "theta": ["1", "0"],
                }
            )
        )
        code, _, err = run("lcp", "max-flat", str(doc))
        assert code == 2
        assert "unimodular" in err


class TestLcpFromTriple:
    def test_sol3_output_is_byte_identical_to_the_corpus_file(self, run):
        code, out, _ = run("lcp", "from-triple", corpus("sol3_triple.json"))
        assert code == 0
        assert out == corpus_text("sol3.json")

    def test_rot4_output(self, run):
        code, out, _ = run("lcp", "from-triple", corpus("rot4_triple.json"))
        assert code == 0
        assert out == corpus_text("rot4.json")

    def test_document_without_triple(self, run):
        code, _, err = run("lcp", "from-triple", corpus("sol3.json"))
        assert code == 2
        assert "no triple block" in err

    def test_invalid_triple_is_semantic(self, run, tmp_path):
        data = json.loads(corpus_text("rot4_triple.json"))
        data["triple"]["beta"][0] = [["0", "1"], ["0", "0"]]
        doc = tmp_path / "doc.json"
        doc.write_text(json.dumps(data))
        code, _, err = run("lcp", "from-triple", str(doc))
        assert code == 2
        assert "skew" in err

    def test_acting_algebra_may_use_the_default_flat_label(self, run, tmp_path):
        # h's "u" keeps its name; the flat generator becomes u'
        data = json.loads(corpus_text("sol3_triple.json"))
        data["triple"]["h"]["basis"] = ["u", "b"]
        doc = tmp_path / "doc.json"
        doc.write_text(json.dumps(data))
        code, out, err = run("lcp", "from-triple", str(doc))
        assert (code, err) == (0, "")
        assert json.loads(out)["basis"] == ["u'", "u", "b"]


class TestLcpCharBound:
    def test_sol3_bound(self, run):
        code, out, _ = run("lcp", "char-bound", corpus("sol3.json"))
        assert code == 0
        assert out == "bound = span{b} (dim 1)\n"

    def test_candidate_breakdown(self, run):
        code, out, _ = run(
            "lcp", "char-bound", corpus("sol3.json"), "--candidate", '[["0", "1", "0"]]'
        )
        assert code == 0
        assert out == (
            "bound = span{b} (dim 1)\n"
            "candidate: span{a} (dim 1)\n"
            "theta vanishes: no\n"
            "action trivial: no\n"
            "abelian: yes\n"
            "in radical: yes\n"
            "in commutator: no\n"
        )

    def test_candidate_outside_complement(self, run):
        code, _, err = run(
            "lcp", "char-bound", corpus("sol3.json"), "--candidate", '[["1", "0", "0"]]'
        )
        assert code == 2

    @pytest.mark.parametrize("flags", [(), ("--json",)])
    @pytest.mark.parametrize(
        "action, name",
        [("detect", "sol3.json"), ("max-flat", "sol3.json"), ("from-triple", "sol3_triple.json")],
    )
    def test_candidate_is_refused_by_every_other_action(self, run, action, name, flags):
        basis = '[["0", "1", "0"]]'
        for candidate in (("--candidate", basis), (f"--candidate={basis}",)):
            assert run("lcp", action, corpus(name), *candidate, *flags) == (
                2, "", "error: --candidate applies only to lcp char-bound\n"
            )

    def test_malformed_candidate(self, run):
        code, _, err = run("lcp", "char-bound", corpus("sol3.json"), "--candidate", "[[0.5]]")
        assert code == 2
        assert "candidate" in err

    @pytest.mark.parametrize("entry", ["0.5", "1e3", " 1 ", "1_0", "1e2000000", "1/0"])
    def test_candidate_entries_follow_the_document_grammar(self, run, entry):
        candidate = json.dumps([["0", entry, "0"]])
        code, out, err = run("lcp", "char-bound", corpus("sol3.json"), "--candidate", candidate)
        assert (code, out) == (2, "")
        assert err.startswith("error: invalid candidate basis: candidate[0][1]: ")
        assert repr(entry) in err

    @pytest.mark.parametrize(
        "candidate, message",
        [
            ('["010"]', "candidate[0]: expected a list of 3 rational strings"),
            ('"1"', "candidate: expected a list of rows"),
        ],
    )
    def test_candidate_rows_must_be_lists(self, run, candidate, message):
        code, out, err = run("lcp", "char-bound", corpus("sol3.json"), "--candidate", candidate)
        assert (code, out) == (2, "")
        assert err == f"error: invalid candidate basis: {message}\n"

    def test_deeply_nested_candidate(self, run):
        code, out, err = run("lcp", "char-bound", corpus("sol3.json"), "--candidate", "[" * 1000)
        assert (code, out) == (2, "")
        assert err.startswith("error: invalid candidate basis: ") and err.count("\n") == 1


class TestLattice:
    def test_snf(self, run):
        code, out, _ = run("lattice", "snf", corpus("lat_upper23.json"))
        assert code == 0
        assert out.startswith("divisors: (1, 6)\n")

    def test_index(self, run):
        code, out, _ = run("lattice", "index", corpus("lat_upper23.json"))
        assert code == 0
        assert out == "index: 6\n"

    def test_infinite_index(self, run, tmp_path):
        doc = tmp_path / "singular.json"
        doc.write_text('{"matrix": [[2, 4], [1, 2]]}')
        code, out, _ = run("lattice", "index", str(doc))
        assert code == 0
        assert out == "index: infinite\n"

    def test_lemma51_witness_case(self, run):
        code, out, _ = run("lattice", "lemma51", corpus("lat_diag21_split.json"))
        assert code == 0
        assert out == LEMMA51_DIAG21

    def test_lemma51_invertible_case(self, run):
        code, out, _ = run("lattice", "lemma51", corpus("lat_fib_split.json"))
        assert code == 0
        assert "conclusion holds: finite index 1\n" in out

    def test_lemma51_without_split_block(self, run):
        code, _, err = run("lattice", "lemma51", corpus("lat_upper23.json"))
        assert code == 2
        assert "split" in err

    @pytest.mark.parametrize("flags", [(), ("--json",)], ids=["text", "json"])
    def test_snf_past_the_int_digit_limit_is_one_error_line(self, run, tmp_path, flags):
        """U and V of this matrix have entries of about 988 digits: past a limit of
        640 on int-to-string digits, nothing is printed but one error line."""
        rng = random.Random(0)
        doc = tmp_path / "wide.json"
        doc.write_text(json.dumps({"matrix": [[rng.randint(-3, 3) for _ in range(48)] for _ in range(48)]}))
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            code, out, err = run("lattice", "snf", str(doc), *flags)
        finally:
            sys.set_int_max_str_digits(limit)
        assert (code, out) == (2, "")
        assert err == "error: result has an integer of more than 640 digits to print\n"

    def test_non_square_matrix_is_a_parse_error(self, run, tmp_path):
        doc = tmp_path / "rect.json"
        doc.write_text('{"matrix": [[1, 0, 0], [0, 1, 0]]}')
        code, _, err = run("lattice", "snf", str(doc))
        assert code == 1


class TestJsonOutput:
    JSON_COMMANDS = (
        ("lcp", "detect", "sol3.json"),
        ("lcp", "max-flat", "sol3.json"),
        ("lcp", "char-bound", "sol3.json"),
        ("lattice", "snf", "lat_upper23.json"),
        ("lattice", "index", "lat_diag23.json"),
        ("lattice", "lemma51", "lat_diag21_split.json"),
        ("lattice", "lemma51", "lat_fib_split.json"),
    )

    def test_json_is_deterministic_and_parseable(self, run):
        for *head, name in self.JSON_COMMANDS:
            first = run(*head, corpus(name), "--json")
            second = run(*head, corpus(name), "--json")
            assert first == second
            assert first[0] == 0
            payload = json.loads(first[1])
            assert isinstance(payload, dict)

    def test_detect_payload_shape(self, run):
        code, out, _ = run("lcp", "detect", corpus("sol3.json"), "--json")
        assert code == 0
        assert json.loads(out) == {
            "valid": True,
            "violations": [],
            "adapted": True,
            "maximal": True,
            "flat_factor": [["1", "0", "0"]],
        }

    def test_lemma51_payload_shape(self, run):
        code, out, _ = run("lattice", "lemma51", corpus("lat_diag21_split.json"), "--json")
        assert code == 0
        assert json.loads(out) == {
            "hypotheses": {
                "integral": True,
                "e1_invariant": True,
                "e2_invariant": True,
                "restriction_invertible": True,
            },
            "det_a_minus_i": 0,
            "index": None,
            "witness": {"x": [0, 1], "hyperplane": []},
        }


class TestOneAnalysisPerCommand:
    """Each lcp subcommand builds the conformal connection exactly once."""

    @pytest.fixture
    def weyl_calls(self, monkeypatch):
        calls = []
        original = connections.weyl_connection

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(connections, "weyl_connection", counting)
        monkeypatch.setattr(lcp, "weyl_connection", counting)
        return calls

    @pytest.mark.parametrize(
        "action, name, flags",
        [
            ("detect", "sol3.json", ()),
            ("detect", "sol3.json", ("--json",)),
            ("char-bound", "sol3.json", ()),
            ("max-flat", "sol3.json", ()),
            ("from-triple", "sol3_triple.json", ()),
        ],
    )
    def test_corpus_commands(self, run, weyl_calls, action, name, flags):
        code, _, _ = run("lcp", action, corpus(name), *flags)
        assert code == 0
        assert len(weyl_calls) == 1

    def test_rejected_detect(self, run, weyl_calls, tmp_path):
        data = json.loads(corpus_text("sol3.json"))
        data["flat_factor"] = [["0", "0", "1"]]
        doc = tmp_path / "doc.json"
        doc.write_text(json.dumps(data))
        code, _, _ = run("lcp", "detect", str(doc))
        assert code == 2
        assert len(weyl_calls) == 1


class TestInputContract:
    """Inputs outside the grammar exit 1 with an `error:` line, never a traceback."""

    def _reject(self, run, tmp_path, text, *command):
        doc = tmp_path / "doc.json"
        if isinstance(text, bytes):
            doc.write_bytes(text)
        else:
            doc.write_text(text, encoding="utf-8")
        code, out, err = run(*command, str(doc))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        return err

    def _sol3_with_theta(self, value):
        data = json.loads(corpus_text("sol3.json"))
        data["theta"] = ["0", value, "0"]
        return json.dumps(data)

    def test_rational_with_trailing_newline(self, run, tmp_path):
        err = self._reject(run, tmp_path, self._sol3_with_theta("1\n"), "validate")
        assert "document.theta[1]" in err

    def test_rational_with_non_ascii_digit(self, run, tmp_path):
        err = self._reject(run, tmp_path, self._sol3_with_theta("١"), "validate")
        assert "document.theta[1]" in err

    def test_coefficient_key_with_non_ascii_digit(self, run, tmp_path):
        data = json.loads(corpus_text("sol3.json"))
        data["dim"] = 12
        data["basis"] = [f"e{k}" for k in range(12)]
        del data["metric"], data["theta"], data["flat_factor"]
        data["brackets"] = [{"i": 0, "j": 1, "c": {"1١": "1"}}]
        err = self._reject(run, tmp_path, json.dumps(data), "validate")
        assert "coefficient keys must be index strings" in err

    def test_over_long_numerator(self, run, tmp_path):
        err = self._reject(run, tmp_path, self._sol3_with_theta("7" * 5000), "validate")
        assert "digits" in err

    def test_over_long_matrix_integer(self, run, tmp_path):
        text = '{"matrix": [[' + "7" * 5000 + "]]}"
        err = self._reject(run, tmp_path, text, "lattice", "snf")
        assert "invalid JSON" in err

    def test_file_that_is_not_utf8(self, run, tmp_path):
        err = self._reject(run, tmp_path, b"\xff\xfe{}", "validate")
        assert err.startswith(f"error: cannot read {tmp_path / 'doc.json'}: ")

    def test_basis_label_with_a_lone_surrogate(self, run, tmp_path):
        data = json.loads(corpus_text("sol3.json"))
        data["basis"][0] = "\ud800"
        err = self._reject(run, tmp_path, json.dumps(data), "analyze")
        assert err.startswith("error: document.basis: ")

    def test_deeply_nested_document(self, run, tmp_path):
        err = self._reject(run, tmp_path, "[" * 1000 + "\n", "validate")
        assert err == "error: invalid JSON: nested too deeply\n"


class TestStdlibOnly:
    """Every subcommand runs with numpy and scipy unimportable: the one float
    computation, `conformal_exponential_residual`, is the only code that needs them."""

    COMMANDS = (
        (("validate", "sol3.json"), 0),
        (("validate", "lat_upper23.json"), 1),
        (("analyze", "sl2.json"), 0),
        (("lcp", "detect", "sol3.json"), 0),
        (("lcp", "detect", "--json", "rot5.json"), 0),
        (("lcp", "max-flat", "rot4.json"), 0),
        (("lcp", "from-triple", "sol3_triple.json"), 0),
        (("lcp", "char-bound", "--candidate", '[["0", "0", "1", "0"]]', "rot4.json"), 0),
        (("lattice", "snf", "lat_upper23.json"), 0),
        (("lattice", "index", "lat_upper23.json"), 0),
        (("lattice", "lemma51", "lat_diag21_split.json"), 0),
        (("lattice", "lemma51", "lat_upper23.json"), 2),
    )

    def test_every_subcommand_runs_without_numpy_and_scipy(self, monkeypatch, capsys):
        for name in ("numpy", "scipy", "scipy.linalg"):
            monkeypatch.setitem(sys.modules, name, None)
        # a fresh import, so that a module-level import of either fails here too
        for name in [m for m in sys.modules if m.split(".")[0] == "lcplie"]:
            monkeypatch.delitem(sys.modules, name)
        fresh = importlib.import_module("lcplie.cli")
        one = ((Fraction(1),),)
        with pytest.raises(ImportError):
            sys.modules["lcplie.lcp"].conformal_exponential_residual(one, one, Fraction(0), 1.0)
        for (*command, name), expected in self.COMMANDS:
            code = fresh.main([*command, corpus(name)])
            out, err = capsys.readouterr()
            assert code == expected, command
            assert bool(out) == (code == 0) and bool(err) == (code != 0), command


@contextlib.contextmanager
def int_digit_limit(limit: int):
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


class TestOneWriter:
    """`main` alone writes stdout, once, after the command returns, and alone maps
    failures to exit codes: a failed command leaves stdout empty."""

    DIGIT_LIMIT_LINE = "error: result has an integer of more than 640 digits to print\n"

    @staticmethod
    def _big(rng: random.Random) -> str:
        return str(rng.choice((1, -1)) * rng.randrange(10**399, 10**400))

    def test_analyze_past_the_int_digit_limit_is_one_error_line(self, run, tmp_path):
        """In R t x R^3 with [t, x] and [t, y] vectors of 400-digit entries, the
        echelon rows of the derived algebra are 2 x 2 minors of about 800 digits."""
        rng = random.Random(5)
        doc = tmp_path / "wide.json"
        brackets = [
            {"i": 0, "j": j, "c": {str(k): self._big(rng) for k in (1, 2, 3)}} for j in (1, 2)
        ]
        doc.write_text(json.dumps({"dim": 4, "basis": list("txyz"), "brackets": brackets}))
        with int_digit_limit(640):
            code, out, err = run("analyze", str(doc))
        assert (code, out, err) == (2, "", self.DIGIT_LIMIT_LINE)

    @pytest.mark.parametrize("flags", [(), ("--json",)], ids=["text", "json"])
    def test_char_bound_candidate_past_the_int_digit_limit_is_one_error_line(self, run, flags):
        rng = random.Random(6)
        candidate = json.dumps([["0", "0"] + [self._big(rng) for _ in range(3)] for _ in range(2)])
        with int_digit_limit(640):
            code, out, err = run(
                "lcp", "char-bound", corpus("rot5.json"), "--candidate", candidate, *flags
            )
        assert (code, out, err) == (2, "", self.DIGIT_LIMIT_LINE)

    def test_every_pinned_command_writes_stdout_at_most_once(self):
        pinned = json.loads(RECORD.read_text(encoding="utf-8"))

        class CountingStdout:
            def __init__(self):
                self.writes = []

            def write(self, text):
                self.writes.append(text)
                return len(text)

            def flush(self):
                pass

        for argv in commands():
            stdout = CountingStdout()
            args = [str(CORPUS_DIR / a) if a.endswith(".json") else a for a in argv]
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                main(args)
            assert len(stdout.writes) <= 1, argv
            assert "".join(stdout.writes) == pinned[" ".join(argv)]["stdout"], argv

    def test_an_engine_value_error_is_exit_2_and_one_error_line(self, run, monkeypatch):
        def fail(algebra):
            print("partial output")
            raise ValueError("x")

        monkeypatch.setattr(cli, "radical", fail)
        assert run("analyze", corpus("sol3.json")) == (2, "", "error: x\n")

    def test_a_runtime_error_propagates(self, capsys, monkeypatch):
        def fail(algebra):
            print("partial output")
            raise RuntimeError("self-check failed")

        monkeypatch.setattr(cli, "radical", fail)
        with pytest.raises(RuntimeError, match="self-check failed"):
            main(["analyze", corpus("sol3.json")])
        assert capsys.readouterr() == ("", "")
