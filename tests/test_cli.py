"""End-to-end command behavior, exit codes and frozen report text."""
from __future__ import annotations

import importlib
import json
import sys
from fractions import Fraction

import pytest

from lcplie import cli, connections, lcp
from lcplie.cli import main

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


class TestParser:
    def test_two_calls_build_the_parser_once(self, run):
        cli.build_parser.cache_clear()
        assert run("analyze", corpus("sol3.json")) == (0, SOL3_ANALYSIS, "")
        assert run("analyze", corpus("heis3.json"))[0] == 0
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
