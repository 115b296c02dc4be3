"""Strict document schema: exact rationals, unknown-field rejection, canonical bytes."""
from __future__ import annotations

import json
from fractions import Fraction

import pytest

from lcplie import liealg
from lcplie.documents import (
    AlgebraDocument,
    DocumentError,
    document_algebra,
    document_metric,
    document_triple,
    emit_algebra_document,
    emit_any_document,
    emit_lattice_document,
    parse_algebra_document,
    parse_lattice_document,
    structure_document,
)

from conftest import CORPUS_DIR, corpus_text, make_sol3, make_sol3_structure

SOL3_DOC = """
{"dim": 3, "basis": ["u", "a", "b"],
 "brackets": [{"i": 0, "j": 1, "c": {"0": "1"}}, {"i": 1, "j": 2, "c": {"2": "1"}}],
 "metric": "identity", "theta": ["0", "-1", "0"]}
"""


def parse_sol3(**overrides):
    data = json.loads(SOL3_DOC)
    data.update(overrides)
    return parse_algebra_document(json.dumps(data))


class TestParsing:
    def test_sol3_document(self):
        doc = parse_sol3()
        algebra = document_algebra(doc)
        assert algebra.table == make_sol3().table
        assert algebra.labels == ("u", "a", "b")
        assert doc.theta == (Fraction(0), Fraction(-1), Fraction(0))
        assert document_metric(doc).gram == tuple(
            tuple(Fraction(1 if i == j else 0) for j in range(3)) for i in range(3)
        )

    def test_flipped_brackets_normalize(self):
        doc = parse_sol3(
            brackets=[
                {"i": 1, "j": 0, "c": {"0": "-1"}},
                {"i": 1, "j": 2, "c": {"2": "1"}},
            ]
        )
        assert document_algebra(doc).table == make_sol3().table

    def test_non_canonical_rationals_are_reduced(self):
        doc = parse_sol3(theta=["0", "-2/4", "0"])
        assert doc.theta[1] == Fraction(-1, 2)

    def test_not_json(self):
        with pytest.raises(DocumentError):
            parse_algebra_document("{\"dim\": 3,")

    def test_top_level_must_be_an_object(self):
        with pytest.raises(DocumentError):
            parse_algebra_document("[1, 2]")

    def test_decimal_rationals_rejected(self):
        with pytest.raises(DocumentError, match="rational"):
            parse_sol3(theta=["0", "-0.5", "0"])

    def test_numeric_rationals_rejected(self):
        with pytest.raises(DocumentError, match="strings"):
            parse_sol3(theta=["0", -1, "0"])

    def test_zero_denominator_rejected(self):
        with pytest.raises(DocumentError, match="denominator"):
            parse_sol3(theta=["0", "1/0", "0"])

    def test_unknown_top_level_field_rejected(self):
        with pytest.raises(DocumentError, match="unknown"):
            parse_sol3(extra=1)

    def test_unknown_bracket_field_rejected(self):
        with pytest.raises(DocumentError, match="unknown"):
            parse_sol3(brackets=[{"i": 0, "j": 1, "c": {"0": "1"}, "x": 0}])

    def test_duplicate_bracket_pairs_rejected(self):
        with pytest.raises(DocumentError, match="more than once"):
            parse_sol3(
                brackets=[
                    {"i": 0, "j": 1, "c": {"0": "1"}},
                    {"i": 1, "j": 0, "c": {"0": "-1"}},
                ]
            )

    def test_diagonal_bracket_rejected(self):
        with pytest.raises(DocumentError):
            parse_sol3(brackets=[{"i": 1, "j": 1, "c": {"0": "1"}}])

    def test_bracket_indices_out_of_range(self):
        with pytest.raises(DocumentError):
            parse_sol3(brackets=[{"i": 0, "j": 7, "c": {"0": "1"}}])

    def test_basis_count_must_match_dim(self):
        with pytest.raises(DocumentError):
            parse_sol3(basis=["u", "a"])

    def test_duplicate_labels_rejected(self):
        with pytest.raises(DocumentError):
            parse_sol3(basis=["u", "u", "b"])

    def test_theta_length_must_match(self):
        with pytest.raises(DocumentError):
            parse_sol3(theta=["0", "-1"])

    def test_metric_must_be_square_of_dim(self):
        with pytest.raises(DocumentError):
            parse_sol3(metric=[["1", "0"], ["0", "1"]])

    def test_partial_algebra_group_rejected(self):
        with pytest.raises(DocumentError):
            parse_algebra_document('{"dim": 2, "basis": ["x", "y"]}')

    def test_metric_requires_algebra_fields(self):
        with pytest.raises(DocumentError):
            parse_algebra_document('{"metric": "identity"}')

    def test_empty_document_rejected(self):
        with pytest.raises(DocumentError):
            parse_algebra_document("{}")

    def test_brackets_are_the_algebra_table(self, monkeypatch):
        doc = parse_sol3(brackets=[{"i": 2, "j": 1, "c": {"2": "-1"}}, {"i": 0, "j": 1, "c": {"0": "2/2"}}])
        assert doc.brackets == make_sol3().table

        def forbidden(*args):
            raise AssertionError("parsed brackets normalized again")

        monkeypatch.setattr(liealg, "_normalize_brackets", forbidden)
        assert document_algebra(doc).table is doc.brackets

    def test_jacobi_is_not_checked_at_parse_time(self):
        # schema layer stays syntactic; the algebra constructor owns the check
        doc = parse_sol3(
            brackets=[
                {"i": 0, "j": 1, "c": {"0": "1"}},
                {"i": 0, "j": 2, "c": {"1": "1"}},
            ]
        )
        with pytest.raises(ValueError):
            document_algebra(doc)


class TestTripleBlock:
    def test_corpus_triple_parses(self):
        doc = parse_algebra_document(corpus_text("sol3_triple.json"))
        triple = document_triple(doc)
        assert triple.q == 1
        assert triple.h_algebra.labels == ("a", "b")
        assert triple.beta == (((Fraction(0),),), ((Fraction(0),),))

    def test_missing_h_metric_defaults_to_identity(self):
        data = json.loads(corpus_text("sol3_triple.json"))
        del data["triple"]["h"]["metric"]
        triple = document_triple(parse_algebra_document(json.dumps(data)))
        assert triple.h_metric.gram == ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))

    def test_unknown_triple_field_rejected(self):
        data = json.loads(corpus_text("sol3_triple.json"))
        data["triple"]["gamma"] = []
        with pytest.raises(DocumentError, match="unknown"):
            parse_algebra_document(json.dumps(data))

    def test_beta_count_must_match_h_dim(self):
        data = json.loads(corpus_text("sol3_triple.json"))
        data["triple"]["beta"] = [[["0"]]]
        with pytest.raises(DocumentError):
            parse_algebra_document(json.dumps(data))


class TestLatticeDocuments:
    def test_corpus_split_document(self):
        doc = parse_lattice_document(corpus_text("lat_diag21_split.json"))
        assert doc.endomorphism.matrix == ((2, 0), (0, 1))
        assert doc.e1 == ((Fraction(1), Fraction(0)),)
        assert doc.e2 == ((Fraction(0), Fraction(1)),)

    def test_matrix_entries_must_be_integers(self):
        with pytest.raises(DocumentError):
            parse_lattice_document('{"matrix": [[1, 0], ["1", 1]]}')
        with pytest.raises(DocumentError):
            parse_lattice_document('{"matrix": [[true, 0], [0, 1]]}')

    def test_split_requires_both_bases(self):
        with pytest.raises(DocumentError):
            parse_lattice_document('{"matrix": [[1]], "split": {"e1": [["1"]]}}')

    def test_unknown_fields_rejected(self):
        with pytest.raises(DocumentError, match="unknown"):
            parse_lattice_document('{"matrix": [[1]], "shift": 2}')


class TestEmission:
    def test_corpus_files_are_byte_stable(self):
        for path in sorted(CORPUS_DIR.glob("*.json")):
            text = path.read_text(encoding="utf-8")
            assert emit_any_document(text) == text, path.name

    def test_emission_is_canonical_for_messy_input(self):
        messy = json.dumps(
            {
                "theta": ["0", "-2/2", "0"],
                "dim": 3,
                "brackets": [
                    {"c": {"2": "1"}, "j": 2, "i": 1},
                    {"i": 1, "j": 0, "c": {"0": "-3/3"}},
                ],
                "basis": ["u", "a", "b"],
                "metric": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
            }
        )
        emitted = emit_algebra_document(parse_algebra_document(messy))
        again = emit_algebra_document(parse_algebra_document(emitted))
        assert emitted == again
        data = json.loads(emitted)
        assert list(data) == ["dim", "basis", "brackets", "metric", "theta"]
        assert data["metric"] == "identity"
        assert data["brackets"][0] == {"i": 0, "j": 1, "c": {"0": "1"}}
        assert emitted.endswith("\n")

    def test_zero_coefficients_are_dropped(self):
        def doc(*brackets):
            data = json.loads(SOL3_DOC)
            data["brackets"] = list(brackets)
            return json.dumps(data)

        plain = {"i": 1, "j": 2, "c": {"2": "1"}}
        padded = {"i": 1, "j": 2, "c": {"0": "0", "2": "1", "1": "-0/3"}}
        all_zero = {"i": 0, "j": 1, "c": {"0": "0"}}
        expected = emit_algebra_document(parse_algebra_document(doc(plain)))
        emitted = emit_algebra_document(parse_algebra_document(doc(padded, all_zero)))
        assert emitted == expected
        assert json.loads(emitted)["brackets"] == [plain]
        assert emit_any_document(emitted) == emitted

    def test_zero_entry_still_counts_as_a_duplicate(self):
        with pytest.raises(DocumentError, match="more than once"):
            parse_sol3(
                brackets=[
                    {"i": 0, "j": 1, "c": {"0": "0"}},
                    {"i": 1, "j": 0, "c": {"0": "1"}},
                ]
            )

    def test_lattice_emission_round_trip(self):
        text = corpus_text("lat_fib_split.json")
        assert emit_lattice_document(parse_lattice_document(text)) == text

    def test_structure_document_matches_corpus(self):
        doc = structure_document(make_sol3_structure())
        assert emit_algebra_document(doc) == corpus_text("sol3.json")

    def test_algebra_document_is_frozen(self):
        doc = parse_sol3()
        assert isinstance(doc, AlgebraDocument)
        with pytest.raises(AttributeError):
            doc.dim = 5
