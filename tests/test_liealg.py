"""Structure constants, Jacobi checking, series, forms, semidirect sums."""
from __future__ import annotations

import json
import random
import re
import time
from fractions import Fraction

import pytest

from lcplie import liealg, linalg
from lcplie.liealg import (
    Covector,
    LieAlgebra,
    bracket_span,
    center,
    check_jacobi,
    derived_algebra,
    derived_series,
    homomorphism_defect,
    is_abelian,
    is_abelian_subspace,
    is_ideal,
    is_nilpotent,
    is_semisimple,
    is_solvable,
    is_unimodular,
    killing_form,
    lower_central_series,
    radical,
    semidirect_sum,
    trace_form,
)
from lcplie.cli import main
from lcplie.connections import InnerProduct, is_closed
from lcplie.lcp import LCPTriple
from lcplie.linalg import Subspace, matrix, pairs, symmetric_signature, vector

import reference
from cases import (
    RADICAL_BINDING,
    closed_covectors,
    radical_binding_algebras,
    random_subspace,
    random_table,
    rebased,
    scaling_family,
    seeded_algebras,
    seeded_representations,
    sparse_table,
    wide_families,
    wide_family,
)
from conftest import (
    CORPUS_DIR,
    ROTATION,
    ZERO2,
    make_abelian,
    make_aff,
    make_heis3,
    make_sl2,
    make_sol3,
)
from reference import DenseBrackets

F = Fraction


class TestJacobi:
    def test_corpus_tables_are_lie_algebras(self):
        for make in (make_sol3, make_heis3, make_aff, make_sl2, make_abelian):
            algebra = make()
            n = algebra.dim
            c = DenseBrackets(algebra).c
            for i in range(n):
                for j in range(n):
                    for k in range(n):
                        defect = reference.jacobiator(
                            c,
                            algebra.basis_vector(i),
                            algebra.basis_vector(j),
                            algebra.basis_vector(k),
                        )
                        assert all(c == 0 for c in defect)

    def test_violation_is_located(self):
        # [e1, e2] = e1 with [e1, e3] = e2 breaks the identity at (e1, e2, e3)
        bad = {(0, 1): {0: F(1)}, (0, 2): {1: F(1)}}
        assert check_jacobi(3, bad) == ((0, 1, 2),)

    def test_constructor_rejects_non_jacobi_table(self):
        with pytest.raises(ValueError, match="Jacobi"):
            LieAlgebra.from_brackets(3, {(0, 1): {0: F(1)}, (0, 2): {1: F(1)}})

    def test_sl2_passes(self):
        assert check_jacobi(3, {(0, 1): {1: F(2)}, (0, 2): {2: F(-2)}, (1, 2): {0: F(1)}}) == ()


class TestSparseJacobi:
    def test_matches_dense_sweep_on_seeded_random_tables(self):
        rng = random.Random(1976)
        violated = 0
        for _ in range(60):
            dim = rng.randint(3, 7)
            table = random_table(rng, dim)
            expected = reference.jacobi_defects(reference.structure_constants(dim, sparse_table(dim, table)))
            lifted = liealg._lift_table(sparse_table(dim, table))[1]
            assert list(liealg._jacobi_defects(lifted)) == [triple for triple, _ in expected]
            violated += bool(expected)
        assert violated > 30

    def test_valid_tables_have_no_defects(self):
        for make in (make_sol3, make_heis3, make_aff, make_sl2, make_abelian):
            algebra = make()
            assert reference.jacobi_defects(DenseBrackets(algebra).c) == []
            assert list(liealg._jacobi_defects(algebra._lifted_table[1])) == []

    def test_wide_abelian_algebra_builds_fast(self):
        for n in (60, 400):
            start = time.perf_counter()
            algebra = LieAlgebra.abelian(n)
            assert time.perf_counter() - start < 1.0
            assert is_abelian(algebra)


class TestSparseTable:
    """Every reader of the nonzero-bracket table against a dense formula."""

    def test_basis_bracket_matches_the_table(self):
        for algebra in seeded_algebras():
            n = algebra.dim
            c = DenseBrackets(algebra).c
            for i in range(n):
                for j in range(n):
                    assert algebra.basis_bracket(i, j) == c[i][j]

    def test_bracket_is_the_dense_sum(self):
        rng = random.Random(61)
        for algebra in seeded_algebras():
            n = algebra.dim
            for _ in range(4):
                x = [F(rng.randint(-2, 2)) if rng.random() < 0.6 else F(0) for _ in range(n)]
                y = [F(rng.randint(-2, 2), 2) if rng.random() < 0.6 else F(0) for _ in range(n)]
                assert algebra.bracket(x, y) == DenseBrackets(algebra).bracket(x, y)

    def test_trace_form_is_the_trace_of_ad(self):
        for algebra in seeded_algebras():
            expected = reference.trace_form(DenseBrackets(algebra).c)
            assert trace_form(algebra).coefficients == expected

    def test_killing_form_is_the_trace_of_the_product(self):
        for algebra in seeded_algebras():
            expected = reference.killing_form(DenseBrackets(algebra).c)
            assert killing_form(algebra) == expected

    def test_center_is_the_common_kernel_of_ad(self):
        for algebra in seeded_algebras():
            n = algebra.dim
            # x is central iff [x, e_j] = -ad_{e_j} x vanishes for every j
            c = DenseBrackets(algebra).c
            rows = tuple(row for j in range(n) for row in reference.ad(c, j))
            assert center(algebra) == Subspace.from_vectors(reference.kernel(rows, n), n)

    def test_is_closed_means_theta_kills_every_bracket(self):
        rng = random.Random(62)
        verdicts = set()
        for algebra in seeded_algebras():
            n = algebra.dim
            for theta in closed_covectors(algebra, count=2, seed=n) + [
                Covector(tuple(F(rng.randint(-1, 1)) for _ in range(n))) for _ in range(3)
            ]:
                expected = reference.is_closed(DenseBrackets(algebra).c, theta.coefficients)
                assert is_closed(algebra, theta) == expected
                verdicts.add(expected)
        assert verdicts == {True, False}


def canonical_violations():
    """Tables for dim 3 that break the canonical form, one rule each."""
    return {
        "unsorted entries": ((1, 2, ((1, F(1)),)), (0, 2, ((0, F(-1)),))),
        "repeated pair": ((0, 2, ((0, F(-1)),)), (0, 2, ((0, F(-1)),))),
        "zero coefficient": ((0, 2, ((0, F(0)),)),),
        "i > j": ((2, 0, ((0, F(1)),)),),
        "i == j": ((1, 1, ((0, F(1)),)),),
        "no coefficients": ((0, 2, ()),),
        "k descending": ((0, 2, ((1, F(1)), (0, F(1)))),),
        "k out of range": ((0, 2, ((3, F(1)),)),),
        "j out of range": ((0, 3, ((0, F(1)),)),),
        "negative index": ((-1, 2, ((0, F(1)),)),),
        "int coefficient": ((0, 2, ((0, 1),)),),
        "list of entries": [(0, 2, ((0, F(-1)),))],
        "dense sol3 layout": tuple(DenseBrackets(make_sol3()).c[i][j] for i, j in pairs(3)),
        "dense zero layout": ((F(0),) * 3,) * 3,
    }


class TestCanonicalTable:
    def test_from_brackets_is_accepted_by_the_constructor(self):
        sol3 = make_sol3()
        assert sol3.table == ((0, 1, ((0, F(1)),)), (1, 2, ((2, F(1)),)))
        assert LieAlgebra(3, sol3.labels, sol3.table) == sol3
        assert LieAlgebra(3, ("x", "y", "z"), ()).table == ()

    @pytest.mark.parametrize("name", sorted(canonical_violations()))
    def test_non_canonical_table_is_rejected(self, name):
        with pytest.raises(ValueError, match="canonical"):
            LieAlgebra(3, ("x", "y", "z"), canonical_violations()[name])

    @pytest.mark.parametrize(
        "table",
        [((False, True, ((1, F(1)),)),), ((0, 1, ((True, F(1)),)),)],
        ids=["bool pair", "bool coefficient index"],
    )
    def test_bool_indices_are_rejected(self, table):
        with pytest.raises(ValueError, match="canonical"):
            LieAlgebra(2, ("x", "y"), table)

    @pytest.mark.parametrize(
        "dim, labels",
        [(0, ()), (-1, ()), (True, ("a",)), (2.0, ("a", "b"))],
        ids=["zero", "negative", "bool", "float"],
    )
    def test_dimension_must_be_a_positive_int(self, dim, labels):
        with pytest.raises(ValueError, match="dimension must be positive"):
            LieAlgebra(dim, labels, ())
        with pytest.raises(ValueError, match="dimension must be positive"):
            LieAlgebra.from_brackets(dim, {}, labels)


class TestBrackets:
    def test_bracket_normalization_is_antisymmetric(self):
        flipped = LieAlgebra.from_brackets(3, {(1, 0): {0: F(-1)}, (1, 2): {2: F(1)}})
        assert flipped.table == make_sol3().table

    def test_rejects_diagonal_pairs_and_duplicates(self):
        with pytest.raises(ValueError):
            LieAlgebra.from_brackets(2, {(1, 1): {0: F(1)}})
        with pytest.raises(ValueError):
            LieAlgebra.from_brackets(2, {(0, 1): {1: F(1)}, (1, 0): {1: F(1)}})

    @pytest.mark.parametrize(
        "brackets",
        [
            {(0, 1): {1.7: 1}},
            {(0, 1): {" 1": 1}},
            {(0, 1): {"1_0": 1}},
            {(0, 1): {True: 1}},
            {(False, True): {1: 1}},
            {(0, 1.0): {1: 1}},
            {("0", 1): {1: 1}},
        ],
        ids=["float k", "padded string k", "underscore string k", "bool k", "bool pair",
             "float j", "string i"],
    )
    def test_indices_must_be_ints(self, brackets):
        with pytest.raises(TypeError, match="must be"):
            LieAlgebra.from_brackets(2, brackets)
        with pytest.raises(TypeError, match="must be"):
            check_jacobi(2, brackets)

    def test_bracket_is_bilinear(self, sol3):
        a_plus = sol3.bracket(vector([0, 1, 0]), vector([1, 0, 1]))
        # [a, u + b] = -u + b
        assert a_plus == (F(-1), F(0), F(1))

    def test_bracket_rejects_wrong_length_vectors(self, sol3):
        e1 = vector([1, 0, 0])
        for x in (vector([0, 1]), vector([0, 1, 0, 5])):
            with pytest.raises(ValueError, match="vector length"):
                sol3.bracket(x, e1)
            with pytest.raises(ValueError, match="vector length"):
                sol3.bracket(e1, x)

    def test_basis_bracket_rejects_out_of_range_indices(self, sol3):
        for i, j in ((7, 8), (0, 3), (-1, 0)):
            with pytest.raises(ValueError, match="need 0 <= i, j < n"):
                sol3.basis_bracket(i, j)
        assert sol3.basis_bracket(2, 1) == (F(0), F(0), F(-1))

    def test_basis_vector_rejects_out_of_range_indices(self, sol3):
        for i in (-1, 3, 7):
            with pytest.raises(ValueError, match=f"need 0 <= i < n, got {i} with n=3"):
                sol3.basis_vector(i)
        assert sol3.basis_vector(2) == (F(0), F(0), F(1))

    def test_ad_matrix_columns(self, sol3):
        assert sol3.ad(vector([0, 1, 0])) == matrix([[-1, 0, 0], [0, 0, 0], [0, 0, 1]])

    @pytest.mark.parametrize("labels", [(1, 2), ("", "x")], ids=["ints", "empty string"])
    def test_labels_must_be_nonempty_strings(self, labels):
        # the document parser asks the same of basis; an int label broke printing a span
        with pytest.raises(ValueError, match="^basis labels must be nonempty strings$"):
            LieAlgebra(2, labels, ())
        with pytest.raises(ValueError, match="^basis labels must be nonempty strings$"):
            LieAlgebra.from_brackets(2, {}, labels=labels)

    def test_label_validation(self):
        with pytest.raises(ValueError):
            LieAlgebra.from_brackets(2, {}, labels=("x", "x"))
        with pytest.raises(ValueError):
            LieAlgebra.from_brackets(2, {}, labels=("x",))


class TestSeries:
    def test_derived_series_sol3(self, sol3):
        series = derived_series(sol3)
        assert series[0] == Subspace.from_vectors(matrix([[1, 0, 0], [0, 0, 1]]), 3)
        assert series[-1].is_zero()
        assert is_solvable(sol3)
        assert not is_nilpotent(sol3)

    def test_lower_central_series_heis3(self, heis3):
        series = lower_central_series(heis3)
        assert series[0] == Subspace.from_vectors(matrix([[0, 0, 1]]), 3)
        assert series[-1].is_zero()
        assert is_nilpotent(heis3)

    def test_sl2_is_perfect(self, sl2):
        assert derived_algebra(sl2).is_full()
        assert derived_series(sl2) == (Subspace.full(3),)
        assert not is_solvable(sl2)

    def test_abelian_flags(self):
        r3 = make_abelian(3)
        assert is_abelian(r3)
        assert is_nilpotent(r3) and is_solvable(r3)
        assert derived_algebra(r3).is_zero()

    def test_bracket_span_drops_zero_brackets(self, monkeypatch, heis3):
        seen = []
        from_vectors = Subspace.from_vectors.__func__

        def spy(cls, vectors, ambient_dim):
            seen.extend(vectors)
            return from_vectors(cls, vectors, ambient_dim)

        monkeypatch.setattr(Subspace, "from_vectors", classmethod(spy))
        full = heis3.full_space()
        assert bracket_span(heis3, full, full) == Subspace(3, ((0, 0, 1),))
        assert seen and all(any(v) for v in seen)

    def test_bracket_span_of_subspaces(self, sol3):
        span_a = Subspace.from_vectors(matrix([[0, 1, 0]]), 3)
        full = Subspace.full(3)
        assert bracket_span(sol3, span_a, full) == Subspace.from_vectors(
            matrix([[1, 0, 0], [0, 0, 1]]), 3
        )


def heis_plus_diag():
    """heis3 (x, y, z) plus the plane acted on by t with weights 1 and -2."""
    return LieAlgebra.from_brackets(
        6, {(0, 1): {2: F(1)}, (3, 5): {3: F(-1)}, (4, 5): {4: F(2)}}
    )


def sl2_on_plane():
    """sl2 acting on R^2 by its standard representation; the radical is R^2."""
    h, e, f = matrix([[1, 0], [0, -1]]), matrix([[0, 1], [0, 0]]), matrix([[0, 0], [1, 0]])
    return semidirect_sum(2, make_sl2(), (h, e, f))


class TestDerivedAlgebraFromTheTable:
    def test_series_and_radical_match_the_dense_oracle(self):
        radicals = set()
        for algebra in seeded_algebras() + [heis_plus_diag(), sl2_on_plane()]:
            dense = DenseBrackets(algebra)
            assert derived_algebra(algebra) == dense.derived
            assert derived_series(algebra) == dense.series(lambda s: dense.span(s, s))
            assert lower_central_series(algebra) == dense.series(
                lambda s: dense.span(dense.full, s)
            )
            assert radical(algebra) == dense.radical()
            radicals.add((radical(algebra).dim, algebra.dim))
        assert (0, 3) in radicals and (2, 5) in radicals

    def test_heis_plus_diag(self):
        algebra = heis_plus_diag()
        assert derived_algebra(algebra) == Subspace.from_vectors(
            matrix([[0, 0, 1, 0, 0, 0], [0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 1, 0]]), 6
        )
        assert is_solvable(algebra) and not is_nilpotent(algebra)

    def test_wide_abelian_analyze_makes_no_bracket_calls(self, monkeypatch, tmp_path, capsys):
        n = 300
        doc = tmp_path / "abelian300.json"
        doc.write_text(json.dumps(
            {"dim": n, "basis": [f"e{i + 1}" for i in range(n)], "brackets": []}
        ))
        calls = []
        bracket = LieAlgebra.bracket

        def counted(self, x, y):
            calls.append(1)
            return bracket(self, x, y)

        monkeypatch.setattr(LieAlgebra, "bracket", counted)
        assert main(["analyze", str(doc)]) == 0
        out = capsys.readouterr().out
        assert f"derived algebra: 0 (dim 0)\nradical: span{{e1, " in out
        assert f"killing signature: (0, 0, {n})" in out
        assert len(calls) == 0


def algebra_document(path, algebra):
    """Write the algebra as an algebra document at path and return the path."""
    path.write_text(json.dumps({
        "dim": algebra.dim,
        "basis": list(algebra.labels),
        "brackets": [
            {"i": i, "j": j, "c": {str(k): str(c) for k, c in terms}}
            for i, j, terms in algebra.table
        ],
    }))
    return path


class TestTableDrivenStructure:
    """bracket_span, is_ideal, centralizers, both series and the radical from
    the table, against the dense basis_bracket oracle."""

    def test_center_and_radical_match_the_dense_oracle(self):
        full_radical = set()
        algebras = wide_families() + [heis_plus_diag(), sl2_on_plane()] + radical_binding_algebras()
        for algebra in algebras:
            dense = DenseBrackets(algebra)
            assert center(algebra) == dense.centralizer(reference.identity(algebra.dim))
            rad = radical(algebra)
            assert rad == dense.radical()
            # the radical is a solvable ideal
            assert is_ideal(algebra, rad) and liealg._derived_chain(algebra, rad)[-1].is_zero()
            full_radical.add(rad.is_full())
        assert full_radical == {True, False}

    def test_matches_the_dense_oracle_on_random_subspaces(self):
        rng = random.Random(314)
        ideal_verdicts = set()
        closed_verdicts = set()
        wide = wide_families()
        for algebra in seeded_algebras() + [heis_plus_diag(), sl2_on_plane()] + wide:
            n = algebra.dim
            dense = DenseBrackets(algebra)
            if algebra in wide:  # the other algebras are checked in TestDerivedAlgebraFromTheTable
                assert derived_series(algebra) == dense.series(lambda s: dense.span(s, s))
                assert lower_central_series(algebra) == dense.series(
                    lambda s: dense.span(dense.full, s)
                )
                assert radical(algebra) == dense.radical()
            spaces = [random_subspace(rng, n, sparse_share=0.5, choices=(-1, 0, 0, 1, 2)) for _ in range(4)]
            spaces += [Subspace.zero(n), dense.full, dense.derived]
            for left in spaces:
                for right in spaces[:3]:
                    assert bracket_span(algebra, left, right) == dense.span(left, right)
                ideal = all(
                    left.contains(dense.bracket(e, row))
                    for e in reference.identity(n) for row in reference.basis(left)
                )
                assert is_ideal(algebra, left) == ideal
                ideal_verdicts.add(ideal)
                assert liealg._centralizer(algebra, left.rows) == dense.centralizer(reference.basis(left))
                closed_verdicts.add(left.contains_subspace(dense.span(left, left)))
        assert ideal_verdicts == {True, False}
        assert closed_verdicts == {True, False}

    def test_analyze_heis_plus_diag_makes_no_bracket_calls(self, monkeypatch, tmp_path, capsys):
        doc = algebra_document(tmp_path / "heis_diag.json", heis_plus_diag())
        calls = []
        bracket = LieAlgebra.bracket

        def counted(self, x, y):
            calls.append(1)
            return bracket(self, x, y)

        monkeypatch.setattr(LieAlgebra, "bracket", counted)
        assert main(["analyze", str(doc)]) == 0
        out = capsys.readouterr().out
        assert "solvable: yes\nnilpotent: no\n" in out
        assert len(calls) == 0

    def test_analyze_builds_each_invariant_once(self, monkeypatch, tmp_path, capsys):
        names = ("_killing_form", "_derived_algebra", "_derived_series", "_lower_central_series")
        builds = dict.fromkeys(names, 0)
        for name in names:
            prop = LieAlgebra.__dict__[name]

            def counted(algebra, name=name, build=prop.func):
                builds[name] += 1
                return build(algebra)

            monkeypatch.setattr(prop, "func", counted)
        documents = {
            CORPUS_DIR / "sl2.json": "killing signature: (2, 1, 0)",
            CORPUS_DIR / "sol3.json": "solvable: yes\nnilpotent: no\n",
            algebra_document(tmp_path / "heis_diag.json", heis_plus_diag()): "solvable: yes\n",
        }
        for doc, expected in documents.items():
            builds.update(dict.fromkeys(names, 0))
            assert main(["analyze", str(doc)]) == 0
            assert expected in capsys.readouterr().out
            assert builds == dict.fromkeys(names, 1), doc.name

    def test_solvable_algebras_never_bracket_the_whole_space(self, monkeypatch, tmp_path, capsys):
        # the radical is the whole algebra: its self-check reads the derived series
        lefts = []
        span = liealg.bracket_span

        def spy(algebra, left, right):
            lefts.append(left)
            return span(algebra, left, right)

        monkeypatch.setattr(liealg, "bracket_span", spy)
        heis_diag = str(algebra_document(tmp_path / "heis_diag.json", heis_plus_diag()))
        for argv in (
            ["analyze", str(CORPUS_DIR / "sol3.json")],
            ["analyze", str(CORPUS_DIR / "rot4.json")],
            ["analyze", heis_diag],
            ["lcp", "char-bound", str(CORPUS_DIR / "sol3.json")],
            ["lcp", "char-bound", str(CORPUS_DIR / "rot4.json")],
        ):
            lefts.clear()
            assert main(argv) == 0
            out = capsys.readouterr().out
            assert argv[0] == "lcp" or "solvable: yes\n" in out
            assert lefts and not any(left.is_full() for left in lefts), argv

    def test_full_radical_self_check_reads_the_derived_series(self):
        sol3 = make_sol3()  # solvable, so the radical is the whole algebra
        sol3.__dict__["_derived_series"] = (Subspace(3, ((1, 0, 0),)),)  # a cached series not reaching 0
        with pytest.raises(RuntimeError, match="radical self-check failed"):
            radical(sol3)

    def test_radical_self_check_rejects_a_non_ideal(self, monkeypatch):
        # a solvable algebra is its own radical, so the Killing route, and this
        # check, run on a non-solvable one: so(3) + aff(R) on R^2, where span{r1}
        # is an abelian subalgebra but [r2, r1] = -r3 leaves it
        algebra = radical_binding_algebras()[0]
        r1 = algebra.basis_vector(algebra.labels.index("r1"))
        span_r1 = Subspace.from_vectors([r1], algebra.dim)
        assert not is_solvable(algebra) and not is_ideal(algebra, span_r1)
        monkeypatch.setattr(Subspace, "kernel_of", classmethod(lambda cls, m, n: span_r1))
        with pytest.raises(RuntimeError, match="computed subspace is not a solvable ideal$"):
            radical(algebra)

    def test_radical_self_check_rejects_a_non_solvable_ideal(self, monkeypatch, sl2):
        # all of sl2 is an ideal, but [sl2, sl2] = sl2, so its derived chain never reaches 0
        full = Subspace.full(3)
        monkeypatch.setattr(Subspace, "kernel_of", classmethod(lambda cls, m, n: full))
        with pytest.raises(RuntimeError, match="radical self-check failed"):
            radical(sl2)

    @pytest.mark.parametrize("index", range(3))
    def test_radical_self_check_rejects_a_solvable_ideal_short_of_the_radical(self, monkeypatch, index):
        """Drop one row of the radical of a RADICAL_BINDING algebra so that what is
        left is still a solvable ideal: only g / r being semisimple tells them apart."""
        algebra = radical_binding_algebras()[index]
        rows = radical(algebra).rows
        shorter = [Subspace.from_vectors(rows[:k] + rows[k + 1 :], algebra.dim) for k in range(len(rows))]
        short = next(
            s for s in shorter
            if is_ideal(algebra, s) and liealg._derived_chain(algebra, s)[-1].is_zero()
        )
        monkeypatch.setattr(Subspace, "orthogonal_complement", lambda self, gram: short)
        with pytest.raises(RuntimeError, match="^radical self-check failed: g / radical is not semisimple$"):
            radical(algebra)

    @pytest.mark.parametrize("compute", [derived_series, lower_central_series, radical])
    def test_each_fixed_point_runs_one_descending_chain(self, monkeypatch, compute):
        calls = []
        chain = liealg._descending_chain

        def counted(start, step):
            calls.append(start)
            return chain(start, step)

        monkeypatch.setattr(liealg, "_descending_chain", counted)
        for algebra in (make_sol3(), make_heis3(), make_sl2(), heis_plus_diag()):
            calls.clear()
            result = compute(algebra)
            # one chain per subspace certified: each computation runs the chain
            # from [g, g], and a radical short of g (sl2's zero) runs its own too
            certified = [derived_algebra(algebra)]
            if compute is radical and not result.is_full():
                certified.append(result)
            assert calls == certified, algebra.labels


def sl2_plus_line():
    return LieAlgebra.from_brackets(4, {(0, 1): {1: F(2)}, (0, 2): {2: F(-2)}, (1, 2): {0: F(1)}})


class TestIntegerRowStructure:
    """The structure functions scale each vector to a primitive integer row and
    read the integer table; against the dense oracle on coordinates with large,
    non-integer denominators."""

    def test_matches_the_dense_oracle_on_rational_coordinates(self):
        rng = random.Random(1618)
        verdicts = set()
        algebras = [heis_plus_diag(), sl2_on_plane(), sl2_plus_line(), make_sol3(), make_sl2()]
        for algebra in algebras + [rebased(a, rng) for a in algebras]:
            n = algebra.dim
            dense = DenseBrackets(algebra)
            rad = radical(algebra)
            assert rad == dense.radical()
            assert center(algebra) == dense.centralizer(reference.identity(n))
            spaces = [random_subspace(rng, n, num=10**12, den=10**9, density=0.7) for _ in range(4)]
            spaces += [Subspace.zero(n), dense.full, dense.derived, rad]
            for left in spaces:
                for right in spaces[:2] + spaces[-3:]:
                    assert bracket_span(algebra, left, right) == dense.span(left, right)
                ideal = left.contains_subspace(dense.span(dense.full, left))
                abelian = dense.span(left, left).is_zero()
                assert is_ideal(algebra, left) == ideal
                assert is_abelian_subspace(algebra, left) == abelian
                verdicts |= {("ideal", ideal), ("abelian", abelian)}
        assert verdicts == {("ideal", True), ("ideal", False), ("abelian", True), ("abelian", False)}

    def test_bracket_span_rejects_subspaces_of_another_dimension(self):
        algebra = LieAlgebra.from_brackets(3, {(0, 1): {1: 1}})
        own = algebra.full_space()
        for n in (5, 2):
            other = Subspace.full(n)
            for left, right in ((other, other), (other, own), (own, other)):
                with pytest.raises(ValueError, match="dimension does not match the algebra"):
                    bracket_span(algebra, left, right)
            with pytest.raises(ValueError):
                is_abelian_subspace(algebra, other)
            with pytest.raises(ValueError):
                is_ideal(algebra, other)


class TestForms:
    def test_killing_form_sl2(self, sl2):
        assert killing_form(sl2) == matrix([[8, 0, 0], [0, 0, 4], [0, 4, 0]])
        assert symmetric_signature(killing_form(sl2)) == (2, 1, 0)

    def test_killing_form_sol3(self, sol3):
        assert killing_form(sol3) == matrix([[0, 0, 0], [0, 2, 0], [0, 0, 0]])

    def test_trace_form_aff(self, aff):
        assert trace_form(aff).coefficients == (F(1), F(0))
        assert not is_unimodular(aff)

    def test_unimodular_iff_trace_form_vanishes(self):
        for make in (make_sol3, make_heis3, make_aff, make_sl2, make_abelian):
            algebra = make()
            assert is_unimodular(algebra) == trace_form(algebra).is_zero()

    def test_covector_evaluation(self):
        theta = Covector((F(0), F(-1), F(0)))
        assert theta.value(vector([2, 3, 5])) == F(-3)
        assert theta.dim == 3
        assert not theta.is_zero()


class TestIdealsAndRadical:
    def test_center_heis3(self, heis3):
        assert center(heis3) == Subspace.from_vectors(matrix([[0, 0, 1]]), 3)

    def test_center_sol3_trivial(self, sol3):
        assert center(sol3).is_zero()

    def test_ideals(self, sol3):
        assert is_ideal(sol3, Subspace.from_vectors(matrix([[1, 0, 0]]), 3))
        assert not is_ideal(sol3, Subspace.from_vectors(matrix([[0, 1, 0]]), 3))

    def test_abelian_subspaces(self, sol3):
        assert is_abelian_subspace(sol3, Subspace.from_vectors(matrix([[1, 0, 0], [0, 0, 1]]), 3))
        assert not is_abelian_subspace(
            sol3, Subspace.from_vectors(matrix([[1, 0, 0], [0, 1, 0]]), 3)
        )

    def test_radical_of_solvable_algebra_is_everything(self, sol3):
        assert radical(sol3).is_full()

    def test_radical_of_sl2_is_zero(self, sl2):
        assert radical(sl2).is_zero()
        assert is_semisimple(sl2)

    def test_solvable_radical_is_the_whole_space_without_the_killing_route(self, monkeypatch):
        """A solvable g is its own radical, which its derived series proves; the
        Killing route, called directly, gives the same. A non-solvable g still
        takes that route and runs both halves of the self-check."""
        rng = random.Random(3779)
        solvable = [scaling_family(n).algebra for n in range(4, 13)] + wide_families()
        solvable += [wide_family(rng, rng.randint(1, 3), rng.randint(0, 4)) for _ in range(8)]
        solvable += [heis_plus_diag(), make_sol3(), make_heis3()]
        others = [make_sl2(), sl2_on_plane()] + radical_binding_algebras()
        killing_route = [
            derived_algebra(a).orthogonal_complement(killing_form(a)) for a in solvable + others
        ]
        dense = [DenseBrackets(a).radical() for a in others]
        labelled = [  # the radicals RADICAL_BINDING names by their basis labels
            Subspace.from_vectors([a.basis_vector(a.labels.index(x)) for x in case[2]], a.dim)
            for case, a in zip(RADICAL_BINDING, others[2:])
        ]
        assert dense[2:] == labelled
        checks = []
        for name in ("killing_form", "is_ideal", "_quotient_is_semisimple"):
            def spy(*args, original=getattr(liealg, name), name=name):
                checks.append(name)
                return original(*args)

            monkeypatch.setattr(liealg, name, spy)
        radicals, both_halves = [], ["killing_form", "is_ideal", "_quotient_is_semisimple"]
        for algebra in solvable + others:
            fresh = LieAlgebra(algebra.dim, algebra.labels, algebra.table)  # nothing cached
            checks.clear()
            radicals.append(radical(fresh))
            if algebra in solvable:
                assert is_solvable(fresh) and radicals[-1] == fresh.full_space()
                assert checks == [], algebra.labels
            else:
                assert checks == both_halves, algebra.labels
        assert radicals == killing_route
        assert radicals[len(solvable):] == dense

    def test_radical_of_abelian_algebra_skips_the_killing_form(self, monkeypatch):
        def forbidden(algebra):
            raise AssertionError("killing_form called")

        monkeypatch.setattr(liealg, "killing_form", forbidden)
        assert radical(LieAlgebra.abelian(6)).is_full()

    def test_radical_of_sl2_plus_line(self):
        algebra = LieAlgebra.from_brackets(
            4, {(0, 1): {1: F(2)}, (0, 2): {2: F(-2)}, (1, 2): {0: F(1)}}
        )
        assert radical(algebra) == Subspace.from_vectors(matrix([[0, 0, 0, 1]]), 4)
        assert not is_semisimple(algebra)
        assert not is_solvable(algebra)


class TestSemidirect:
    def test_line_acting_on_line_recovers_sol3(self, aff):
        alpha = (matrix([[-1]]), matrix([[0]]))
        algebra = semidirect_sum(1, aff, alpha)
        assert algebra.table == make_sol3().table
        assert algebra.labels == ("u", "a", "b")

    def test_zero_action_is_a_direct_sum(self):
        line = make_abelian(1)
        algebra = semidirect_sum(2, line, (matrix([[0, 0], [0, 0]]),))
        assert is_abelian(algebra)
        assert algebra.dim == 3
        assert algebra.labels[:2] == ("u1", "u2")

    def test_action_convention_is_by_columns(self):
        # alpha(x) column c holds the image of the c-th flat generator
        line = LieAlgebra.from_brackets(1, {}, labels=("a",))
        algebra = semidirect_sum(2, line, (matrix([[1, -1], [1, 1]]),))
        # [u1, a] = -alpha(a) u1 = -(u1 + u2)
        assert algebra.bracket(vector([1, 0, 0]), vector([0, 0, 1])) == (
            F(-1),
            F(-1),
            F(0),
        )

    def test_default_flat_labels_are_primed_past_the_acting_labels(self):
        line = LieAlgebra.from_brackets(1, {}, labels=("u",))
        assert semidirect_sum(1, line, (matrix([[0]]),)).labels == ("u'", "u")
        plane = LieAlgebra.from_brackets(2, {}, labels=("u2", "u2'"))
        zero = matrix([[0, 0], [0, 0]])
        algebra = semidirect_sum(2, plane, (zero, zero))
        assert algebra.labels == ("u1", "u2''", "u2", "u2'")
        named = semidirect_sum(1, make_aff(), (matrix([[-1]]), matrix([[0]])), u_labels=("w",))
        assert named.labels == ("w", "a", "b")

    @pytest.mark.parametrize("q", [2.0, True, False, 0, -1, "2", F(2)])
    def test_rejects_q_that_is_not_an_int_at_least_one(self, aff, q):
        # as LieAlgebra does for its dimension: a bool or a float is no int
        message = f"the abelian factor dimension must be an integer >= 1, got {q!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            semidirect_sum(q, aff, (matrix([[-1]]), matrix([[0]])))

    def test_rejects_non_homomorphism(self):
        plane = make_abelian(2)
        alpha = (matrix([[0, 1], [0, 0]]), matrix([[0, 0], [1, 0]]))
        with pytest.raises(ValueError, match="homomorphism"):
            semidirect_sum(2, plane, alpha)

    def test_unimodularity_by_construction(self, aff):
        # compensating weight -tr(ad_a)/q on the flat part makes the sum unimodular
        rng = random.Random(9)
        for q in (1, 2, 3):
            weight = F(-1, q)
            scale = F(rng.randint(1, 4))
            alpha_a = [[weight * scale if r == c else F(0) for c in range(q)] for r in range(q)]
            algebra = semidirect_sum(
                q,
                LieAlgebra.from_brackets(2, {(0, 1): {1: scale}}, labels=("a", "b")),
                (matrix(alpha_a), matrix([[0] * q] * q)),
            )
            assert is_unimodular(algebra)

    def test_matches_the_bracket_map_built_entry_by_entry(self):
        for h, mats, q in seeded_representations(seed=17, count=8):
            brackets = {
                (c, q + j): {r: -mats[j][r][c] for r in range(q)}
                for c in range(q)
                for j in range(h.dim)
            }
            brackets.update({(q + i, q + j): {q + k: x for k, x in t} for i, j, t in h.table})
            expected = LieAlgebra.from_brackets(q + h.dim, brackets).table
            assert semidirect_sum(q, h, mats).table == expected
            as_strings = tuple(tuple(tuple(map(str, row)) for row in m) for m in mats)
            assert semidirect_sum(q, h, as_strings).table == expected


class TestHomomorphismDefect:
    def test_matches_the_dense_oracle_on_homomorphisms_and_perturbations(self):
        rng = random.Random(13)
        perturbed_failures = 0
        for h, mats, q in seeded_representations(seed=13, count=16):
            assert homomorphism_defect(h, mats, q) is None
            assert reference.homomorphism_defect(DenseBrackets(h).c, mats) is None
            for _ in range(3):
                i, r, c = rng.randrange(h.dim), rng.randrange(q), rng.randrange(q)
                bumped = [list(map(list, m)) for m in mats]
                bumped[i][r][c] += F(rng.choice([-2, -1, 1, 3]), rng.randint(1, 3))
                copy = tuple(tuple(map(tuple, m)) for m in bumped)
                expected = reference.homomorphism_defect(DenseBrackets(h).c, copy)
                assert homomorphism_defect(h, copy, q) == expected
                perturbed_failures += expected is not None
        assert perturbed_failures > 0

    def test_checks_the_matrix_count_and_shape(self, aff):
        with pytest.raises(ValueError, match="need one action matrix per basis vector"):
            homomorphism_defect(aff, (ZERO2,), 2)
        wide = matrix([[0, 0, 0], [0, 0, 0]])
        with pytest.raises(ValueError, match=r"^action matrix 0 is not 2x2$"):
            homomorphism_defect(aff, (wide, wide), 2)

    def test_triple_and_semidirect_sum_multiply_no_dense_matrices(self, rot4_structure):
        assert not hasattr(linalg, "mat_mul")
        aff = make_aff()
        triple = LCPTriple(aff, InnerProduct.identity(2), 2, (ROTATION, ZERO2))
        # the lee form is -1/2 on a: alpha(a) = ROTATION - I/2, alpha(b) = 0
        half = F(1, 2)
        alpha_a = tuple(
            tuple(x - half * (r == c) for c, x in enumerate(row)) for r, row in enumerate(ROTATION)
        )
        assert semidirect_sum(2, aff, (alpha_a, ZERO2)) == rot4_structure.algebra
        assert triple.beta == (ROTATION, ZERO2)


class TestCovector:
    def test_entries_are_exact(self):
        theta = Covector((1, F(1, 2)))
        assert theta.coefficients == (F(1), F(1, 2))
        assert all(type(x) is F for x in theta.coefficients)
        exact = (F(1), F(0))
        assert Covector(exact).coefficients is exact
        for entries in ((0.5, 0), (F(0), 0.0), (True, F(0))):
            with pytest.raises(TypeError):
                Covector(entries)
