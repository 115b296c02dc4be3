"""Structure constants, Jacobi checking, series, forms, semidirect sums."""
from __future__ import annotations

import random
import time
from fractions import Fraction

import pytest

from lcplie import liealg
from lcplie.liealg import (
    Covector,
    LieAlgebra,
    bracket_span,
    center,
    check_jacobi,
    derived_algebra,
    derived_series,
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
from lcplie.linalg import Subspace, matrix, symmetric_signature, vector

from conftest import make_abelian, make_aff, make_heis3, make_sl2, make_sol3

F = Fraction


def jacobiator(algebra, x, y, z):
    return tuple(
        a + b + c
        for a, b, c in zip(
            algebra.bracket(algebra.bracket(x, y), z),
            algebra.bracket(algebra.bracket(y, z), x),
            algebra.bracket(algebra.bracket(z, x), y),
        )
    )


class TestJacobi:
    def test_corpus_tables_are_lie_algebras(self):
        for make in (make_sol3, make_heis3, make_aff, make_sl2, make_abelian):
            algebra = make()
            n = algebra.dim
            for i in range(n):
                for j in range(n):
                    for k in range(n):
                        defect = jacobiator(
                            algebra,
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


def dense_jacobi_defects(dim, table):
    """Every triple i < j < k swept over full structure constants c[a][b][m]."""
    c = [[[F(0)] * dim for _ in range(dim)] for _ in range(dim)]
    pos = 0
    for a in range(dim):
        for b in range(a + 1, dim):
            for m in range(dim):
                c[a][b][m] = table[pos][m]
                c[b][a][m] = -table[pos][m]
            pos += 1
    out = []
    for i in range(dim):
        for j in range(i + 1, dim):
            for k in range(j + 1, dim):
                defect = tuple(
                    sum(
                        (
                            c[i][j][m] * c[m][k][t]
                            + c[j][k][m] * c[m][i][t]
                            + c[k][i][m] * c[m][j][t]
                            for m in range(dim)
                        ),
                        F(0),
                    )
                    for t in range(dim)
                )
                if any(defect):
                    out.append(((i, j, k), defect))
    return out


def random_table(rng, dim):
    """Bracket table with a random share of nonzero pairs; mostly not a Lie algebra."""
    density = rng.choice((0.2, 0.4, 0.7))
    table = []
    for _ in range(dim * (dim - 1) // 2):
        if rng.random() < density:
            table.append(
                tuple(
                    F(rng.randint(-2, 2), rng.randint(1, 2)) if rng.random() < 0.4 else F(0)
                    for _ in range(dim)
                )
            )
        else:
            table.append((F(0),) * dim)
    return table


class TestSparseJacobi:
    def test_matches_dense_sweep_on_seeded_random_tables(self):
        rng = random.Random(1976)
        violated = 0
        for _ in range(60):
            dim = rng.randint(3, 7)
            table = random_table(rng, dim)
            expected = dense_jacobi_defects(dim, table)
            assert list(liealg._jacobi_defects(dim, table)) == expected
            violated += bool(expected)
        assert violated > 30

    def test_valid_tables_have_no_defects(self):
        for make in (make_sol3, make_heis3, make_aff, make_sl2, make_abelian):
            algebra = make()
            assert dense_jacobi_defects(algebra.dim, algebra.table) == []
            assert list(liealg._jacobi_defects(algebra.dim, algebra.table)) == []

    def test_wide_abelian_algebra_builds_fast(self):
        start = time.perf_counter()
        algebra = LieAlgebra.abelian(60)
        assert time.perf_counter() - start < 1.0
        assert is_abelian(algebra)


class TestBrackets:
    def test_bracket_normalization_is_antisymmetric(self):
        flipped = LieAlgebra.from_brackets(3, {(1, 0): {0: F(-1)}, (1, 2): {2: F(1)}})
        assert flipped.table == make_sol3().table

    def test_rejects_diagonal_pairs_and_duplicates(self):
        with pytest.raises(ValueError):
            LieAlgebra.from_brackets(2, {(1, 1): {0: F(1)}})
        with pytest.raises(ValueError):
            LieAlgebra.from_brackets(2, {(0, 1): {1: F(1)}, (1, 0): {1: F(1)}})

    def test_bracket_is_bilinear(self, sol3):
        a_plus = sol3.bracket(vector([0, 1, 0]), vector([1, 0, 1]))
        # [a, u + b] = -u + b
        assert a_plus == (F(-1), F(0), F(1))

    def test_ad_matrix_columns(self, sol3):
        assert sol3.ad(vector([0, 1, 0])) == matrix([[-1, 0, 0], [0, 0, 0], [0, 0, 1]])

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

    def test_bracket_span_of_subspaces(self, sol3):
        span_a = Subspace.from_vectors(matrix([[0, 1, 0]]), 3)
        full = Subspace.full(3)
        assert bracket_span(sol3, span_a, full) == Subspace.from_vectors(
            matrix([[1, 0, 0], [0, 0, 1]]), 3
        )


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
