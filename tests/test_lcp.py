"""Flat factors, structure validation, the triple correspondence, exponential checks."""
from __future__ import annotations

import json
import random
import re
import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations, product

import pytest

from lcplie import cli, connections, documents, lattice, lcp, liealg, linalg
from lcplie.connections import Connection, InnerProduct, curvature, weyl_connection
from lcplie.lcp import (
    CLASS_CONFORMALLY_FLAT,
    CLASS_LCP,
    CLASS_NONE,
    ConformalAnalysis,
    LCPStructure,
    LCPTriple,
    LCPValidationError,
    build_from_triple,
    characteristic_constraint_space,
    check_candidate,
    conformal_exponential_residual,
    flat_factor_action,
    is_conformal_action,
    is_flat_subspace,
    is_parallel,
    lcp_violations,
    maximal_flat_factor,
    triple_from_lcp,
    validate_lcp,
    verify_conformal_exponential,
)
from lcplie.cli import main
from lcplie.documents import (
    document_algebra,
    document_triple,
    parse_algebra_document,
    parse_lattice_document,
)
from lcplie.lattice import IntegerEndomorphism, SplitDecomposition, check_splitting
from lcplie.liealg import (
    Covector,
    LieAlgebra,
    center,
    derived_algebra,
    lower_central_series,
    radical,
    semidirect_sum,
)
from lcplie.linalg import (
    ZERO,
    Subspace,
    as_fraction,
    det,
    dot,
    identity_matrix,
    inverse,
    kernel,
    mat_vec,
    matrix,
    rref,
    symmetric_signature,
    transpose,
    vector,
)

import reference
from cases import (
    RADICAL_BINDING,
    RECORD,
    commands,
    coordinate_subspaces,
    corpus_structures,
    extraction_cases,
    invoke,
    pipeline_cases,
    radical_binding_structures,
    rebased_on,
    random_connection,
    random_llt_metric,
    random_rotation_triple,
    random_triple_structure,
    scaling_family,
    scaling_triple,
    small_rational,
    small_triple_structures,
)
from conftest import (
    CORPUS_DIR,
    ROTATION,
    ZERO2,
    make_abelian,
    make_aff,
    make_rot4_structure,
    make_rot5_structure,
    make_sol3,
    make_sol3_structure,
    sol3_theta,
)
from reference import DenseBrackets, mat_mul, rank

F = Fraction


def make_heis_plus_line() -> LieAlgebra:
    return LieAlgebra.from_brackets(4, {(0, 1): {2: F(1)}})


def make_aff_plus_line() -> LieAlgebra:
    return LieAlgebra.from_brackets(3, {(0, 1): {1: F(1)}}, labels=("a", "b", "c"))


def sol3_weyl(sol3):
    return weyl_connection(sol3, InnerProduct.identity(3), sol3_theta())


class TestIntegerInvariantPart:
    def test_matches_the_fraction_restriction_on_rational_bases(self):
        rng = random.Random(8080)
        fractional = proper = 0
        for algebra, metric, theta in pipeline_cases():
            n = algebra.dim
            weyl = weyl_connection(algebra, metric, theta)
            for conn in (weyl, random_connection(rng, n)):
                starts = []
                for _ in range(3):
                    rows = rng.randint(1, n)
                    vectors = [[small_rational(rng) for _ in range(n)] for _ in range(rows)]
                    starts.append(Subspace.from_vectors(vectors, n))
                # rational multiples mixed into the kernel rows keep invariant directions
                kernel_rows = curvature(algebra, weyl).kernel.basis
                starts.append(Subspace.from_vectors(
                    [[x * F(rng.randint(1, 3), rng.randint(2, 5)) for x in row] for row in kernel_rows], n
                ))
                for s in starts:
                    fractional += any(x.denominator > 1 for row in s.basis for x in row)
                    got = lcp._invariant_part(s, conn.rows)
                    assert got == reference.invariant_part(s, conn.nabla)
                    proper += 0 < got.dim < s.dim
        assert fractional > 50 and proper > 0


class TestParallelAndFlat:
    def test_whole_space_is_parallel(self, sol3):
        conn = sol3_weyl(sol3)
        assert is_parallel(sol3, conn, Subspace.full(3))

    def test_u_line_is_parallel_for_the_conformal_connection(self, sol3):
        conn = sol3_weyl(sol3)
        assert is_parallel(sol3, conn, Subspace.from_vectors([vector([1, 0, 0])], 3))

    def test_u_line_is_not_parallel_for_the_metric_connection(self, sol3):
        from lcplie.connections import levi_civita

        conn = levi_civita(sol3, InnerProduct.identity(3))
        assert not is_parallel(sol3, conn, Subspace.from_vectors([vector([1, 0, 0])], 3))

    def test_zero_subspace_is_flat(self, sol3):
        conn = sol3_weyl(sol3)
        r = curvature(sol3, conn)
        assert is_flat_subspace(sol3, conn, r, Subspace.zero(3))

    def test_u_line_is_flat(self, sol3):
        conn = sol3_weyl(sol3)
        r = curvature(sol3, conn)
        assert is_flat_subspace(sol3, conn, r, Subspace.from_vectors([vector([1, 0, 0])], 3))

    def test_u_b_plane_is_not_flat(self, sol3):
        conn = sol3_weyl(sol3)
        r = curvature(sol3, conn)
        plane = Subspace.from_vectors(matrix([[1, 0, 0], [0, 0, 1]]), 3)
        assert not is_flat_subspace(sol3, conn, r, plane)

    def test_is_parallel_rejects_mismatched_dimensions(self, sol3):
        conn = sol3_weyl(sol3)
        mismatched = (
            (sol3, conn, Subspace.from_vectors([vector([1, 0])], 2)),
            (sol3, conn, Subspace.from_vectors([vector([0, 1])], 2)),
            (make_abelian(2), conn, Subspace.zero(3)),
        )
        for algebra, connection, s in mismatched:
            with pytest.raises(ValueError, match="dimensions must agree"):
                is_parallel(algebra, connection, s)

    def test_is_flat_subspace_rejects_mismatched_dimensions(self, sol3):
        conn = sol3_weyl(sol3)
        r = curvature(sol3, conn)
        plane = make_abelian(2)
        plane_conn = connections.levi_civita(plane, InnerProduct.identity(2))
        u = Subspace.from_vectors([vector([1, 0, 0])], 3)
        mismatched = (
            (sol3, conn, curvature(plane, plane_conn), u),
            (sol3, conn, r, Subspace.full(2)),
            (sol3, plane_conn, r, u),
            (plane, conn, r, u),
        )
        for args in mismatched:
            with pytest.raises(ValueError, match="dimensions must agree"):
                is_flat_subspace(*args)

    def test_is_parallel_matches_the_dense_verdict(self):
        rng = random.Random(515)
        verdicts = set()
        for algebra, metric, theta in pipeline_cases():
            n = algebra.dim
            # upper triangular matrices keep every leading coordinate block, their
            # transposes do not
            triangular = Connection.from_matrices(n, tuple(
                tuple(tuple(F(rng.randint(-2, 2)) if c >= r else F(0) for c in range(n)) for r in range(n))
                for _ in range(n)
            ))
            for conn in (weyl_connection(algebra, metric, theta), triangular):
                # leading coordinate blocks hold the flat factor of every triple structure
                spans = [Subspace.from_vectors(identity_matrix(n)[:d], n) for d in range(n + 1)]
                for _ in range(3):
                    start = [F(rng.choice((-1, 0, 0, 1))) for _ in range(n)]
                    spans.append(Subspace.from_vectors([start], n))
                    spans.append(reference.invariant_closure(conn.nabla, start))
                for s in spans:
                    dense = all(s.contains(mat_vec(m, row)) for m in conn.nabla for row in s.basis)
                    assert is_parallel(algebra, conn, s) == dense
                    if 0 < s.dim < n:
                        verdicts.add(dense)
        assert verdicts == {True, False}

    def test_is_parallel_matches_the_invariant_part(self):
        rng = random.Random(4242)
        verdicts = set()
        for structure in corpus_structures():
            algebra, conn, n = structure.algebra, structure.connection(), structure.algebra.dim
            spans = coordinate_subspaces(n) + [structure.flat_factor, structure.orthocomplement()]
            for _ in range(6):
                rows = [[small_rational(rng) for _ in range(n)] for _ in range(rng.randint(1, n))]
                spans.append(Subspace.from_vectors(rows, n))
            for s in spans:
                expected = lcp._invariant_part(s, conn.rows).dim == s.dim
                assert is_parallel(algebra, conn, s) == expected
                if 0 < s.dim < n:
                    verdicts.add(expected)
        assert verdicts == {True, False}

    def test_is_parallel_runs_no_null_space(self, sol3, monkeypatch):
        conn = sol3_weyl(sol3)
        lines = [Subspace.from_vectors([vector(v)], 3) for v in ([0, 1, 0], [0, 0, 1])]
        calls = []
        original = linalg._null_space
        monkeypatch.setattr(linalg, "_null_space", lambda *args: calls.append(args) or original(*args))
        assert [is_parallel(sol3, conn, line) for line in lines] == [False, False]
        assert calls == []


class TestMaximalFlatFactor:
    def test_self_check_makes_no_bracket_calls(
        self, monkeypatch, rot4_structure, rot5_structure
    ):
        calls = []
        bracket = LieAlgebra.bracket

        def counted(self, x, y):
            calls.append(1)
            return bracket(self, x, y)

        monkeypatch.setattr(LieAlgebra, "bracket", counted)
        for s in (rot4_structure, rot5_structure):
            result = maximal_flat_factor(s.algebra, s.metric, s.lee_form)
            # a proper flat factor of dimension 2: the abelian-ideal self-check runs
            assert result.classification == CLASS_LCP and result.subspace.dim == 2
        assert calls == []

    def test_sol3(self, sol3):
        result = maximal_flat_factor(sol3, InnerProduct.identity(3), sol3_theta())
        assert result.subspace == Subspace.from_vectors([vector([1, 0, 0])], 3)
        assert result.classification == CLASS_LCP
        assert result.adapted

    def test_sol3_exhaustive_coordinate_lattice(self, sol3):
        conn = sol3_weyl(sol3)
        r = curvature(sol3, conn)
        best = maximal_flat_factor(sol3, InnerProduct.identity(3), sol3_theta()).subspace
        for s in coordinate_subspaces(3):
            if not s.is_full() and is_flat_subspace(sol3, conn, r, s):
                assert best.contains_subspace(s)
        assert is_flat_subspace(sol3, conn, r, best)

    def test_flat_plane_is_conformally_flat(self):
        plane = make_abelian(2)
        theta = Covector((F(1), F(0)))
        result = maximal_flat_factor(plane, InnerProduct.identity(2), theta)
        assert result.subspace.is_full()
        assert result.classification == CLASS_CONFORMALLY_FLAT

    def test_flat_three_space_has_no_factor(self):
        space = make_abelian(3)
        theta = Covector((F(1), F(0), F(0)))
        result = maximal_flat_factor(space, InnerProduct.identity(3), theta)
        assert result.subspace.is_zero()
        assert result.classification == CLASS_NONE

    def test_heis_plus_line_has_no_factor(self):
        algebra = make_heis_plus_line()
        theta = Covector((F(1), F(0), F(0), F(0)))
        result = maximal_flat_factor(algebra, InnerProduct.identity(4), theta)
        assert result.subspace.is_zero()
        assert result.classification == CLASS_NONE

    def test_rejects_zero_and_non_closed_covectors(self, sol3):
        with pytest.raises(ValueError):
            maximal_flat_factor(sol3, InnerProduct.identity(3), Covector((F(0),) * 3))
        with pytest.raises(ValueError):
            maximal_flat_factor(sol3, InnerProduct.identity(3), Covector((F(1), F(0), F(0))))

    def test_rejects_non_unimodular_algebra(self, aff):
        with pytest.raises(ValueError, match="unimodular"):
            maximal_flat_factor(aff, InnerProduct.identity(2), Covector((F(1), F(0))))

    def test_contains_every_flat_subspace_randomized(
        self, sol3_structure, rot4_structure, rot5_structure
    ):
        rng = random.Random(424242)
        for s in (sol3_structure, rot4_structure, rot5_structure):
            algebra = s.algebra
            conn = weyl_connection(algebra, s.metric, s.lee_form)
            r = curvature(algebra, conn)
            best = maximal_flat_factor(algebra, s.metric, s.lee_form).subspace
            for _ in range(60):
                nrows = rng.randint(1, algebra.dim - 1)
                rows = [
                    tuple(F(rng.randint(-2, 2)) for _ in range(algebra.dim))
                    for _ in range(nrows)
                ]
                cand = Subspace.from_vectors(rows, algebra.dim)
                if cand.is_full():
                    continue
                if is_flat_subspace(algebra, conn, r, cand):
                    assert best.contains_subspace(cand)


class TestJointKernel:
    def test_one_analysis_runs_the_joint_kernel_elimination_once(
        self, monkeypatch, rot4_structure
    ):
        s = rot4_structure
        analysis = ConformalAnalysis(s.algebra, s.metric, s.lee_form)
        curvature_rows = [row for op in analysis.curvature.operators for row in op if any(row)]
        assert curvature_rows
        joint_rows = linalg.rref(curvature_rows)[0]
        original = linalg._null_space
        eliminations = []

        def spy(rows, ncols):
            # the joint kernel elimination, recognised by the row space of its rows
            if rows and linalg.rref(rows)[0] == joint_rows:
                eliminations.append(None)
            return original(rows, ncols)

        monkeypatch.setattr(linalg, "_null_space", spy)
        # the verdicts read the curvature restricted to the factor, not its joint kernel
        assert analysis.violations(s.flat_factor) == ()
        assert eliminations == []
        assert analysis.flat_factor.subspace == s.flat_factor
        assert len(eliminations) == 1
        assert analysis.flat_factor.subspace == s.flat_factor  # cached: no second one
        assert len(eliminations) == 1

    def test_restricted_verdict_matches_the_dense_joint_kernel(self):
        """On a parallel proper subspace, `violations` reads the curvature restricted
        to it; the verdict must be containment in the dense joint kernel."""
        message = "conformal curvature does not annihilate the flat factor"
        sol3_plane = Subspace.from_vectors([vector([0, 1, 0]), vector([0, 0, 1])], 3)
        rng = random.Random(3737)
        verdicts, scaled = Counter(), 0
        # so(3) turns the flat factor of the last RADICAL_BINDING structure: there the
        # restrictions do not commute, and a wrong scale of the A_i shows
        cases = pipeline_cases()
        cases += [(s.algebra, s.metric, s.lee_form) for s in radical_binding_structures()]
        for algebra, metric, theta in cases:
            if theta.is_zero():
                continue
            n = algebra.dim
            nabla = reference.weyl(algebra, metric, theta)
            rows = [row for op in reference.curvature(algebra, nabla) for row in op]
            joint = reference.span(reference.kernel(rows, n), n)
            analysis = ConformalAnalysis(algebra, metric, theta)
            spans = [reference.flat_factor(algebra, metric, theta), *coordinate_subspaces(n)]
            if algebra == make_sol3():
                spans.append(sol3_plane)
            # the same structure on the basis f_i = P e_i, P unipotent with fractions, where
            # the canonical rows of the subspaces need a common denominator B > 1
            p = tuple(
                tuple(F(int(r == c)) if r <= c else F(rng.randint(-2, 2), rng.randint(1, 3))
                      for c in range(n))
                for r in range(n)
            )
            p_inv, cols = reference.inverse(p), transpose(p)
            rebased = ConformalAnalysis(
                rebased_on(algebra, p),
                InnerProduct(mat_mul(transpose(p), mat_mul(metric.gram, p))),
                Covector(tuple(dot(theta.coefficients, col) for col in cols)),
            )
            for u in spans:
                if 0 < u.dim < n and is_parallel(algebra, analysis.connection, u):
                    annihilated = joint.contains_subspace(u)
                    assert (message not in analysis.violations(u)) == annihilated, (algebra, u)
                    moved = Subspace.from_vectors([mat_vec(p_inv, row) for row in u.basis], n)
                    assert (message not in rebased.violations(moved)) == annihilated, (p, u)
                    verdicts[annihilated] += 1
                    scaled += moved._lifted[0] > 1
        assert verdicts[True] >= 10 and verdicts[False] >= 10, verdicts
        assert scaled >= 10, scaled


class TestIntegerRowSubspaces:
    def test_structure_layer_builds_no_fraction_basis(self, sl2, heis3, aff):
        """The radical, the lower central series, the center and the flat factor
        are computed on integer rows: none of them builds its Fraction basis."""
        structures = (make_sol3_structure(), make_rot4_structure(), make_rot5_structure())
        algebras = [sl2, heis3, aff, *(s.algebra for s in structures)]
        for algebra in algebras:
            for s in (radical(algebra), center(algebra), *lower_central_series(algebra)):
                assert "basis" not in vars(s)
        for structure in structures:
            analysis = ConformalAnalysis(structure.algebra, structure.metric, structure.lee_form)
            assert "basis" not in vars(analysis.flat_factor.subspace)


class TestValidation:
    def test_sol3_is_valid_adapted_maximal(self, sol3_structure):
        assert sol3_structure.adapted
        assert sol3_structure.maximal is True
        assert sol3_structure.flat_factor.dim == 1

    def test_zero_factor_rejected(self, sol3):
        violations = lcp_violations(
            sol3, InnerProduct.identity(3), sol3_theta(), Subspace.zero(3)
        )
        assert "flat factor is the zero subspace" in violations

    def test_full_factor_rejected(self, sol3):
        violations = lcp_violations(
            sol3, InnerProduct.identity(3), sol3_theta(), Subspace.full(3)
        )
        assert "flat factor is the whole algebra" in violations

    def test_b_line_is_not_parallel(self, sol3):
        violations = lcp_violations(
            sol3,
            InnerProduct.identity(3),
            sol3_theta(),
            Subspace.from_vectors([vector([0, 0, 1])], 3),
        )
        assert "flat factor is not parallel for the conformal connection" in violations

    def test_a_line_breaks_two_rules(self, sol3):
        violations = lcp_violations(
            sol3,
            InnerProduct.identity(3),
            sol3_theta(),
            Subspace.from_vectors([vector([0, 1, 0])], 3),
        )
        assert "flat factor is not parallel for the conformal connection" in violations
        assert (
            "algebra is unimodular but the lee covector does not vanish on the flat factor"
            in violations
        )

    def test_zero_covector_rejected(self, sol3):
        violations = lcp_violations(
            sol3,
            InnerProduct.identity(3),
            Covector((F(0),) * 3),
            Subspace.from_vectors([vector([1, 0, 0])], 3),
        )
        assert "lee covector is zero" in violations

    def test_validate_raises_with_all_violations(self, sol3):
        with pytest.raises(LCPValidationError) as info:
            validate_lcp(sol3, InnerProduct.identity(3), sol3_theta(), Subspace.zero(3))
        assert info.value.violations

    def test_constructor_reruns_validation(self, sol3):
        with pytest.raises(LCPValidationError):
            LCPStructure(
                algebra=sol3,
                metric=InnerProduct.identity(3),
                lee_form=sol3_theta(),
                flat_factor=Subspace.from_vectors([vector([0, 0, 1])], 3),
                adapted=True,
                maximal=None,
            )

    def test_non_maximal_line_inside_flat_plane(self, aff):
        triple = LCPTriple(aff, InnerProduct.identity(2), 2, (ZERO2, ZERO2))
        built = build_from_triple(triple)
        line = Subspace.from_vectors([vector([1, 0, 0, 0])], 4)
        s = validate_lcp(built.algebra, built.metric, built.lee_form, line)
        assert s.adapted
        assert s.maximal is False

    def test_constructor_checks_the_maximal_flag(self, aff):
        triple = LCPTriple(aff, InnerProduct.identity(2), 2, (ZERO2, ZERO2))
        built = build_from_triple(triple)
        line = Subspace.from_vectors([vector([1, 0, 0, 0])], 4)
        args = (built.algebra, built.metric, built.lee_form, line, True)
        with pytest.raises(ValueError, match="maximal flag does not match the structure"):
            LCPStructure(*args, maximal=True)
        assert LCPStructure(*args, maximal=None).maximal is False
        assert LCPStructure(*args, maximal=False).maximal is False
        assert built.maximal is True

    def test_maximal_is_decided_on_first_read(self, aff):
        triple = LCPTriple(aff, InnerProduct.identity(2), 2, (ZERO2, ZERO2))
        built = build_from_triple(triple)
        line = Subspace.from_vectors([vector([1, 0, 0, 0])], 4)
        for u, maximal in ((built.flat_factor, True), (line, False)):
            args = (built.algebra, built.metric, built.lee_form, u, True)
            decided = LCPStructure(*args, None)
            assert "flat_factor" not in vars(decided.analysis)
            given = LCPStructure(*args, maximal)
            assert "flat_factor" in vars(given.analysis)
            # equality, hash and repr read the decided flag
            assert decided == given and hash(decided) == hash(given)
            assert repr(decided) == repr(given) and f"maximal={maximal}" in repr(decided)
            assert decided.maximal is maximal
            assert decided.analysis.flat_factor.subspace == built.flat_factor

    def test_structure_keeps_its_analysis(self, sol3_structure):
        s = sol3_structure
        assert s.connection() is s.analysis.connection
        assert s.analysis.flat_factor == maximal_flat_factor(s.algebra, s.metric, s.lee_form)
        assert s.analysis.curvature == curvature(s.algebra, s.analysis.connection)

    def test_non_unimodular_structures_have_unknown_maximality(self):
        algebra = make_aff_plus_line()
        theta = Covector((F(1), F(0), F(0)))
        u = Subspace.from_vectors([vector([0, 1, 0])], 3)
        s = validate_lcp(algebra, InnerProduct.identity(3), theta, u)
        assert s.adapted
        assert s.maximal is None

    def test_non_adapted_structure_on_non_unimodular_algebra(self):
        algebra = make_aff_plus_line()
        theta = Covector((F(1), F(0), F(0)))
        u = Subspace.from_vectors(matrix([[1, 0, 0], [0, 0, 1]]), 3)
        s = validate_lcp(algebra, InnerProduct.identity(3), theta, u)
        assert not s.adapted


class TestTriples:
    def test_rejects_non_skew_action(self, aff):
        with pytest.raises(ValueError, match="skew"):
            LCPTriple(aff, InnerProduct.identity(2), 2, (matrix([[0, 1], [0, 0]]), ZERO2))

    def test_rejects_a_nonzero_diagonal_entry(self, aff):
        # the entries are the shared ZERO but for one diagonal entry of matrix 1
        diagonal = ((ZERO, ZERO), (ZERO, Fraction(1)))
        with pytest.raises(ValueError, match=r"^action matrix 1 is not skew-symmetric$"):
            LCPTriple(aff, InnerProduct.identity(2), 2, (ZERO2, diagonal))
        # a pair of which one entry is the shared ZERO is still compared
        lopsided = ((ZERO, Fraction(1)), (ZERO, ZERO))
        with pytest.raises(ValueError, match=r"^action matrix 0 is not skew-symmetric$"):
            LCPTriple(aff, InnerProduct.identity(2), 2, (lopsided, diagonal))

    def test_a_shape_error_comes_before_a_skew_error(self, aff):
        lopsided = ((ZERO, F(1)), (ZERO, ZERO))
        wide = matrix([[0, 0, 0], [0, 0, 0]])
        with pytest.raises(ValueError, match=r"^action matrix 1 is not 2x2$"):
            LCPTriple(aff, InnerProduct.identity(2), 2, (lopsided, wide))

    def test_each_action_row_is_read_once(self, monkeypatch):
        """Entries, shapes, skewness and the homomorphism check come from one
        read: each row of beta reaches `_exact` once, in `lcp` and `liealg` together."""
        exact = linalg._exact
        reads = Counter()

        def counting(row, *kinds):
            reads[id(row)] += 1
            return exact(row, *kinds)

        for module in (lcp, liealg):
            monkeypatch.setattr(module, "_exact", counting)
        rng = random.Random(2025)
        for _ in range(6):
            t = random_rotation_triple(rng)
            # fresh row objects of Fractions, which `_exact` passes on as they are
            beta = tuple(tuple(tuple(list(row)) for row in m) for m in t.beta)
            reads.clear()
            LCPTriple(t.h_algebra, t.h_metric, t.q, beta)
            assert [reads[id(row)] for m in beta for row in m] == [1] * t.q * len(beta)

    def test_skew_check_matches_the_dense_transpose_on_seeded_actions(self):
        """h = aff(R) + R^k acts by a random skew M_a, M_b = 0 and multiples of
        M_a on the central generators, with int and Fraction entries; then one
        matrix may get an off-diagonal bump, a diagonal entry or a skew bump.
        The first M with M^T != -M on dense Fractions is the one named; a skew
        action is accepted, as the exact input, iff it is a homomorphism."""
        rng = random.Random(3141)

        def entry():
            num = rng.randint(-3, 3)
            return num if rng.random() < 0.5 else F(num, rng.randint(1, 3))

        seen = Counter()
        for _ in range(120):
            k, q = rng.randint(0, 2), rng.randint(1, 4)
            h = LieAlgebra.from_brackets(2 + k, {(0, 1): {1: F(1)}})
            skew = [[0] * q for _ in range(q)]
            for r, c in combinations(range(q), 2):
                skew[r][c] = entry()
                skew[c][r] = -skew[r][c]
            beta = [skew, [[0] * q for _ in range(q)]]
            beta += [[[t * x for x in row] for row in skew] for t in (entry() for _ in range(k))]
            i, r, c = rng.randrange(len(beta)), rng.randrange(q), rng.randrange(q)
            bump = F(rng.choice((-2, -1, 1, 2)), rng.randint(1, 2))
            kind = rng.choice(("none", "entry", "diagonal", "skew pair"))
            if kind == "entry" and r != c:
                beta[i][r][c] += bump
            elif kind == "diagonal":
                beta[i][r][r] += bump
            elif kind == "skew pair" and r != c:
                beta[i][r][c] += bump
                beta[i][c][r] -= bump
            beta = tuple(tuple(map(tuple, m)) for m in beta)
            seen["int and Fraction"] += {type(x) for m in beta for row in m for x in row if x} == {int, F}
            dense = [[[F(x) for x in row] for row in m] for m in beta]
            non_skew = next(
                (idx for idx, m in enumerate(dense)
                 if reference.transpose(m) != tuple(tuple(-x for x in row) for row in m)),
                None,
            )
            metric = InnerProduct.identity(h.dim)
            if non_skew is not None:
                with pytest.raises(ValueError, match=f"^action matrix {non_skew} is not skew-symmetric$"):
                    LCPTriple(h, metric, q, beta)
                seen["diagonal" if any(dense[non_skew][t][t] for t in range(q)) else "entry"] += 1
                continue
            defect = reference.homomorphism_defect(DenseBrackets(h).c, dense)
            if defect is not None:
                with pytest.raises(ValueError, match=re.escape(f"homomorphism on basis pair {defect}")):
                    LCPTriple(h, metric, q, beta)
                seen["not a homomorphism"] += 1
                continue
            triple = LCPTriple(h, metric, q, beta)
            assert triple.beta == beta
            assert all(type(x) is F for m in triple.beta for row in m for x in row)
            seen["accepted"] += 1
        assert min(seen[key] for key in ("entry", "diagonal", "not a homomorphism", "accepted")) >= 5
        assert seen["int and Fraction"] >= 20

    def test_rejects_unimodular_base(self):
        with pytest.raises(ValueError, match="unimodular"):
            LCPTriple(make_abelian(2), InnerProduct.identity(2), 1, (matrix([[0]]),) * 2)

    def test_rejects_wrong_matrix_count_or_size(self, aff):
        message = "^need one action matrix per basis vector of the acting algebra$"
        with pytest.raises(ValueError, match=message):
            LCPTriple(aff, InnerProduct.identity(2), 2, (ZERO2,))
        with pytest.raises(ValueError):
            LCPTriple(aff, InnerProduct.identity(2), 1, (ZERO2, ZERO2))

    @pytest.mark.parametrize("q", [2.0, True, False, 0, -1, "2", Fraction(2)])
    def test_rejects_q_that_is_not_an_int_at_least_one(self, aff, q):
        # as Subspace and LieAlgebra do for a dimension: a bool or a float is no int
        message = f"the abelian factor dimension must be an integer >= 1, got {q!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            LCPTriple(aff, InnerProduct.identity(2), q, (ZERO2, ZERO2))

    @pytest.mark.parametrize(
        "beta",
        [
            (((0.0, -1.0), (1.0, 0.0)), ZERO2),
            (ROTATION, ((False, False), (False, False))),
        ],
    )
    def test_rejects_float_and_bool_action_entries(self, aff, beta):
        with pytest.raises(TypeError):
            LCPTriple(aff, InnerProduct.identity(2), 2, beta)

    def test_action_entries_become_fractions(self, aff):
        triple = LCPTriple(aff, InnerProduct.identity(2), 2, (((0, -1), (1, 0)), ((0, 0), (0, 0))))
        assert triple.beta == (ROTATION, ZERO2)
        assert all(type(x) is F for b in triple.beta for row in b for x in row)

    def test_rejects_non_homomorphism(self):
        # beta must respect the bracket; two independent rotations on R^4 do not
        h = LieAlgebra.from_brackets(2, {(0, 1): {1: F(1)}}, labels=("a", "b"))
        j_top = matrix([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
        j_bottom = matrix([[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]])
        with pytest.raises(ValueError, match="homomorphism"):
            LCPTriple(h, InnerProduct.identity(2), 4, (j_top, j_bottom))

    def test_build_sol3(self, aff):
        triple = LCPTriple(aff, InnerProduct.identity(2), 1, (matrix([[0]]), matrix([[0]])))
        s = build_from_triple(triple)
        assert s.algebra.table == make_sol3().table
        assert s.algebra.labels == ("u", "a", "b")
        assert s.lee_form.coefficients == (F(0), F(-1), F(0))
        assert s.flat_factor == Subspace.from_vectors([vector([1, 0, 0])], 3)
        assert s.adapted and s.maximal is True

    def test_build_rot4(self, rot4_structure):
        s = rot4_structure
        assert s.algebra.dim == 4
        assert s.algebra.labels == ("u1", "u2", "a", "b")
        assert s.lee_form.coefficients == (F(0), F(0), F(-1, 2), F(0))
        assert s.adapted and s.maximal is True
        # the flat plane turns under a while shrinking at rate 1/2
        assert s.algebra.bracket(vector([0, 0, 1, 0]), vector([1, 0, 0, 0])) == (
            F(-1, 2),
            F(1),
            F(0),
            F(0),
        )

    def test_round_trip_from_sol3(self, sol3_structure):
        triple = triple_from_lcp(sol3_structure)
        assert triple.q == 1
        assert triple.h_algebra.labels == ("a", "b")
        assert triple.h_algebra.table == make_aff().table
        assert triple.beta == (matrix([[0]]), matrix([[0]]))
        rebuilt = build_from_triple(triple)
        assert rebuilt.algebra.table == sol3_structure.algebra.table
        assert rebuilt.lee_form == sol3_structure.lee_form
        assert rebuilt.flat_factor == sol3_structure.flat_factor
        assert rebuilt.metric.gram == sol3_structure.metric.gram

    def test_round_trip_from_builds(self, rot4_structure, rot5_structure):
        for s, betas in (
            (rot4_structure, (ROTATION, ZERO2)),
            (rot5_structure, None),
        ):
            triple = triple_from_lcp(s)
            if betas is not None:
                assert triple.beta == betas
            rebuilt = build_from_triple(triple)
            assert rebuilt.algebra.table == s.algebra.table
            assert rebuilt.metric.gram == s.metric.gram
            assert rebuilt.lee_form == s.lee_form
            assert rebuilt.flat_factor == s.flat_factor
            assert triple_from_lcp(rebuilt) == triple

    def test_round_trip_when_h_uses_the_default_flat_label(self):
        h = LieAlgebra.from_brackets(2, {(0, 1): {1: F(1)}}, labels=("u", "b"))
        triple = LCPTriple(h, InnerProduct.identity(2), 1, (matrix([[0]]), matrix([[0]])))
        s = build_from_triple(triple)
        assert s.algebra.labels == ("u'", "u", "b")
        assert triple_from_lcp(s) == triple

    def test_round_trip_on_seeded_random_triples(self):
        rng = random.Random(61)
        for _ in range(12):
            triple = random_rotation_triple(rng)
            s = build_from_triple(triple)
            extracted = triple_from_lcp(s)
            assert extracted == triple
            assert build_from_triple(extracted) == s

    def test_block_metric_reuses_the_inverse_of_h(self, monkeypatch):
        # build_from_triple assembles the inverse of its block diagonal metric from
        # the triple's; it must equal the one a fresh elimination of the block gives
        texts = [(CORPUS_DIR / name).read_text() for name in ("sol3_triple.json", "rot4_triple.json")]
        texts += [json.dumps(case[1]) for case in RADICAL_BINDING]
        texts += [
            json.dumps(scaling_triple(n, random.Random(seed)))
            for n in (4, 5, 6, 7, 10, 17, 26, 40) for seed in (0, 1)
        ]
        eliminations = []
        definite_inverse = connections._definite_inverse
        monkeypatch.setattr(
            connections, "_definite_inverse", lambda *a: eliminations.append(1) or definite_inverse(*a)
        )
        for text in texts:
            triple = document_triple(parse_algebra_document(text))
            eliminations.clear()
            metric = build_from_triple(triple).metric
            assert eliminations == []
            q = triple.q
            block = identity_matrix(q + triple.h_algebra.dim)[:q] + tuple(
                (ZERO,) * q + row for row in triple.h_metric.gram
            )
            fresh = InnerProduct(block)
            assert metric.gram == fresh.gram
            assert metric.lifted_inverse == fresh.lifted_inverse

    def test_extraction_requires_unimodular_ambient(self):
        algebra = make_aff_plus_line()
        theta = Covector((F(1), F(0), F(0)))
        u = Subspace.from_vectors([vector([0, 1, 0])], 3)
        s = validate_lcp(algebra, InnerProduct.identity(3), theta, u)
        with pytest.raises(ValueError, match="unimodular"):
            triple_from_lcp(s)

    def test_extraction_requires_orthonormal_factor_basis(self, sol3):
        gram = InnerProduct(matrix([[4, 0, 0], [0, 4, 0], [0, 0, 4]]))
        u = Subspace.from_vectors([vector([1, 0, 0])], 3)
        s = validate_lcp(sol3, gram, sol3_theta(), u)
        with pytest.raises(ValueError, match="orthonormal"):
            triple_from_lcp(s)


class TestConstraintSpace:
    def test_sol3_bound_is_the_b_line(self, sol3_structure):
        bound = characteristic_constraint_space(sol3_structure)
        assert bound == Subspace.from_vectors([vector([0, 0, 1])], 3)

    def test_validation_and_the_bound_never_build_the_dense_connection(
        self, sol3_structure, rot4_structure, rot5_structure
    ):
        for made in (sol3_structure, rot4_structure, rot5_structure):
            s = validate_lcp(made.algebra, made.metric, made.lee_form, made.flat_factor)
            characteristic_constraint_space(s)
            assert "connection" in vars(s.analysis)
            assert "nabla" not in vars(s.analysis.connection)

    def test_bound_satisfies_each_linear_condition(self, sol3_structure):
        s = sol3_structure
        bound = characteristic_constraint_space(s)
        complement = s.orthocomplement()
        rad = radical(s.algebra)
        commutator = derived_algebra(s.algebra)
        for row in bound.basis:
            assert complement.contains(row)
            assert s.lee_form.value(row) == 0
            assert all(c == 0 for col in flat_factor_action(s, row) for c in col)
            assert rad.contains(row)
            assert commutator.contains(row)

    def test_candidate_reports(self, sol3_structure):
        s = sol3_structure
        report = check_candidate(s, Subspace.from_vectors([vector([0, 1, 0])], 3))
        assert not report.theta_vanishes
        assert not report.action_trivial
        assert report.is_abelian
        assert report.in_radical
        assert not report.in_commutator

    def test_empty_candidate_passes_everything(self, sol3_structure):
        report = check_candidate(sol3_structure, Subspace.zero(3))
        assert report.theta_vanishes
        assert report.action_trivial
        assert report.is_abelian
        assert report.in_radical
        assert report.in_commutator

    def test_candidate_outside_the_complement_is_rejected(self, sol3_structure):
        with pytest.raises(ValueError):
            check_candidate(
                sol3_structure, Subspace.from_vectors([vector([1, 0, 0])], 3)
            )

    def test_candidate_check_computes_the_radical_once(self, sol3_structure, monkeypatch):
        calls = []

        def counting(algebra):
            calls.append(algebra)
            return radical(algebra)

        monkeypatch.setattr(lcp, "radical", counting)
        check_candidate(sol3_structure, Subspace.from_vectors([vector([0, 1, 0])], 3))
        assert len(calls) == 1

    def test_rot4_bound(self, rot4_structure):
        bound = characteristic_constraint_space(rot4_structure)
        assert bound == Subspace.from_vectors([vector([0, 0, 0, 1])], 4)

    def test_bound_matches_the_dense_action_kernel(self, sol3_structure, rot4_structure):
        rng = random.Random(2024)
        structures = [sol3_structure, rot4_structure]
        structures += [random_triple_structure(rng) for _ in range(6)]
        structures += [scaling_family(n) for n in range(4, 13)]
        structures += radical_binding_structures()
        nonzero = cut = 0
        for s in structures:
            algebra = s.algebra
            n = algebra.dim
            dense = DenseBrackets(algebra)
            action = dense.centralizer(reference.basis(s.flat_factor))
            theta_kernel = reference.span(reference.kernel((s.lee_form.coefficients,)), n)
            complement = reference.orthocomplement(s.flat_factor, s.metric.gram)
            rad, derived = dense.radical(), dense.derived
            assert s.orthocomplement() == complement
            assert s._linear_conditions == (theta_kernel, action, rad, derived)
            loose = complement.intersect(theta_kernel).intersect(action).intersect(derived)
            expected = loose.intersect(rad)
            assert characteristic_constraint_space(s) == expected
            nonzero += not expected.is_zero()
            cut += expected != loose
        assert nonzero >= 4
        # only the radical condition cuts so(3) or sl(2) out of the two RADICAL_BINDING
        # bounds on the zero action; on R^3 the centralizer already excludes so(3)
        assert cut == 2

    def test_char_bound_makes_no_bracket_calls_in_the_linear_bound(self, monkeypatch, capsys):
        inside, entered, calls = [], [], []
        linear_bound = LCPStructure.__dict__["_characteristic_bound"].func
        bracket = LieAlgebra.bracket

        def traced(structure):
            inside.append(True)
            entered.append(True)
            try:
                return linear_bound(structure)
            finally:
                inside.pop()

        def counted(self, x, y):
            if inside:
                calls.append(1)
            return bracket(self, x, y)

        monkeypatch.setattr(LCPStructure, "_characteristic_bound", property(traced))
        monkeypatch.setattr(LieAlgebra, "bracket", counted)
        assert main(["lcp", "char-bound", str(CORPUS_DIR / "sol3.json")]) == 0
        assert capsys.readouterr().out == "bound = span{b} (dim 1)\n"
        assert entered
        assert calls == []

    def test_candidate_verdicts_match_the_direct_checks(self, sol3_structure, rot4_structure):
        rng = random.Random(77)
        structures = [sol3_structure, rot4_structure]
        structures += [random_triple_structure(rng) for _ in range(6)]
        seen = set()
        for s in structures:
            n = s.algebra.dim
            complement = s.orthocomplement()
            theta_kernel = reference.span(reference.kernel((s.lee_form.coefficients,)), n)
            pools = (
                complement.basis,
                complement.intersect(theta_kernel).basis,
                characteristic_constraint_space(s).basis,
            )
            for _ in range(12):
                columns = transpose(rng.choice(pools))
                vectors = [
                    mat_vec(columns, [F(rng.randint(-2, 2)) for _ in range(len(columns[0]))])
                    for _ in range(rng.randint(0, 2))
                ]
                candidate = Subspace.from_vectors(vectors, n)
                report = check_candidate(s, candidate)
                theta_vanishes = all(s.lee_form.value(row) == 0 for row in candidate.basis)
                action_trivial = all(
                    not any(s.algebra.bracket(row, urow))
                    for row in candidate.basis
                    for urow in s.flat_factor.basis
                )
                assert report.theta_vanishes == theta_vanishes
                assert report.action_trivial == action_trivial
                assert report.in_radical == radical(s.algebra).contains_subspace(candidate)
                assert report.in_commutator == derived_algebra(s.algebra).contains_subspace(candidate)
                assert report.linear_bound == characteristic_constraint_space(s)
                seen.add(("theta", theta_vanishes))
                seen.add(("action", action_trivial))
        assert seen == {("theta", True), ("theta", False), ("action", True), ("action", False)}

    def test_candidate_run_builds_each_derived_subspace_once(
        self, monkeypatch, capsys, sol3_structure
    ):
        counts = {"radical": 0, "centralizer": 0, "metric complement": 0, "killing complement": 0}
        # the run parses sol3.json, the algebra and metric of sol3_structure
        complements = {
            sol3_structure.metric.gram: "metric complement",
            liealg.killing_form(sol3_structure.algebra): "killing complement",
        }
        assert len(complements) == 2

        def counting(key, fn):
            def wrapper(*args):
                counts[key] += 1
                return fn(*args)

            return wrapper

        monkeypatch.setattr(lcp, "radical", counting("radical", radical))
        monkeypatch.setattr(lcp, "_centralizer", counting("centralizer", lcp._centralizer))
        complement = Subspace.orthogonal_complement

        def counting_complement(s, gram):
            counts[complements[gram]] += 1
            return complement(s, gram)

        monkeypatch.setattr(Subspace, "orthogonal_complement", counting_complement)
        argv = ["lcp", "char-bound", str(CORPUS_DIR / "sol3.json"), "--candidate", '[["0", "1", "0"]]']
        assert main(argv) == 0
        assert capsys.readouterr().out.startswith("bound = span{b} (dim 1)\ncandidate: span{a}")
        # sol3 is solvable: its radical is read off the derived series, with no Killing complement
        assert counts == {
            "radical": 1, "centralizer": 1, "metric complement": 1, "killing complement": 0
        }


class TestConformalExponential:
    def test_identity_when_nothing_acts(self, sol3_structure):
        # theta(b) = 0 and b acts trivially on the flat line
        assert verify_conformal_exponential(sol3_structure, vector([0, 0, 1]), 1.0, 1e-15)

    def test_sol3_scaling_direction(self, sol3_structure):
        assert verify_conformal_exponential(sol3_structure, vector([0, 1, 0]), 1.0, 1e-12)

    def test_rot4_rotation_drops_out(self, rot4_structure):
        assert verify_conformal_exponential(rot4_structure, vector([0, 0, 1, 0]), 0.7, 1e-10)

    def test_all_corpus_structures_at_standard_times(
        self, sol3_structure, rot4_structure, rot5_structure
    ):
        for s in (sol3_structure, rot4_structure, rot5_structure):
            complement = s.orthocomplement()
            for row in complement.basis:
                for t in (1.0, -1.0, 0.5, -0.5):
                    assert verify_conformal_exponential(s, row, t, 1e-9)

    def test_corrupted_action_fails(self, rot4_structure):
        s = rot4_structure
        action = flat_factor_action(s, vector([0, 0, 1, 0]))
        broken = tuple(
            tuple(c + (F(1) if (r, k) == (0, 1) else F(0)) for k, c in enumerate(row))
            for r, row in enumerate(action)
        )
        gram_u = s.metric.restrict(s.flat_factor.basis)
        residual = conformal_exponential_residual(
            gram_u, broken, s.lee_form.value(vector([0, 0, 1, 0])), 1.0
        )
        assert residual > 1e-3

    def test_exact_check_rejects_the_corrupted_action(self, rot4_structure):
        # the corrupted rot4 action of criterion 6 in test_acceptance.py
        s = rot4_structure
        x = vector([0, 0, 1, 0])
        action = flat_factor_action(s, x)
        broken = tuple(
            tuple(c + (F(1) if (r, k) == (0, 1) else F(0)) for k, c in enumerate(row))
            for r, row in enumerate(action)
        )
        gram_u = s.metric.restrict(s.flat_factor.basis)
        lee = s.lee_form.value(x)
        assert is_conformal_action(gram_u, action, lee)
        assert not is_conformal_action(gram_u, broken, lee)

    def test_exact_check_agrees_with_the_numeric_residual(self):
        # A = w I + K is conformal for G = I exactly when K is skew
        rng = random.Random(97)
        gram = identity_matrix(3)
        verdicts = set()
        for _ in range(40):
            w = F(rng.randint(-3, 3), rng.randint(1, 3))
            skew = [[F(0)] * 3 for _ in range(3)]
            for r, c in combinations(range(3), 2):
                skew[r][c] = F(rng.randint(-2, 2))
                skew[c][r] = -skew[r][c]
            if rng.random() < 0.5:
                r, c = rng.randrange(3), rng.randrange(3)
                skew[r][c] += F(rng.choice((-1, 1)), rng.randint(1, 4))
            action = tuple(tuple(w * (r == c) + skew[r][c] for c in range(3)) for r in range(3))
            exact = is_conformal_action(gram, action, w)
            assert exact == (conformal_exponential_residual(gram, action, w, 0.5) <= 1e-9)
            verdicts.add(exact)
        assert verdicts == {True, False}

    def test_exact_check_rejects_floats_and_mismatched_sizes(self):
        one = ((F(1),),)
        with pytest.raises(TypeError):
            is_conformal_action(one, ((0.5,),), F(0))
        with pytest.raises(TypeError):
            is_conformal_action(one, one, 0.5)
        with pytest.raises(ValueError, match="square matrices of one size"):
            is_conformal_action(one, identity_matrix(2), F(1))
        # A^T G + G A = 0 = 2 w G here, but reading (A^T G)[r][c] as (G A)[c][r] needs G symmetric
        gram = ((F(0), F(1)), (F(-1), F(0)))
        action = ((F(1), F(0)), (F(0), F(-1)))
        negated = tuple(tuple(-x for x in row) for row in mat_mul(gram, action))
        assert mat_mul(transpose(action), gram) == negated
        with pytest.raises(ValueError, match="^gram_u must be symmetric$"):
            is_conformal_action(gram, action, F(0))

    def test_verdict_needs_no_numpy_or_scipy(self, monkeypatch, rot4_structure):
        for name in ("numpy", "scipy", "scipy.linalg"):
            monkeypatch.setitem(sys.modules, name, None)
        for row in rot4_structure.orthocomplement().basis:
            assert verify_conformal_exponential(rot4_structure, row, 1.0, 1e-9)

    def test_flat_factor_action_rejects_wrong_length_elements(self, sol3_structure):
        with pytest.raises(ValueError, match="vector length"):
            flat_factor_action(sol3_structure, vector([0, 1, 0, 5]))

    def test_rejects_non_positive_tolerance(self, sol3_structure):
        with pytest.raises(ValueError):
            verify_conformal_exponential(sol3_structure, vector([0, 1, 0]), 1.0, 0.0)

    def test_rejects_a_nan_tolerance(self, sol3_structure):
        # tol <= 0 is false for NaN, so the check asks for tol > 0
        with pytest.raises(ValueError, match="tolerance must be positive"):
            verify_conformal_exponential(sol3_structure, vector([0, 1, 0]), 1.0, float("nan"))

    def test_rejects_vectors_outside_the_complement(self, sol3_structure):
        with pytest.raises(ValueError):
            verify_conformal_exponential(sol3_structure, vector([1, 0, 0]), 1.0, 1e-9)


# Entry points that read a vector of the caller's, each given (1/2, 0) or (True, 0)
# with a float or a bool in place of the exact 1/2 or 1.
EXACT_INPUTS = {
    "Subspace.coordinates_of": lambda v: Subspace.full(2).coordinates_of(v),
    "Subspace.contains": lambda v: Subspace.full(2).contains(v),
    "Subspace.residue": lambda v: Subspace.zero(2).residue(v),
    "LieAlgebra.bracket left": lambda v: make_aff().bracket(v, vector([0, 1])),
    "LieAlgebra.bracket right": lambda v: make_aff().bracket(vector([1, 0]), v),
    "LieAlgebra.ad": lambda v: make_aff().ad(v),
    "InnerProduct.value left": lambda v: InnerProduct.identity(2).value(v, vector([1, 0])),
    "InnerProduct.value right": lambda v: InnerProduct.identity(2).value(vector([1, 0]), v),
    "InnerProduct.restrict": lambda v: InnerProduct.identity(2).restrict([v]),
    "Covector.value": lambda v: Covector(vector([1, 0])).value(v),
    "flat_factor_action": lambda v: flat_factor_action(make_rot4_structure(), (0, 0) + v),
}


@pytest.mark.parametrize("entry", sorted(EXACT_INPUTS))
def test_float_and_bool_entries_raise_type_error(entry):
    call = EXACT_INPUTS[entry]
    call((F(1, 2), 0))  # the exact input is accepted
    for inexact in ((0.5, 0), (True, 0)):
        with pytest.raises(TypeError):
            call(inexact)


# Every public entry that reads numbers of the caller's, each given a scalar x
# in place of an exact 1/2 somewhere among its numeric arguments.
NUMERIC_ENTRIES = {
    "as_fraction": lambda x: as_fraction(x),
    "vector": lambda x: vector((x, 0)),
    "matrix": lambda x: matrix(((x, 0), (0, 1))),
    "det": lambda x: det(((x, 1), (1, 1))),
    "dot": lambda x: dot((x, 0), (1, 1)),
    "mat_vec": lambda x: mat_vec(((x, 0),), (1, 2)),
    "inverse": lambda x: inverse(((x, 1), (1, 1))),
    "kernel": lambda x: kernel(((x, 1),)),
    "rref": lambda x: rref(((x, 1),)),
    "symmetric_signature": lambda x: symmetric_signature(((x, x), (x, x))),
    "Subspace.from_vectors": lambda x: Subspace.from_vectors(((x, 1),), 2),
    "Subspace.kernel_of": lambda x: Subspace.kernel_of(((x, 1),), 2),
    "Subspace.contains": lambda x: Subspace.full(2).contains((x, 0)),
    "Subspace.residue": lambda x: Subspace.zero(2).residue((x, 0)),
    "Subspace.coordinates_of": lambda x: Subspace.full(2).coordinates_of((x, 0)),
    "Subspace.restrict": lambda x: Subspace.full(2).restrict(((x,), (0,))),
    "Subspace.orthogonal_complement":
        lambda x: Subspace.full(2).orthogonal_complement(((x, 0), (0, 1))),
    "Covector": lambda x: Covector((x, 0)),
    "Covector.value": lambda x: Covector((1, 0)).value((x, 0)),
    "InnerProduct": lambda x: InnerProduct(((x, 0), (0, 1))),
    "InnerProduct.value": lambda x: InnerProduct.identity(2).value((x, 0), (x, 0)),
    "InnerProduct.restrict": lambda x: InnerProduct.identity(2).restrict(((x, 0),)),
    "LieAlgebra.bracket": lambda x: make_aff().bracket((x, 0), (0, x)),
    "LieAlgebra.ad": lambda x: make_aff().ad((x, 0)),
    "LieAlgebra.from_brackets": lambda x: LieAlgebra.from_brackets(2, {(0, 1): {1: x}}),
    "Connection.from_matrices":
        lambda x: Connection.from_matrices(2, (((x, 0), (0, 0)), ((0, 0), (0, 0)))),
    "IntegerEndomorphism.image": lambda x: IntegerEndomorphism(((1,),)).image((x,)),
    "flat_factor_action": lambda x: flat_factor_action(make_rot4_structure(), (0, 0, x, 0)),
    "is_conformal_action": lambda x: is_conformal_action(((x,),), ((x,),), x),
    "semidirect_sum": lambda x: semidirect_sum(1, make_aff(), (((x,),), ((0,),))),
}


@pytest.mark.parametrize("entry", sorted(NUMERIC_ENTRIES))
def test_a_float_or_bool_scalar_raises_type_error(entry):
    call = NUMERIC_ENTRIES[entry]
    call(F(1, 2))  # the exact input is accepted
    for inexact in (0.5, True):
        with pytest.raises(TypeError):
            call(inexact)


class TestRestrictionOracles:
    def test_flat_factor_matches_the_reference_flat_factor(self):
        cases = pipeline_cases()
        rng = random.Random(1357)
        for _ in range(6):
            s = random_triple_structure(rng)
            cases.append((s.algebra, s.metric, s.lee_form))
            cases.append((s.algebra, random_llt_metric(rng, s.algebra.dim), s.lee_form))
        for _ in range(3):
            theta = Covector((F(rng.randint(1, 3)), F(rng.randint(-3, 3))))
            cases.append((make_abelian(2), random_llt_metric(rng, 2), theta))
        cases += [(s.algebra, s.metric, s.lee_form) for s in map(scaling_family, range(4, 13))]
        classes = []
        for algebra, metric, theta in cases:
            analysis = ConformalAnalysis(algebra, metric, theta)
            try:
                result = analysis.flat_factor
            except ValueError:  # zero or non-closed covector, or non-unimodular algebra
                continue
            expected = reference.flat_factor(algebra, metric, theta)
            assert result.subspace == expected
            assert result == maximal_flat_factor(algebra, metric, theta)
            classes.append(result.classification)
        assert len(classes) >= 20
        assert set(classes) == {CLASS_LCP, CLASS_CONFORMALLY_FLAT, CLASS_NONE}

    def test_every_small_flat_span_lies_in_the_flat_factor(
        self, sol3_structure, rot4_structure, rot5_structure
    ):
        structures = [sol3_structure, rot4_structure, rot5_structure]
        structures += small_triple_structures(4646, 2, max_dim=5)
        flat_dims = set()
        for s in structures:
            n = s.algebra.dim
            conn = weyl_connection(s.algebra, s.metric, s.lee_form)
            operators = curvature(s.algebra, conn).operators
            best = maximal_flat_factor(s.algebra, s.metric, s.lee_form).subspace
            vectors = [vector(v) for v in product((-1, 0, 1), repeat=n) if any(v)]
            # a span is annihilated by the curvature iff each spanning vector is,
            # so the other vectors span no flat subspace
            annihilated = [v for v in vectors if not any(any(mat_vec(op, v)) for op in operators)]
            spans = {Subspace.from_vectors([v], n) for v in annihilated}
            spans.update(Subspace.from_vectors(pair, n) for pair in combinations(annihilated, 2))
            for span in spans:
                rows = span.basis
                parallel = all(
                    rank(rows + (mat_vec(m, row),)) == span.dim for m in conn.nabla for row in rows
                )
                if parallel:
                    assert rank(best.basis + rows) == best.dim
                    flat_dims.add(span.dim)
        assert flat_dims == {1, 2}


class TestRestrictionCounts:
    def test_candidate_run_makes_no_constraint_matrix_call(self, monkeypatch, capsys):
        calls = []
        original = Subspace.constraint_matrix

        def counted(self):
            calls.append(self)
            return original(self)

        monkeypatch.setattr(Subspace, "constraint_matrix", counted)
        argv = ["lcp", "char-bound", str(CORPUS_DIR / "sol3.json"), "--candidate", '[["0", "1", "0"]]']
        assert main(argv) == 0
        assert capsys.readouterr().out.startswith("bound = span{b} (dim 1)\ncandidate: span{a}")
        assert calls == []

    def test_max_flat_on_rot5_makes_one_kernel_call(self, monkeypatch, capsys):
        # every kernel, `Subspace.kernel_of` and `Subspace.restrict` included, is one `_null_space`
        original = linalg._null_space
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(linalg, "_null_space", counted)
        assert main(["lcp", "max-flat", str(CORPUS_DIR / "rot5.json")]) == 0
        assert "classification: lcp" in capsys.readouterr().out
        assert len(calls) == 1

    def test_flat_factor_runs_one_descending_chain(self, monkeypatch):
        calls = []
        chain = lcp._descending_chain

        def counted(start, step):
            calls.append(start)
            return chain(start, step)

        monkeypatch.setattr(lcp, "_descending_chain", counted)
        for structure in (make_sol3_structure(), make_rot5_structure()):
            calls.clear()
            analysis = ConformalAnalysis(structure.algebra, structure.metric, structure.lee_form)
            assert analysis.flat_factor.subspace == structure.flat_factor
            assert calls == [analysis.curvature.kernel]


def outcome(f, *args):
    """f(*args), or the type and message of the exception it raises."""
    try:
        return f(*args)
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)


class TestExtractionOracles:
    """The flat-factor action and triple extraction against their Fraction
    routes, results and messages alike."""

    def test_flat_factor_action_matches_the_fraction_route(self):
        rng = random.Random(7272)
        messages = Counter()
        for s in extraction_cases():
            n = s.algebra.dim
            xs = list(s.orthocomplement().basis) + [s.algebra.basis_vector(i) for i in range(n)]
            xs.append(tuple(F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)))
            for x in xs:
                got = outcome(flat_factor_action, s, x)
                assert got == outcome(reference.flat_factor_action, s, x)
                messages[got[1] if isinstance(got[0], type) else "ok"] += 1
        assert messages["ok"] > 200
        assert messages["flat factor is not invariant under this element"] > 50

    def test_triple_extraction_matches_the_fraction_route(self):
        messages = Counter()
        round_trips = fractional = 0
        for s in extraction_cases():
            got = outcome(triple_from_lcp, s)
            assert got == outcome(reference.triple_from_lcp, s)
            if isinstance(got, LCPTriple):
                messages["ok"] += 1
                # complements with fractional canonical rows, so that B_h > 1
                fractional += s.orthocomplement()._lifted[0] > 1
                if isinstance(s, LCPStructure):
                    assert build_from_triple(got) == s
                    round_trips += 1
            else:
                messages[got[1]] += 1
        assert messages["ok"] >= 20 and round_trips >= 15
        assert fractional >= 10
        for text in ("is not a subalgebra", "is not invariant under the complement", "not orthonormal",
                     "requires an adapted structure", "requires a unimodular algebra"):
            assert sum(count for m, count in messages.items() if text in m) > 0, text


class TestOneRestrictionRoute:
    def test_extraction_and_the_conformal_check_take_no_dense_route(self, monkeypatch):
        """`triple_from_lcp` builds h's table from integer rows, and it and
        `verify_conformal_exponential` restrict the metric through one sparse
        product: over every extraction case, neither reaches the dense routes.
        Each is counted in every module that binds it."""
        cases = extraction_cases()
        calls = Counter()
        from_brackets = LieAlgebra.from_brackets.__func__
        monkeypatch.setattr(LieAlgebra, "from_brackets", classmethod(
            lambda cls, *args: calls.update(["from_brackets"]) or from_brackets(cls, *args)
        ))
        for owner, name in ((liealg, "_normalize_brackets"), (linalg, "as_fraction"), (linalg, "mat_vec")):
            original = getattr(owner, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            for module in (cli, connections, documents, lattice, lcp, liealg, linalg):
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counted)
        LieAlgebra.from_brackets(1, {})
        InnerProduct.identity(1).value((F(1),), ("1",))
        assert calls == {"from_brackets": 1, "_normalize_brackets": 1, "as_fraction": 1, "mat_vec": 1}
        calls.clear()
        outcomes = Counter()
        for s in cases:
            outcomes["triple" if isinstance(outcome(triple_from_lcp, s), LCPTriple) else "none"] += 1
            for x in s.orthocomplement().basis:
                outcomes[outcome(verify_conformal_exponential, s, x, 1.0, 1e-9)] += 1
        assert outcomes["triple"] >= 20 and outcomes[True] > 100 and outcomes[False] > 100
        assert calls == {}

    def test_no_command_or_extraction_calls_bracket_or_coordinates_of(self, monkeypatch):
        """Every command line of `cli_bytes.json`, and the extraction, the
        conformal check and Lemma 5.1 on the corpus, restrict operators on
        integer rows: none calls the Fraction `bracket` or `coordinates_of`."""
        calls = Counter()
        for cls, name in ((LieAlgebra, "bracket"), (Subspace, "coordinates_of")):
            original = getattr(cls, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(cls, name, counted)
        make_sol3().bracket(vector([1, 0, 0]), vector([0, 1, 0]))
        Subspace.full(1).coordinates_of((1,))
        assert calls == {"bracket": 1, "coordinates_of": 1}
        calls.clear()
        pinned = json.loads(RECORD.read_text(encoding="utf-8"))
        for argv in commands():
            assert invoke(argv) == pinned[" ".join(argv)]
        structures = corpus_structures()
        assert len(structures) >= 4
        for s in structures:
            triple_from_lcp(s)
            for row in s.orthocomplement().basis:
                assert verify_conformal_exponential(s, row, 1.0, 1e-9)
        splits = 0
        for path in sorted(CORPUS_DIR.glob("lat_*.json")):
            doc = parse_lattice_document(path.read_text(encoding="utf-8"))
            if doc.e1 is not None:
                k = doc.endomorphism.size
                split = SplitDecomposition(Subspace.from_vectors(doc.e1, k), Subspace.from_vectors(doc.e2, k))
                check_splitting(doc.endomorphism, split)
                splits += 1
        assert splits >= 2
        assert calls == {}


class TestRadicalBinds:
    """Structures on non-solvable algebras, where the paper's theorem puts the
    reduced characteristic group inside the radical: the radical condition cuts
    the characteristic bound, which no solvable corpus structure shows."""

    @pytest.mark.parametrize("triple, radical_labels, without_radical",
                             [case[1:] for case in RADICAL_BINDING],
                             ids=[case[0] for case in RADICAL_BINDING])
    def test_every_command_on_the_built_structure(
        self, tmp_path, capsys, triple, radical_labels, without_radical
    ):
        def run(*argv):
            code = main(list(argv))
            return code, capsys.readouterr().out

        path = tmp_path / "triple.json"
        path.write_text(json.dumps(triple), encoding="utf-8")
        code, built = run("lcp", "from-triple", str(path))
        assert code == 0
        structure_path = tmp_path / "structure.json"
        structure_path.write_text(built, encoding="utf-8")
        s = str(structure_path)
        q = triple["triple"]["q"]
        u = ", ".join(f"u{t + 1}" for t in range(q))
        assert run("lcp", "detect", s) == (0, "valid: yes\nadapted: yes\nmaximal: yes\n"
                                             f"flat factor: span{{{u}}} (dim {q})\n")
        assert run("lcp", "max-flat", s) == (
            0, f"flat factor = span{{{u}}} (dim {q})\nclassification: lcp\nadapted: yes\n"
        )
        assert run("lcp", "char-bound", s) == (0, "bound = span{b} (dim 1)\n")
        code, report = run("analyze", s)
        assert code == 0
        assert "solvable: no\n" in report and "semisimple: no\n" in report
        radical_line = f"radical: span{{{', '.join(radical_labels)}}} (dim {len(radical_labels)})"
        assert radical_line + "\n" in report

        doc = parse_algebra_document(built)
        algebra = document_algebra(doc)
        structure = validate_lcp(
            algebra, InnerProduct(doc.metric), Covector(doc.theta),
            Subspace.from_vectors(doc.flat_factor, algebra.dim),
        )
        assert structure.adapted and structure.maximal
        rad = radical(algebra)
        labels = algebra.labels
        expected = Subspace.from_vectors(
            [[F(int(label == name)) for label in labels] for name in radical_labels], algebra.dim
        )
        assert rad == expected
        bound = characteristic_constraint_space(structure)
        assert bound.dim == 1 and rad.contains_subspace(bound)
        # without the radical condition the bound is larger: so(3) or sl(2) enters,
        # unless the centralizer already excludes it
        theta_kernel, centralizer, _, derived = structure._linear_conditions
        loose = structure.orthocomplement().intersect(theta_kernel).intersect(centralizer)
        loose = loose.intersect(derived)
        assert loose.dim == without_radical
        assert loose.intersect(rad) == bound
