"""Flat factors, structure validation, the triple correspondence, exponential checks."""
from __future__ import annotations

import random
import sys
from fractions import Fraction
from itertools import combinations, product

import pytest

from lcplie import connections, lcp, linalg
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
    is_flat_subspace,
    is_parallel,
    lcp_violations,
    maximal_flat_factor,
    triple_from_lcp,
    validate_lcp,
    verify_conformal_exponential,
)
from lcplie.cli import main
from lcplie.liealg import Covector, LieAlgebra, derived_algebra, radical
from lcplie.linalg import (
    Subspace,
    identity_matrix,
    kernel,
    mat_mul,
    mat_vec,
    matrix,
    rank,
    transpose,
    vector,
)

from conftest import (
    CORPUS_DIR,
    ROTATION,
    ZERO2,
    make_abelian,
    make_aff,
    make_rot5_structure,
    make_sol3,
    make_sol3_structure,
    sol3_theta,
)
from test_connections import pipeline_cases, random_llt_metric, random_triple_structure
from test_liealg import DenseBrackets

F = Fraction


def make_heis_plus_line() -> LieAlgebra:
    return LieAlgebra.from_brackets(4, {(0, 1): {2: F(1)}})


def make_aff_plus_line() -> LieAlgebra:
    return LieAlgebra.from_brackets(3, {(0, 1): {1: F(1)}}, labels=("a", "b", "c"))


def sol3_weyl(sol3):
    return weyl_connection(sol3, InnerProduct.identity(3), sol3_theta())


def coordinate_subspaces(n):
    """All spans of subsets of the standard basis; closed under sum and meet."""
    out = []
    for size in range(n + 1):
        for subset in combinations(range(n), size):
            rows = [
                tuple(F(1) if k == i else F(0) for k in range(n)) for i in subset
            ]
            out.append(Subspace.from_vectors(rows, n))
    return out


def invariant_closure(conn, v):
    """The smallest subspace containing v that every nabla_i maps into itself."""
    n = len(v)
    span = Subspace.from_vectors([v], n)
    while True:
        grown = Subspace.from_vectors(
            span.basis + tuple(mat_vec(m, row) for m in conn.nabla for row in span.basis), n
        )
        if grown == span:
            return span
        span = grown


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
            triangular = Connection(n, tuple(
                tuple(tuple(F(rng.randint(-2, 2)) if c >= r else F(0) for c in range(n)) for r in range(n))
                for _ in range(n)
            ))
            for conn in (weyl_connection(algebra, metric, theta), triangular):
                # leading coordinate blocks hold the flat factor of every triple structure
                spans = [Subspace.from_vectors(identity_matrix(n)[:d], n) for d in range(n + 1)]
                for _ in range(3):
                    start = [F(rng.choice((-1, 0, 0, 1))) for _ in range(n)]
                    spans.append(Subspace.from_vectors([start], n))
                    spans.append(invariant_closure(conn, start))
                for s in spans:
                    dense = all(s.contains(mat_vec(m, row)) for m in conn.nabla for row in s.basis)
                    assert is_parallel(algebra, conn, s) == dense
                    if 0 < s.dim < n:
                        verdicts.add(dense)
        assert verdicts == {True, False}


class TestMaximalFlatFactor:
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
        curvature_rows = {row for op in analysis.curvature.operators for row in op if any(row)}
        assert curvature_rows
        original = linalg.kernel
        eliminations = []

        def spy(m, ncols=None):
            if m and {tuple(row) for row in m if any(row)} == curvature_rows:
                eliminations.append(None)
            return original(m, ncols)

        for module in (linalg, connections, lcp):
            if getattr(module, "kernel", None) is original:
                monkeypatch.setattr(module, "kernel", spy)
        assert analysis.violations(s.flat_factor) == ()
        assert len(eliminations) == 1
        assert analysis.flat_factor.subspace == s.flat_factor
        assert len(eliminations) == 1


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


def random_rotation_triple(rng):
    """h = aff(R) + R^k with [a, b] = c b, a random rational L L^T metric, and
    q from 1 to 4 turned by commuting 2x2 rotation blocks: a and each central
    generator scale every block by its own random rational, b acts by zero."""
    k, q = rng.randint(0, 2), rng.randint(1, 4)
    m = 2 + k
    c = F(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
    h = LieAlgebra.from_brackets(m, {(0, 1): {1: c}})

    def rotations(scales):
        out = [[F(0)] * q for _ in range(q)]
        for block, scale in enumerate(scales):
            r = 2 * block
            out[r][r + 1], out[r + 1][r] = -scale, scale
        return tuple(map(tuple, out))

    def random_scales():
        return [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(q // 2)]

    beta = [rotations(random_scales()), rotations([F(0)] * (q // 2))]
    beta += [rotations(random_scales()) for _ in range(k)]
    return LCPTriple(h, random_llt_metric(rng, m), q, tuple(beta))


class TestTriples:
    def test_rejects_non_skew_action(self, aff):
        with pytest.raises(ValueError, match="skew"):
            LCPTriple(aff, InnerProduct.identity(2), 2, (matrix([[0, 1], [0, 0]]), ZERO2))

    def test_rejects_unimodular_base(self):
        with pytest.raises(ValueError, match="unimodular"):
            LCPTriple(make_abelian(2), InnerProduct.identity(2), 1, (matrix([[0]]),) * 2)

    def test_rejects_wrong_matrix_count_or_size(self, aff):
        with pytest.raises(ValueError):
            LCPTriple(aff, InnerProduct.identity(2), 2, (ZERO2,))
        with pytest.raises(ValueError):
            LCPTriple(aff, InnerProduct.identity(2), 1, (ZERO2, ZERO2))

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
        nonzero = 0
        for s in structures:
            algebra = s.algebra
            n = algebra.dim
            rows = []
            for urow in s.flat_factor.basis:
                cols = [algebra.bracket(e, urow) for e in identity_matrix(n)]
                rows.extend(transpose(tuple(cols)))
            action = Subspace(n, kernel(tuple(rows), n))
            theta_kernel = Subspace(n, kernel((s.lee_form.coefficients,), n))
            gram_rows = tuple(mat_vec(s.metric.gram, row) for row in s.flat_factor.basis)
            complement = Subspace(n, kernel(gram_rows, n))
            dense = DenseBrackets(algebra)
            rad, derived = dense.radical(), dense.derived
            assert s.orthocomplement() == complement
            assert s._linear_conditions == (theta_kernel, action, rad, derived)
            expected = complement.intersect(theta_kernel).intersect(action)
            expected = expected.intersect(rad).intersect(derived)
            assert characteristic_constraint_space(s) == expected
            nonzero += not expected.is_zero()
        assert nonzero >= 4

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
            theta_kernel = Subspace(n, kernel((s.lee_form.coefficients,), n))
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

    def test_candidate_run_builds_each_derived_subspace_once(self, monkeypatch, capsys):
        counts = {"radical": 0, "centralizer": 0, "complement": 0}

        def counting(key, fn):
            def wrapper(*args):
                counts[key] += 1
                return fn(*args)

            return wrapper

        monkeypatch.setattr(lcp, "radical", counting("radical", radical))
        monkeypatch.setattr(lcp, "_centralizer", counting("centralizer", lcp._centralizer))
        monkeypatch.setattr(
            Subspace,
            "orthogonal_complement",
            counting("complement", Subspace.orthogonal_complement),
        )
        argv = ["lcp", "char-bound", str(CORPUS_DIR / "sol3.json"), "--candidate", '[["0", "1", "0"]]']
        assert main(argv) == 0
        assert capsys.readouterr().out.startswith("bound = span{b} (dim 1)\ncandidate: span{a}")
        assert counts == {"radical": 1, "centralizer": 1, "complement": 1}


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

    def test_flat_factor_action_rejects_wrong_length_elements(self, sol3_structure):
        with pytest.raises(ValueError, match="vector length"):
            flat_factor_action(sol3_structure, vector([0, 1, 0, 5]))

    def test_rejects_non_positive_tolerance(self, sol3_structure):
        with pytest.raises(ValueError):
            verify_conformal_exponential(sol3_structure, vector([0, 1, 0]), 1.0, 0.0)

    def test_rejects_vectors_outside_the_complement(self, sol3_structure):
        with pytest.raises(ValueError):
            verify_conformal_exponential(sol3_structure, vector([1, 0, 0]), 1.0, 1e-9)


def constraint_matrix_invariant_subspace(start, operators):
    """The flat-factor fixed point that `_invariant_part` replaced: W -> {w in W :
    op w in W for all op}, with membership in W read from its constraint rows."""
    current = start
    while not current.is_zero():
        constraints = current.constraint_matrix()
        basis_cols = transpose(current.basis)
        stacked = [
            row
            for op in operators
            for row in mat_mul(constraints, mat_mul(op, basis_cols))
        ]
        coeff_kernel = kernel(tuple(stacked), current.dim)
        if len(coeff_kernel) == current.dim:
            break
        vectors = [mat_vec(basis_cols, c) for c in coeff_kernel]
        current = Subspace.from_vectors(vectors, current.ambient_dim)
    return current


def small_triple_structures(seed, count, max_dim):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        s = random_triple_structure(rng)
        if s.algebra.dim <= max_dim:
            out.append(s)
    return out


class TestRestrictionOracles:
    def test_flat_factor_matches_the_constraint_matrix_fixed_point(self):
        cases = pipeline_cases()
        rng = random.Random(1357)
        for _ in range(6):
            s = random_triple_structure(rng)
            cases.append((s.algebra, s.metric, s.lee_form))
            cases.append((s.algebra, random_llt_metric(rng, s.algebra.dim), s.lee_form))
        for _ in range(3):
            theta = Covector((F(rng.randint(1, 3)), F(rng.randint(-3, 3))))
            cases.append((make_abelian(2), random_llt_metric(rng, 2), theta))
        classes = []
        for algebra, metric, theta in cases:
            analysis = ConformalAnalysis(algebra, metric, theta)
            try:
                result = analysis.flat_factor
            except ValueError:  # zero or non-closed covector, or non-unimodular algebra
                continue
            expected = constraint_matrix_invariant_subspace(
                analysis.curvature.kernel, analysis.connection.nabla
            )
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
        original = linalg.kernel
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("lcplie") and getattr(module, "kernel", None) is original:
                monkeypatch.setattr(module, "kernel", counted)
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
