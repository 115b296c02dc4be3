"""Integer normal forms and the invariant-splitting fixed-point check."""
from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from lcplie.documents import parse_lattice_document
from lcplie import lattice
from lcplie.lattice import (
    IntegerEndomorphism,
    SplitDecomposition,
    check_splitting,
    det_integer,
    elementary_divisors,
    lattice_index,
    smith_normal_form,
    _triangular_form,
    _verify_index,
    _verify_snf,
)
from lcplie.linalg import Subspace, mat_vec, vector

import reference
from cases import corpus_lattice_matrices, random_matrix, seeded_splittings
from conftest import CORPUS_DIR
from reference import mat_mul

F = Fraction


def assert_witness_certifies_non_density(split, witness, box=10):
    """Exhaustive check: p2 of every lattice point in the box lies on the
    witness's family W + Z * p2(x / |x|^2)."""
    x = witness.vector
    k = len(x)
    norm_sq = sum(c * c for c in x)
    p2 = reference.second_projection(split)
    px = mat_vec(p2, vector([F(c, norm_sq) for c in x]))
    points = [()]
    for _ in range(k):
        points = [p + (c,) for p in points for c in range(-box, box + 1)]
    for z in points:
        n = sum(xc * zc for xc, zc in zip(x, z))
        shifted = tuple(
            pz - n * pxc for pz, pxc in zip(mat_vec(p2, vector(z)), px)
        )
        assert witness.hyperplane.contains(shifted)


class TestDeterminant:
    def test_against_fraction_elimination(self):
        rng = random.Random(1234)
        for _ in range(40):
            k = rng.randint(1, 5)
            a = random_matrix(rng, k, span=6)
            assert det_integer(a) == reference.det(a)

    @pytest.mark.parametrize(
        "a",
        [[[F(1, 2), 1], [1, 1]], [[0.5, 1], [1, 1]], [[True, 0], [0, 1]], [[F(3)]]],
        ids=["fraction", "float", "bool", "integral fraction"],
    )
    def test_rejects_non_integer_entries(self, a):
        with pytest.raises(ValueError, match="matrix entries must be integers"):
            det_integer(a)

    def test_empty_matrix_has_determinant_one(self):
        assert det_integer([]) == 1
        assert det_integer(()) == 1

    def test_integrality_enforced(self):
        with pytest.raises(ValueError):
            IntegerEndomorphism(((1, 0), (0.5, 1)))
        with pytest.raises(ValueError):
            IntegerEndomorphism(((True, 0), (0, 1)))
        with pytest.raises(ValueError):
            IntegerEndomorphism(((1, 0, 0), (0, 1, 0)))


class TestSmithNormalForm:
    def test_identity(self):
        u, d, v = smith_normal_form(IntegerEndomorphism(((1, 0), (0, 1))))
        assert d == ((1, 0), (0, 1))

    def test_ordered_diagonal_is_kept(self):
        _, d, _ = smith_normal_form(IntegerEndomorphism(((2, 0), (0, 6))))
        assert d == ((2, 0), (0, 6))

    def test_upper_triangular_example(self):
        endo = IntegerEndomorphism(((2, 1), (0, 3)))
        u, d, v = smith_normal_form(endo)
        assert d == ((1, 0), (0, 6))
        assert mat_mul(mat_mul(u, ((2, 1), (0, 3))), v) == ((1, 0), (0, 6))
        assert elementary_divisors(endo) == (1, 6)

    def test_zero_matrix(self):
        _, d, _ = smith_normal_form(IntegerEndomorphism(((0, 0), (0, 0))))
        assert d == ((0, 0), (0, 0))

    def test_randomized_reconstruction(self):
        rng = random.Random(8128)
        for _ in range(100):
            k = rng.randint(1, 6)
            a = random_matrix(rng, k)
            u, d, v = smith_normal_form(IntegerEndomorphism(tuple(tuple(r) for r in a)))
            assert mat_mul(mat_mul(u, a), v) == d
            assert abs(det_integer(u)) == 1
            assert abs(det_integer(v)) == 1
            diag = [d[i][i] for i in range(k)]
            assert all(x >= 0 for x in diag)
            for first, second in zip(diag, diag[1:]):
                if first == 0:
                    assert second == 0
                else:
                    assert second % first == 0

    @pytest.mark.parametrize(
        "a, u, d",
        [
            # U A V = D and 1 | 2, but det U = 2: the product of the divisors is not |det A| = 1
            (((1, 0), (0, 1)), ((1, 0), (0, 2)), ((1, 0), (0, 2))),
            # singular A, so Bareiss on U finds det U = 2
            (((1, 0), (0, 0)), ((1, 0), (0, 2)), ((1, 0), (0, 0))),
            # D is a Smith form of A and det A = 6 = 1 * 6, but U A V = A is not D
            (((2, 1), (0, 3)), ((1, 0), (0, 1)), ((1, 0), (0, 6))),
            # U A V = D, U and V unimodular and 2 * 3 = det A, but 2 does not divide 3
            (((2, 0), (0, 3)), ((1, 0), (0, 1)), ((2, 0), (0, 3))),
            # U A V = D, U and V unimodular, but a zero divisor comes before a nonzero one
            (((0, 0), (0, 1)), ((1, 0), (0, 1)), ((0, 0), (0, 1))),
        ],
        ids=["unimodular through det A", "unimodular through Bareiss", "U A V is not D",
             "divisor chain broken", "zero divisor first"],
    )
    def test_self_check_rejects_a_wrong_factorization(self, a, u, d):
        with pytest.raises(RuntimeError, match="^normal form self-check failed$"):
            _verify_snf(a, u, d, ((1, 0), (0, 1)))


class TestSmithNormalFormOracle:
    def test_matches_the_full_scan_elimination(self):
        rng = random.Random(6174)
        singular = 0
        for trial in range(240):
            k = trial % 12 + 1
            span = rng.choice((1, 3, 9))
            if trial % 3 == 0:
                # rank below k: a product of k x r and r x k factors
                r = rng.randint(0, k - 1)
                left = [[rng.randint(-span, span) for _ in range(r)] for _ in range(k)]
                right = [[rng.randint(-span, span) for _ in range(k)] for _ in range(r)]
                a = [[sum(left[i][t] * right[t][j] for t in range(r)) for j in range(k)]
                     for i in range(k)]
            else:
                a = random_matrix(rng, k, span=span)
            singular += det_integer(a) == 0
            endo = IntegerEndomorphism(tuple(tuple(row) for row in a))
            assert smith_normal_form(endo) == reference.smith_normal_form_full_scan(a)
        assert singular >= 80

    @pytest.mark.parametrize("a", [pytest.param(a, id=name) for name, a in corpus_lattice_matrices()])
    def test_matches_the_full_scan_elimination_on_the_benchmark_matrices(self, a):
        endo = IntegerEndomorphism(tuple(tuple(row) for row in a))
        assert smith_normal_form(endo) == reference.smith_normal_form_full_scan(a)


class TestLatticeIndex:
    def test_small_cases(self):
        assert lattice_index(IntegerEndomorphism(((1, 0), (0, 1)))) == 1
        assert lattice_index(IntegerEndomorphism(((2, 0), (0, 3)))) == 6
        assert lattice_index(IntegerEndomorphism(((2, 4), (1, 2)))) is None

    def test_companion_shift_has_index_one(self):
        # x^2 - 3x + 1 evaluated at 1 is -1, so the shifted map is onto Z^2
        companion = ((0, -1), (1, 3))
        shifted = tuple(
            tuple(c - (1 if i == j else 0) for j, c in enumerate(row))
            for i, row in enumerate(companion)
        )
        assert lattice_index(IntegerEndomorphism(shifted)) == 1

    def test_matches_determinant_on_randoms(self):
        rng = random.Random(31)
        for _ in range(60):
            k = rng.randint(1, 5)
            a = random_matrix(rng, k, span=7)
            expected = abs(det_integer(a))
            got = lattice_index(IntegerEndomorphism(tuple(tuple(r) for r in a)))
            assert got == (expected if expected else None)

    def test_index_counts_cosets_by_brute_force(self):
        # quotient classes of Z^2 by the column lattice of [[2,1],[0,3]]
        def in_image(dx, dy):
            # dx = 2p + q, dy = 3q for integers p, q
            if dy % 3 != 0:
                return False
            return (dx - dy // 3) % 2 == 0

        reps: list[tuple[int, int]] = []
        for x in range(6):
            for y in range(6):
                if not any(in_image(x - rx, y - ry) for rx, ry in reps):
                    reps.append((x, y))
        assert len(reps) == lattice_index(IntegerEndomorphism(((2, 1), (0, 3)))) == 6


def endomorphism(a):
    return IntegerEndomorphism(tuple(tuple(row) for row in a))


class TestLatticeIndexOracle:
    def test_matches_the_fraction_determinant_on_seeded_matrices(self):
        rng = random.Random(2718)
        singular = 0
        for trial in range(270):
            k = trial % 9 + 1
            span = rng.choice((1, 3, 9))
            if trial % 2 == 0:
                # rank below k: a product of k x r and r x k factors
                r = rng.randint(0, k - 1)
                left = random_matrix(rng, k, r, span=span)
                right = random_matrix(rng, r, k, span=span)
                a = [[sum(left[i][t] * right[t][j] for t in range(r)) for j in range(k)]
                     for i in range(k)]
            else:
                a = random_matrix(rng, k, span=span)
            d = reference.det(a)
            singular += d == 0
            assert lattice_index(endomorphism(a)) == (abs(d) or None)
        assert singular >= 100

    @pytest.mark.parametrize("a", [pytest.param(a, id=name) for name, a in corpus_lattice_matrices()])
    def test_matches_the_fraction_determinant_on_the_benchmark_matrices(self, a):
        assert lattice_index(endomorphism(a)) == (abs(reference.det(a)) or None)

    def test_k40_agrees_with_det_integer(self):
        rng = random.Random(4040)
        a = random_matrix(rng, 40, span=3)
        d = det_integer(a)
        assert d != 0
        assert lattice_index(endomorphism(a)) == abs(d)

    def test_runs_one_determinant_and_no_smith_form(self, monkeypatch):
        calls = []

        def counted(work):
            calls.append(len(work))
            return bareiss(work)

        def forbidden(*args):
            raise AssertionError("lattice_index reached the Smith form")

        bareiss = lattice._bareiss
        monkeypatch.setattr(lattice, "_bareiss", counted)
        monkeypatch.setattr(lattice, "smith_normal_form", forbidden)
        monkeypatch.setattr(lattice, "_verify_snf", forbidden)
        assert lattice_index(endomorphism(((2, 1), (0, 3)))) == 6
        assert lattice_index(endomorphism(((2, 4), (1, 2)))) is None
        assert calls == [2, 2]


class TestVerifyIndex:
    def test_accepts_the_triangular_form(self):
        for a in (((2, 1), (0, 3)), ((2, 4), (1, 2)), ((0, 0), (0, 0)), ((0, 1), (1, 0))):
            h, v = _triangular_form(a)
            assert all(h[r][c] == 0 for r in range(2) for c in range(r + 1, 2))
            _verify_index(a, h, v, det_integer(a))

    @staticmethod
    def nonsingular_form():
        a = dict(corpus_lattice_matrices())["k6/v0"]
        d = det_integer(a)
        assert d != 0
        h, v = _triangular_form(tuple(map(tuple, a)))
        return a, h, v, d

    def test_rejects_a_changed_entry_of_v(self):
        a, h, v, d = self.nonsingular_form()
        v = [list(row) for row in v]
        v[2][3] += 1
        with pytest.raises(RuntimeError, match="^index cross-check failed"):
            _verify_index(a, h, v, d)

    def test_rejects_an_entry_above_the_diagonal(self):
        # A V = H and prod |h_ii| = |det A| = 6, but H = A is not lower triangular
        a = ((2, 1), (0, 3))
        with pytest.raises(RuntimeError, match="^index cross-check failed"):
            _verify_index(a, a, ((1, 0), (0, 1)), 6)

    def test_rejects_a_zero_kernel_witness(self):
        # A V = H lower triangular, H's second column is zero, but so is V's
        a = ((1, 0), (0, 0))
        with pytest.raises(RuntimeError, match="^index cross-check failed"):
            _verify_index(a, a, a, 0)

    @pytest.mark.parametrize(
        "wrong", [lambda d: 2 * d, lambda d: -3 * d, lambda d: 0], ids=["2 det", "-3 det", "zero"]
    )
    def test_rejects_a_wrong_determinant(self, wrong):
        a, h, v, d = self.nonsingular_form()
        with pytest.raises(RuntimeError, match="^index cross-check failed"):
            _verify_index(a, h, v, wrong(d))

    def test_rejects_a_nonzero_determinant_for_a_singular_matrix(self):
        a = ((2, 4), (1, 2))
        h, v = _triangular_form(a)
        with pytest.raises(RuntimeError, match="^index cross-check failed"):
            _verify_index(a, h, v, 1)


def axes_split():
    return SplitDecomposition(
        Subspace.from_vectors([vector([1, 0])], 2),
        Subspace.from_vectors([vector([0, 1])], 2),
    )


class TestSplitDecomposition:
    def test_rejects_overlap_and_bad_dimension(self):
        line = Subspace.from_vectors([vector([1, 0])], 2)
        with pytest.raises(ValueError):
            SplitDecomposition(line, line)
        with pytest.raises(ValueError):
            SplitDecomposition(line, Subspace.zero(2))


class TestCheckSplitting:
    def test_invertible_case_gives_the_index(self):
        endo = IntegerEndomorphism(((2, 1), (1, 1)))
        split = SplitDecomposition(Subspace.full(2), Subspace.zero(2))
        verdict = check_splitting(endo, split)
        assert verdict.hypotheses_ok
        assert verdict.det_minus_identity == -1
        assert verdict.conclusion_holds
        assert verdict.index == 1
        assert verdict.witness is None

    def test_singular_case_produces_a_witness(self):
        endo = IntegerEndomorphism(((2, 0), (0, 1)))
        verdict = check_splitting(endo, axes_split())
        assert verdict.hypotheses_ok
        assert verdict.det_minus_identity == 0
        assert not verdict.conclusion_holds
        assert verdict.index is None
        assert verdict.witness is not None
        assert verdict.witness.vector == (0, 1)
        assert verdict.witness.hyperplane.is_zero()

    def test_witness_is_a_normalized_fixed_covector(self):
        endo = IntegerEndomorphism(((2, 0, 0), (0, 1, 0), (0, 0, 1)))
        split = SplitDecomposition(
            Subspace.from_vectors([vector([1, 0, 0])], 3),
            Subspace.from_vectors([vector([0, 1, 0]), vector([0, 0, 1])], 3),
        )
        verdict = check_splitting(endo, split)
        x = verdict.witness.vector
        transpose_image = tuple(
            sum(endo.matrix[i][j] * x[i] for i in range(3)) for j in range(3)
        )
        assert transpose_image == x
        assert math.gcd(*x) == 1
        assert next(c for c in x if c != 0) > 0

    def test_identity_map_fails_the_invertibility_hypothesis(self):
        endo = IntegerEndomorphism(((1, 0), (0, 1)))
        verdict = check_splitting(endo, axes_split())
        assert not verdict.restriction_invertible
        assert not verdict.hypotheses_ok
        assert verdict.det_minus_identity == 0
        # the fixed covector exists regardless of the hypotheses
        assert verdict.witness is not None

    def test_non_invariant_splitting_is_reported(self):
        endo = IntegerEndomorphism(((1, 1), (0, 2)))
        verdict = check_splitting(endo, axes_split())
        assert verdict.e1_invariant
        assert not verdict.e2_invariant

    def test_witness_certificate_diag_case_full_box(self):
        endo = IntegerEndomorphism(((2, 0), (0, 1)))
        split = axes_split()
        verdict = check_splitting(endo, split)
        assert_witness_certifies_non_density(split, verdict.witness, box=50)

    def test_witness_certificate_on_conjugated_blocks(self):
        # contrapositive sweep: invariant splittings with det(A - I) = 0 must
        # always yield a verified certificate
        basis_changes = (
            ((1, 0), (0, 1)),
            ((1, 1), (0, 1)),
            ((2, 1), (1, 1)),
            ((1, 0), (3, 1)),
        )
        for p in basis_changes:
            # A = P diag(2, 1) P^{-1} stays integral because P is unimodular
            sign = det_integer(p)
            p_inv = [
                [sign * p[1][1], -sign * p[0][1]],
                [-sign * p[1][0], sign * p[0][0]],
            ]
            a = mat_mul(mat_mul(p, ((2, 0), (0, 1))), p_inv)
            e1 = Subspace.from_vectors([vector([p[0][0], p[1][0]])], 2)
            e2 = Subspace.from_vectors([vector([p[0][1], p[1][1]])], 2)
            split = SplitDecomposition(e1, e2)
            endo = IntegerEndomorphism(tuple(tuple(r) for r in a))
            verdict = check_splitting(endo, split)
            assert verdict.hypotheses_ok
            assert verdict.det_minus_identity == 0
            assert verdict.witness is not None
            assert_witness_certifies_non_density(split, verdict.witness, box=8)


class TestSplittingOracle:
    def test_verdict_matches_the_fraction_route(self):
        kinds = set()
        half_invariant = 0
        for a, split in seeded_splittings(5151):
            verdict = check_splitting(a, split)
            assert verdict == reference.check_splitting(a, split)
            half_invariant += verdict.e1_invariant and not verdict.e2_invariant
            kinds.add((verdict.e1_invariant and verdict.e2_invariant, verdict.det_minus_identity == 0,
                       verdict.restriction_invertible))
        assert {(True, True, True), (True, False, True), (False, True, False), (False, False, False)} <= kinds
        assert (True, True, False) in kinds or (True, False, False) in kinds
        assert half_invariant > 10

    def test_corpus_splittings_match_the_fraction_route(self):
        names = sorted(p.name for p in CORPUS_DIR.glob("lat_*.json"))
        split_docs = 0
        for name in names:
            doc = parse_lattice_document((CORPUS_DIR / name).read_text(encoding="utf-8"))
            if doc.e1 is None:
                continue
            k = doc.endomorphism.size
            split = SplitDecomposition(Subspace.from_vectors(doc.e1, k), Subspace.from_vectors(doc.e2, k))
            a = doc.endomorphism
            assert check_splitting(a, split) == reference.check_splitting(a, split)
            split_docs += 1
        assert split_docs >= 2
