"""Exact linear algebra: echelon forms, kernels, signatures, subspaces."""
from __future__ import annotations

import math
import random
import re
import sys
from fractions import Fraction

import pytest

from lcplie import connections, lattice, linalg
from lcplie.connections import InnerProduct
from lcplie.lattice import det_integer
from lcplie.linalg import (
    Subspace,
    _bareiss as bareiss,
    _definite_inverse as definite_inverse,
    _descending_chain,
    _echelon,
    _eliminate,
    as_fraction,
    det,
    dot,
    identity_matrix,
    inverse,
    kernel,
    mat_vec,
    matrix,
    pair_index,
    pairs,
    rref,
    symmetric_signature,
    vector,
)

import reference
from cases import (
    bareiss_samples,
    random_matrix,
    random_rational_rows,
    random_subspace,
    random_symmetric,
    seeded_subspace_pairs,
    tall_rows,
)
from reference import mat_mul, rank

F = Fraction


def test_as_fraction_accepts_ints_strings_fractions():
    assert as_fraction(3) == F(3)
    assert as_fraction("2/5") == F(2, 5)
    assert as_fraction(F(1, 7)) == F(1, 7)


def test_as_fraction_rejects_floats():
    with pytest.raises(TypeError):
        as_fraction(0.5)


# Python's Fraction reads each of these; the decimal-free grammar does not.
OUTSIDE_THE_GRAMMAR = ["0.5", "1e3", " 1 ", "1_0", "+1", "1e1000000"]
# Each reads a string entry through as_fraction.
STRING_READERS = pytest.mark.parametrize("read", [
    as_fraction,
    lambda text: vector(["1", text]),
    lambda text: Subspace.from_vectors([("1", text)], 2),
], ids=["as_fraction", "vector", "from_vectors"])


@pytest.mark.parametrize("text", OUTSIDE_THE_GRAMMAR)
@STRING_READERS
def test_strings_outside_the_grammar_are_rejected(read, text):
    with pytest.raises(ValueError, match=f"not a decimal-free rational string: {re.escape(repr(text))}"):
        read(text)


@STRING_READERS
def test_zero_denominator_is_a_value_error(read):
    with pytest.raises(ValueError, match="zero denominator in '1/0'"):
        read("1/0")


def test_as_fraction_reads_the_grammar_and_names_the_digit_limit():
    assert as_fraction("-2/4") == F(-1, 2)
    assert as_fraction("-0") == F(0)
    assert as_fraction("007/10") == F(7, 10)
    with pytest.raises(ValueError, match="digits in a part"):
        as_fraction("7" * 5000)


def outcome(read, text):
    """(value, its type) or (error type, message)."""
    try:
        value = read(text)
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)
    return value, type(value)


def test_as_fraction_matches_the_previous_string_parser_on_the_grammar_edges():
    limit = sys.get_int_max_str_digits()
    cases = ["007", "-0", "0", "-007/010", "3/06", "1/0", "0/0", "-5/10", "10/5", "2/1",
             "12345678901234567890/98765432109876543210", "9" * limit, "1/" + "3" * limit,
             "1" * (limit + 1), "1/" + "1" * (limit + 1), "-" + "2" * (limit + 1) + "/3",
             "", "-", "/2", "1/", "1/-2", "--1", "1.5", "0x1", "\u0663", "1\n", *OUTSIDE_THE_GRAMMAR]
    for text in cases:
        assert outcome(as_fraction, text) == outcome(reference.previous_as_fraction, text), text
    assert outcome(as_fraction, "1/0") == (ValueError, "zero denominator in '1/0'")
    assert outcome(as_fraction, "3/06") == (F(1, 2), F)
    assert outcome(as_fraction, "1" * (limit + 1))[1].endswith("digits in a part")
    rng = random.Random(31)
    for _ in range(500):
        text = str(rng.randint(-10**6, 10**6))
        if rng.random() < 0.7:
            text += "/" + str(rng.randint(0, 10**4)).zfill(rng.randint(1, 6))
        assert outcome(as_fraction, text) == outcome(reference.previous_as_fraction, text), text


def test_pair_index_enumerates_upper_triangle():
    n = 5
    listed = list(pairs(n))
    assert len(listed) == n * (n - 1) // 2
    for idx, (i, j) in enumerate(listed):
        assert i < j
        assert pair_index(i, j, n) == idx


def test_rref_is_canonical_for_the_row_span():
    rng = random.Random(20240)
    for _ in range(50):
        rows = rng.randint(1, 4)
        a = matrix(random_matrix(rng, rows, 4, span=4))
        echelon, pivots = rref(a)
        # invariance: shuffling and rescaling rows must not change the output
        shuffled = list(a)
        rng.shuffle(shuffled)
        scales = [F(rng.choice([1, 2, 3, -1, -2])) for _ in shuffled]
        scaled = [[c * x for x in row] for c, row in zip(scales, shuffled)]
        again, pivots2 = rref(matrix(scaled))
        assert echelon == again
        assert pivots == pivots2
        for row, p in zip(echelon, pivots, strict=True):
            assert row[p] == 1
            assert all(other[p] == 0 for other in echelon if other is not row)


def test_kernel_vectors_annihilate_and_span_the_null_space():
    rng = random.Random(77)
    for _ in range(40):
        m, n = rng.randint(1, 4), rng.randint(1, 5)
        a = matrix(random_matrix(rng, m, n, span=3))
        null = kernel(a)
        for v in null:
            assert all(x == 0 for x in mat_vec(a, v))
        assert len(null) == n - rank(a)


def test_kernel_of_empty_matrix_is_identity():
    assert kernel((), ncols=3) == identity_matrix(3)


@pytest.mark.parametrize("rows, ncols", [(((1, 2),), 3), (((1, 2), (3, 4)), 1)])
def test_kernel_rejects_a_width_other_than_the_rows(rows, ncols):
    with pytest.raises(ValueError, match=f"^kernel: rows of width 2, ncols {ncols}$"):
        kernel(rows, ncols)
    assert kernel(rows, 2) == kernel(rows)


@pytest.mark.parametrize(
    "routine, rows",
    [
        (rref, [[1, 2], [3]]),
        (rref, [[0, 0], [0]]),
        (kernel, ((1, 2), (1,))),
        (linalg.transpose, ((1, 2), (3,))),
        (linalg.transpose, ((1,), (2, 3))),
        (matrix, [[1, 2], [3]]),
    ],
)
def test_ragged_rows_are_a_value_error(routine, rows):
    with pytest.raises(ValueError, match="^ragged matrix$"):
        routine(rows)


def test_rectangular_rows_of_any_shape_are_read():
    assert rref([[0, 0], [0, 0]]) == ((), ())
    assert kernel(((1, 2),)) == ((F(1), F(-1, 2)),)
    assert linalg.transpose(((1, 2, 3),)) == ((1,), (2,), (3,))
    assert linalg.transpose(()) == ()


def test_inverse():
    a = matrix([[2, 1], [1, 1]])
    inv = inverse(a)
    assert mat_mul(a, inv) == identity_matrix(2)


def test_products_match_the_schoolbook_formula_on_sparse_matrices():
    rng = random.Random(1976)
    for _ in range(40):
        m, k, n = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
        a = matrix(random_matrix(rng, m, k, span=1))
        b = matrix(random_matrix(rng, k, n, span=1))
        expected = tuple(
            tuple(sum((a[r][t] * b[t][c] for t in range(k)), F(0)) for c in range(n))
            for r in range(m)
        )
        assert mat_mul(a, b) == expected
        assert mat_vec(a, tuple(row[0] for row in b)) == tuple(row[0] for row in expected)
        assert dot(a[0], tuple(row[0] for row in b)) == expected[0][0]


def test_mat_vec_reads_v_once_and_each_row_once(monkeypatch):
    reads = []

    def counting(row, *kinds):
        reads.append(row)
        return exact(row, *kinds)

    exact = linalg._exact
    monkeypatch.setattr(linalg, "_exact", counting)
    m, v = ((F(1), 0), (0, F(1, 2)), (2, 3)), (F(1), 4)
    assert mat_vec(m, v) == (F(1), F(2), F(14))
    assert all(type(x) is F for x in mat_vec(m, v))
    assert [r for r in reads if r is v] == [v, v]  # once in each of the two calls
    assert sum(r is row for r in reads for row in m) == 2 * len(m)


def test_products_reject_length_mismatch_even_across_zeros():
    with pytest.raises(ValueError):
        dot(vector([0, 0]), vector([1]))
    with pytest.raises(ValueError):
        mat_vec(matrix([[0, 1]]), vector([0]))
    with pytest.raises(ValueError, match="vector length"):
        connections.Connection.from_matrices(2, (identity_matrix(2),) * 2).directional(vector([0]))


def test_det_matches_permutation_expansion():
    rng = random.Random(4096)
    for _ in range(30):
        n = rng.randint(1, 4)
        a = matrix(random_matrix(rng, n, n, span=5))
        assert det(a) == reference.permutation_det(a)


def test_det_is_multiplicative():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(1, 4)
        a = matrix(random_matrix(rng, n, n, span=4))
        b = matrix(random_matrix(rng, n, n, span=4))
        assert det(mat_mul(a, b)) == det(a) * det(b)


def test_det_rejects_float_and_bool_entries():
    for a in (((0.5, 1), (1, 1)), ((True,),), ((F(1), 2), (3, 4.0))):
        with pytest.raises(TypeError):
            det(a)
    assert det(((F(1, 2), 1), (1, 1))) == F(-1, 2)


def test_rank_rejects_float_entries():
    with pytest.raises(TypeError):
        len(rref([[0.5, 1]])[1])


def test_kernel_rejects_float_entries():
    with pytest.raises(TypeError):
        kernel(((1.5, 2),))


def test_rank_rejects_bool_entries():
    with pytest.raises(TypeError):
        len(rref([[True, False]])[1])
    assert len(rref([[1, 0], [2, 0]])[1]) == 1


class TestBareissCore:
    def test_det_and_det_integer_match_the_fraction_reference(self):
        rng = random.Random(77)
        samples = bareiss_samples(seed=2718)
        kinds = {}
        for kind, a in samples:
            expected = reference.det(a)
            assert det_integer(a) == expected, (kind, a)
            assert det(tuple(map(tuple, a))) == expected, (kind, a)
            rational = tuple(tuple(F(x, rng.randint(1, 12)) for x in row) for row in a)
            assert det(rational) == reference.det(rational), (kind, rational)
            kinds.setdefault(kind, set()).add(expected != 0)
        assert kinds["swap"] == {True}
        assert kinds["zero leading entry"] == {True, False}
        assert kinds["zero first column"] == kinds["duplicated row"] == kinds["singular"] == {False}
        assert kinds["above 2**64"] == {True}
        assert det(()) == 1 and det_integer([]) == 1

    def test_each_caller_runs_one_elimination_pass(self, monkeypatch):
        passes = []

        def counted(work):
            passes.append(len(work))
            return bareiss(work)

        def counted_inverse(d, rows, n):
            passes.append(n)
            return definite_inverse(d, rows, n)

        for module in (linalg, lattice):
            monkeypatch.setattr(module, "_bareiss", counted)
        # the metric checks definiteness in the elimination that inverts it
        monkeypatch.setattr(connections, "_definite_inverse", counted_inverse)
        a = ((0, 2, 1), (3, 0, 0), (0, 0, 5))
        for run in (lambda: det(matrix(a)), lambda: det_integer(a),
                    lambda: InnerProduct(matrix([[2, 1, 0], [1, 2, 1], [0, 1, 2]]))):
            passes.clear()
            run()
            assert passes == [3]


def test_signature_on_diagonal_forms():
    assert symmetric_signature(matrix([[2, 0], [0, -3]])) == (1, 1, 0)
    assert symmetric_signature(matrix([[0, 0], [0, 0]])) == (0, 0, 2)
    assert symmetric_signature(identity_matrix(3)) == (3, 0, 0)


def test_signature_is_congruence_invariant():
    rng = random.Random(600)
    base = matrix([[1, 0, 0], [0, -1, 0], [0, 0, 0]])
    for _ in range(20):
        p = matrix(random_matrix(rng, 3, 3, span=3))
        if det(p) == 0:
            continue
        transported = mat_mul(mat_mul([list(r) for r in zip(*p)], base), p)
        assert symmetric_signature(transported) == (1, 1, 1)


def test_signature_off_diagonal_hyperbolic_plane():
    # x*y has one positive and one negative direction
    assert symmetric_signature(matrix([[0, 1], [1, 0]])) == (1, 1, 0)


def test_signature_matches_the_dense_congruence():
    rng = random.Random(6006)
    cases = [(), ((F(0),),), ((F(-5, 3),),), matrix([[0, 1, 0], [1, 0, 2], [0, 2, 0]])]
    cases += [random_symmetric(rng, rng.randint(1, 7)) for _ in range(160)]
    seen = set()
    for a in cases:
        expected = reference.signature(a)
        assert symmetric_signature(a) == expected
        pos, neg, zero = expected
        seen.add((pos > 0 and neg > 0, zero > 0))
    assert seen == {(False, False), (False, True), (True, False), (True, True)}


def test_signature_rejects_non_square_and_non_symmetric_input():
    with pytest.raises(ValueError, match="non-square"):
        symmetric_signature(matrix([[1, 0, 0], [0, 1, 0]]))
    for a in ([[1, 2], [3, 1]], [[0, 1], [0, 0]], [[0, 0], [1, 0]]):
        with pytest.raises(ValueError, match="non-symmetric"):
            symmetric_signature(matrix(a))


class TestSubspace:
    def test_basis_is_canonical_across_generating_sets(self):
        rng = random.Random(31337)
        for _ in range(40):
            n = rng.randint(1, 5)
            gens = matrix(random_matrix(rng, rng.randint(1, 4), n, span=3))
            s = Subspace.from_vectors(gens, n)
            # closure under taking random combinations of the generators
            combos = []
            for _ in range(len(gens) + 1):
                coeffs = [rng.randint(-3, 3) for _ in gens]
                combos.append(
                    tuple(
                        sum(c * g[k] for c, g in zip(coeffs, gens)) for k in range(n)
                    )
                )
            t = Subspace.from_vectors(matrix(combos), n)
            assert t.dim <= s.dim
            assert s.contains_subspace(t)
            if t.dim == s.dim:
                assert s == t

    def test_contains_and_coordinates(self):
        s = Subspace.from_vectors(matrix([[1, 0, 1], [0, 1, 1]]), 3)
        v = vector([2, 3, 5])
        assert s.contains(v)
        coords = s.coordinates_of(v)
        rebuilt = [
            sum(c * row[k] for c, row in zip(coords, s.basis)) for k in range(3)
        ]
        assert tuple(rebuilt) == v
        assert not s.contains(vector([1, 0, 0]))
        assert s.coordinates_of(vector([1, 0, 0])) is None

    def test_zero_and_full(self):
        z = Subspace.zero(4)
        f = Subspace.full(4)
        assert z.is_zero() and z.dim == 0
        assert f.is_full() and f.dim == 4
        assert f.contains_subspace(z)

    def test_sum_and_intersection_dimension_formula(self):
        rng = random.Random(555)
        for _ in range(40):
            n = rng.randint(2, 5)
            a = Subspace.from_vectors(matrix(random_matrix(rng, rng.randint(1, 3), n, 2)), n)
            b = Subspace.from_vectors(matrix(random_matrix(rng, rng.randint(1, 3), n, 2)), n)
            total = a.add(b)
            meet = a.intersect(b)
            assert total.dim + meet.dim == a.dim + b.dim
            for row in meet.basis:
                assert a.contains(row) and b.contains(row)
            for row in a.basis:
                assert total.contains(row)

    def test_constraint_matrix_cuts_out_the_subspace(self):
        s = Subspace.from_vectors(matrix([[1, 2, 0], [0, 0, 1]]), 3)
        constraints = s.constraint_matrix()
        assert len(constraints) == 1
        recovered = Subspace.from_vectors(kernel(constraints), 3)
        assert recovered == s

    def test_orthogonal_complement_identity_metric(self):
        s = Subspace.from_vectors(matrix([[1, 1, 0]]), 3)
        comp = s.orthogonal_complement(identity_matrix(3))
        assert comp.dim == 2
        for row in comp.basis:
            assert sum(a * b for a, b in zip(row, (1, 1, 0))) == 0
        assert s.intersect(comp).is_zero()

    def test_orthogonal_complement_general_metric(self):
        gram = matrix([[2, 1, 0], [1, 2, 0], [0, 0, 1]])
        s = Subspace.from_vectors(matrix([[1, 0, 0]]), 3)
        comp = s.orthogonal_complement(gram)
        assert comp.dim == 2
        for row in comp.basis:
            assert sum(row[i] * gram[i][0] for i in range(3)) == 0

    def test_rejects_wrong_length_vectors(self):
        with pytest.raises(ValueError):
            Subspace.from_vectors(matrix([[1, 0]]), 3)


class TestEarlyStop:
    def test_rref_matches_the_copy_that_eliminates_every_pending_row(self):
        rng = random.Random(9091)
        ranks = {True: set(), False: set()}
        for deficient in (False, True) * 60:
            rows = tall_rows(rng, deficient)
            echelon, pivots = rref(rows)
            assert (echelon, pivots) == reference.rref(rows)
            ranks[deficient].add(len(pivots) == len(rows[0]))
        assert ranks == {False: {True}, True: {False}}
        for rows in (random_rational_rows(rng) for _ in range(100)):
            assert rref(rows) == reference.rref(rows)

    def test_rows_pending_at_full_column_rank_are_not_eliminated(self, monkeypatch):
        calls = []

        def counting(row, pivot_row, c):
            calls.append(c)
            return _eliminate(row, pivot_row, c)

        monkeypatch.setattr(linalg, "_eliminate", counting)
        # column 0 clears rows 2 and 3; at column 1 both still pend, and stay
        assert rref([[1, 0], [0, 1], [1, 1], [2, 3]]) == (((F(1), F(0)), (F(0), F(1))), (0, 1))
        assert calls == [0, 0]


class TestIntegerElimination:
    def test_rref_matches_fraction_gauss_jordan(self):
        rng = random.Random(2718)
        cases = [[], [[]], [[], []], [[0, 0], [0, 0]], [[F(-3), F(6)], [F(1), F(-2)]]]
        cases += [random_rational_rows(rng) for _ in range(150)]
        deficient = 0
        for rows in cases:
            expected = reference.rref(rows)
            echelon, pivots = rref(rows)
            assert (echelon, pivots) == expected
            assert all(type(x) is Fraction for row in echelon for x in row)
            deficient += len(pivots) < len(rows)
        assert deficient > 40

    def test_rref_keeps_huge_entries_exact(self):
        big = F(2**100 + 1, 3**50)
        rows = [[big, F(1, 2**70)], [F(-(2**65)), F(7)]]
        assert rref(rows) == reference.rref(rows)
        assert rref([[big, -big]]) == (((F(1), F(-1)),), (0,))

    def test_kernel_annihilates_and_has_complementary_dimension(self):
        rng = random.Random(2719)
        for _ in range(100):
            rows = random_rational_rows(rng)
            if not rows or not rows[0]:
                continue
            m = tuple(tuple(F(x) for x in row) for row in rows)
            ncols = len(m[0])
            null = kernel(m)
            for v in null:
                assert mat_vec(m, v) == (F(0),) * len(m)
            assert rank(m) + len(null) == ncols
            assert len(reference.rref(null)[0]) == len(null)

    def test_inverse_is_a_two_sided_inverse_and_singular_raises(self):
        rng = random.Random(2721)
        singular = 0
        for _ in range(60):
            n = rng.randint(1, 5)
            a = tuple(tuple(F(x) for x in row) for row in random_rational_rows(rng)[:n])
            a = tuple(row[:n] + (F(0),) * (n - len(row)) for row in a)
            a += tuple(tuple(F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n))
                       for _ in range(n - len(a)))
            if det(a) == 0:
                singular += 1
                with pytest.raises(ValueError, match="singular"):
                    inverse(a)
                continue
            inv = inverse(a)
            assert mat_mul(a, inv) == identity_matrix(n)
            assert mat_mul(inv, a) == identity_matrix(n)
        assert singular > 5
        with pytest.raises(ValueError, match="singular"):
            inverse(matrix([[1, 2], [2, 4]]))


class TestIntegerEchelon:
    def test_echelon_and_subspace_rows_match_the_fraction_rref(self):
        rng = random.Random(1931)
        cases = [random_rational_rows(rng) for _ in range(120)]
        cases += [tall_rows(rng, True) for _ in range(60)]
        cases += [[[rng.randint(-4, 4) for _ in range(5)] for _ in range(rng.randint(1, 7))]
                  for _ in range(40)]
        deficient = 0
        for rows in cases:
            expected, expected_pivots = reference.rref(rows)
            reduced, pivots = _echelon(rows)
            assert pivots == expected_pivots
            for row, c, fraction_row in zip(reduced, pivots, expected, strict=True):
                assert all(type(x) is int for x in row)
                assert row[c] > 0 and math.gcd(*row) == 1
                assert tuple(F(x, row[c]) for x in row) == fraction_row
            deficient += len(pivots) < len(rows)
            if not rows or not rows[0]:
                continue
            n = len(rows[0])
            s = Subspace.from_vectors(rows, n)
            assert s.rows == tuple(map(tuple, reduced)) and s.pivots == pivots
            assert "basis" not in vars(s)
            assert s.basis == expected and rref(rows) == (expected, expected_pivots)
            null = Subspace.kernel_of(rows, n)
            assert null.basis == kernel(rows) == reference.kernel(rows, n)
            assert null.rows == tuple(map(tuple, _echelon(null.basis)[0]))
        assert deficient > 80

    def test_empty_and_zero_rows_have_the_full_kernel(self):
        for n in range(5):
            for rows in ([], [[0] * n], [[F(0)] * n] * 2):
                assert Subspace.kernel_of(rows, n) == Subspace.full(n)
                assert kernel(rows, n) == reference.kernel(rows, n) == identity_matrix(n)
        assert Subspace.full(3).rows == ((1, 0, 0), (0, 1, 0), (0, 0, 1))

    def test_kernel_of_checks_the_row_length(self):
        with pytest.raises(ValueError, match="vector length does not match ambient dimension"):
            Subspace.kernel_of([(1, 2)], 3)


def non_canonical_bases():
    """Row sets of R^3 that are not the canonical integer echelon rows (or have
    a row of the wrong length), with the message Subspace raises for each."""
    canonical = "not in canonical reduced echelon form"
    return {
        "pivot not 1": (((2, 0, 0),), canonical),  # the primitive row of (1, 0, 0) is itself
        "non-primitive row": (((2, 0, 4),), canonical),
        "negative pivot": (((0, -1, 0),), canonical),
        "entry above a pivot": (((1, 1, 0), (0, 1, 0)), canonical),
        "entry below a pivot": (((1, 0, 0), (1, 1, 0)), canonical),
        "zero row": (((1, 0, 0), (0, 0, 0)), canonical),
        "descending pivots": (((0, 1, 0), (1, 0, 0)), canonical),
        "repeated row": (((1, 0, 0), (1, 0, 0)), canonical),
        "list of rows": ([(1, 0, 0)], canonical),
        "row as a list": (([1, 0, 0],), canonical),
        "Fraction entry": (((F(1), 0, 0),), canonical),
        "Fraction rref row": (((F(1), F(0), F(1, 2)),), canonical),
        "bool entry": (((True, 0, 0),), canonical),
        "wrong row length": (((1, 0),), "row length does not match ambient dimension"),
    }


class TestSubspaceCanonicalForm:
    @pytest.mark.parametrize("name", sorted(non_canonical_bases()))
    def test_non_canonical_basis_is_rejected(self, name):
        basis, message = non_canonical_bases()[name]
        with pytest.raises(ValueError, match=message):
            Subspace(3, basis)

    @pytest.mark.parametrize("n", [-1, 2.0, True], ids=["negative", "float", "bool"])
    def test_ambient_dimension_must_be_a_non_negative_int(self, n):
        builds = [
            lambda: Subspace(n, ()),
            lambda: Subspace.from_vectors([], n),
            lambda: Subspace.kernel_of([], n),
            lambda: Subspace.zero(n),
            lambda: Subspace.full(n),
        ]
        for build in builds:
            with pytest.raises(ValueError, match="ambient dimension must be a non-negative integer"):
                build()

    def test_canonical_integer_rows_are_accepted(self):
        s = Subspace(3, ((2, 0, 1), (0, 1, -3)))
        assert s.pivots == (0, 1)
        assert s.basis == ((F(1), F(0), F(1, 2)), (F(0), F(1), F(-3)))
        assert s == Subspace.from_vectors([(4, 0, 2), (2, 1, -2)], 3)

    def test_rref_output_is_accepted_with_its_pivots(self):
        rng = random.Random(2722)
        for n in range(5):
            assert Subspace.full(n).pivots == tuple(range(n))
            assert Subspace.zero(n).pivots == ()
        for _ in range(60):
            n = rng.randint(1, 6)
            rows = [[F(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(n)]
                    for _ in range(rng.randint(0, 5))]
            s = Subspace.from_vectors(rows, n)
            echelon, pivots = rref(rows)
            assert s.basis == echelon and s.pivots == pivots
            assert Subspace(n, s.rows) == s

    def test_from_vectors_still_coerces_and_rejects_floats(self):
        assert Subspace.from_vectors([(2, "1/2", F(3))], 3).basis == ((F(1), F(1, 4), F(3, 2)),)
        with pytest.raises(TypeError):
            Subspace.from_vectors([(F(1), 0.5)], 2)
        with pytest.raises(TypeError):
            Subspace.from_vectors([(True, F(0))], 2)


class TestResidueRestriction:
    def test_residue_views_match_the_fraction_loop(self):
        """residue, coordinates_of and contains against the Fraction loop, on the
        generator of this class: random vectors, rows of the subspace and
        rational combinations of them, given as ints, Fractions or strings."""
        rng = random.Random(2424)
        members = set()
        for _ in range(150):
            n = rng.randint(0, 6)
            s = random_subspace(rng, n, rows=(0, n + 1), num=2)
            vectors = [[F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)] for _ in range(3)]
            vectors += [list(row) for row in s.basis]
            if s.dim:
                vectors.append([sum(F(rng.randint(-3, 3), rng.randint(1, 4)) * row[k] for row in s.basis)
                                for k in range(n)])
            vectors.append([rng.randint(-2, 2) for _ in range(n)])
            for v in vectors:
                expected = reference.residue(s, v)
                for given in (v, [str(x) for x in v]):
                    assert s.residue(given) == expected
                    assert all(type(x) is F for x in s.residue(given))
                    assert s.coordinates_of(given) == reference.coordinates(s, v)
                    assert s.contains(given) == (not any(expected))
                members.add(not any(expected))
            for bad in ([0] * (n + 1), [0] * max(n - 1, 0) if n else [0]):
                for method in (s.residue, s.coordinates_of, s.contains):
                    with pytest.raises(ValueError, match="vector length"):
                        method(bad)
        assert members == {True, False}

    def test_intersect_matches_the_constraint_matrix_intersection(self):
        dims = set()
        for a, b in seeded_subspace_pairs(9090):
            meet = a.intersect(b)
            assert meet == reference.intersection(a, b)
            dims.add((meet.dim, a.dim, b.dim))
        assert len(dims) > 40

    def test_residue_is_linear_and_vanishes_exactly_on_the_span(self):
        rng = random.Random(3131)
        inside = set()
        for _ in range(80):
            n = rng.randint(1, 6)
            s = random_subspace(rng, n, rows=(0, n + 1), num=2)
            u, v = ([F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)] for _ in range(2))
            c = F(rng.randint(-3, 3), rng.randint(1, 3))
            combined = [x + c * y for x, y in zip(u, v)]
            assert s.residue(combined) == tuple(x + c * y for x, y in zip(s.residue(u), s.residue(v)))
            member = rank(s.basis + (tuple(u),)) == s.dim
            assert (not any(s.residue(u))) == member
            assert rank(s.basis + (tuple(x - y for x, y in zip(u, s.residue(u))),)) == s.dim
            assert all(not any(s.residue(row)) for row in s.basis)
            inside.add(member)
        assert inside == {True, False}

    def test_restrict_keeps_the_combinations_whose_values_cancel(self):
        rng = random.Random(4242)
        drops = set()
        for _ in range(80):
            n = rng.randint(1, 6)
            s = random_subspace(rng, n, rows=(0, n + 1), num=2)
            m = rng.randint(0, 4)
            values = [[F(rng.choice((-1, 0, 0, 1, 2))) for _ in range(m)] for _ in s.basis]
            r = s.restrict(values)
            assert s.contains_subspace(r)
            assert r.dim == s.dim - rank(values)
            for row in r.basis:
                coords = s.coordinates_of(row)
                assert all(sum(c * value[k] for c, value in zip(coords, values)) == 0 for k in range(m))
            drops.add(s.dim - r.dim)
        assert {0, 1, 2} <= drops

    def test_restrict_by_zero_values_returns_the_same_subspace(self):
        s = Subspace.from_vectors(matrix([[1, 2, 0], [0, 0, 1]]), 3)
        assert s.restrict([(F(0), F(0)), (F(0), F(0))]) is s
        assert s.restrict([(), ()]) is s

    def test_restrict_needs_one_value_per_basis_row(self):
        s = Subspace.from_vectors(matrix([[1, 2, 0], [0, 0, 1]]), 3)
        with pytest.raises(ValueError, match="one value per basis row"):
            s.restrict([(F(1),)])

    def test_restrict_rejects_values_of_different_lengths(self):
        # zipping the values would drop the condition that the shorter row lacks
        for values in ([[1, 0], [0]], [[1], [0, 5]]):
            with pytest.raises(ValueError, match="same length"):
                Subspace.full(2).restrict(values)


class TestDescendingChain:
    def test_a_fixed_start_is_the_whole_chain(self):
        start = Subspace.from_vectors(matrix([[1, 2, 0]]), 3)
        calls = []

        def step(s):
            calls.append(s)
            return Subspace.from_vectors(s.basis, 3)

        assert _descending_chain(start, step) == (start,)
        assert calls == [start]

    def test_stops_at_the_first_fixed_term(self):
        calls = []

        def drop_last_row(s):
            calls.append(s.dim)
            return Subspace(3, s.rows[:-1]) if s.dim > 1 else s

        chain = _descending_chain(Subspace.full(3), drop_last_row)
        assert [s.dim for s in chain] == [3, 2, 1]
        assert chain[-1] == Subspace.from_vectors(matrix([[1, 0, 0]]), 3)
        assert calls == [3, 2, 1]
