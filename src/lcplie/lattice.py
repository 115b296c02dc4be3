"""Integer matrix normal forms and an invariant-splitting fixed-point test
with an explicit non-density certificate in the degenerate case.

All computations are over Python ints and Fractions; nothing here rounds.
"""
from __future__ import annotations

from fractions import Fraction
from math import prod
from operator import mul
from typing import Sequence

from .linalg import (
    Subspace,
    _Record,
    _bareiss,
    _dense_row,
    _lift,
    mat_vec,
)

IntMatrix = tuple[tuple[int, ...], ...]


def _check_int_matrix(rows: Sequence[Sequence[int]]) -> IntMatrix:
    out = []
    for row in rows:
        for x in row:
            if isinstance(x, bool) or not isinstance(x, int):
                raise ValueError(f"matrix entries must be integers, got {x!r}")
        out.append(tuple(row))
    if not out:
        raise ValueError("matrix must be nonempty")
    width = len(out[0])
    if any(len(row) != width for row in out):
        raise ValueError("ragged matrix")
    if width != len(out):
        raise ValueError("matrix must be square")
    return tuple(out)


class IntegerEndomorphism(_Record):
    matrix: IntMatrix

    def __post_init__(self) -> None:
        object.__setattr__(self, "matrix", _check_int_matrix(self.matrix))

    @property
    def size(self) -> int:
        return len(self.matrix)

    def image(self, v: Sequence[int | Fraction]):
        """A v by `mat_vec`, which reads v as in `vector`: a float or bool raises TypeError."""
        return mat_vec(self.matrix, v)


def det_integer(rows: Sequence[Sequence[int]]) -> int:
    """Exact integer determinant (fraction-free Bareiss elimination); 1 for
    the 0x0 matrix."""
    work = [list(row) for row in rows]
    if any(len(row) != len(work) for row in work):
        raise ValueError("determinant of a non-square matrix")
    if work:
        _check_int_matrix(work)  # rejects entries that are not ints
    return _bareiss(work)


def smith_normal_form(a: IntegerEndomorphism) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """(U, D, V) with U a V = D diagonal, d_i | d_{i+1}, U and V unimodular.

    At step s the pivot is the first entry of least absolute value in the
    block of rows and columns s and beyond, in row-major order; the scan stops
    at an entry of absolute value 1. One work list carries the elimination:
    its row r is row s + r of that block followed by row s + r of U, so a row
    operation is one pass over both (the rows of D above s are zero in the
    block's columns). A column operation acts on the row of V^T and on the
    work rows whose entry in column s is nonzero, the only ones it changes.
    A finished step pops its row (the divisor d_s, then U's row s) and drops
    column s from the rest; D is built from the divisors. `_verify_snf`
    checks the factorization before it is returned; a failure raises.
    """
    k = a.size
    work = [[*row, *(int(i == j) for j in range(k))] for i, row in enumerate(a.matrix)]
    vt = [[int(i == j) for j in range(k)] for i in range(k)]  # V^T: column c of V is row c
    done: list[list[int]] = []
    for s in range(k):
        n = k - s  # work[r][:n] is row s + r of the block
        while True:
            best, least = None, 0
            for r, row in enumerate(work):
                for c in range(n):
                    if (x := abs(row[c])) and (best is None or x < least):
                        best, least = (r, c), x
                        if x == 1:
                            break
                if least == 1:
                    break
            if best is None:
                break  # remaining block is zero
            r0, c0 = best
            if r0:
                work[0], work[r0] = work[r0], work[0]
            if c0:
                for row in work:
                    row[0], row[c0] = row[c0], row[0]
                vt[s], vt[s + c0] = vt[s + c0], vt[s]
            top = work[0]
            if top[0] < 0:
                top = work[0] = [-x for x in top]
            p = top[0]
            dirty = False
            for r in range(1, n):
                if work[r][0]:
                    if q := work[r][0] // p:
                        work[r] = [x - q * y for x, y in zip(work[r], top)]
                    dirty = dirty or work[r][0] != 0
            live = [row for row in work if row[0]]
            for c in range(1, n):
                if top[c]:
                    if q := top[c] // p:
                        for row in live:
                            row[c] -= q * row[0]
                        vt[s + c] = [x - q * y for x, y in zip(vt[s + c], vt[s])]
                    dirty = dirty or top[c] != 0
            if dirty:
                continue  # remainders shrank the pivot candidates; rescan
            if p == 1:
                break  # 1 divides every entry
            offender = next((row for row in work[1:] if any(x % p for x in row[1:n])), None)
            if offender is None:
                break
            # pull the non-divisible row up so the next pivot divides everything
            work[0] = [x + y for x, y in zip(top, offender)]
        if best is None:
            break
        done.append(work.pop(0))
        for row in work:
            del row[0]

    uu = tuple(tuple(row[-k:]) for row in done + work)  # work: the rows of a zero block
    divisors = [row[0] for row in done] + [0] * len(work)
    dd = tuple(tuple(x if i == j else 0 for j in range(k)) for i, x in enumerate(divisors))
    vv = tuple(zip(*vt))
    _verify_snf(a.matrix, uu, dd, vv)
    return uu, dd, vv


def _verify_snf(a: IntMatrix, u: IntMatrix, d: IntMatrix, v: IntMatrix) -> None:
    """Raise unless U a V = D entry by entry, D is diagonal and non-negative
    with d_i | d_{i+1}, and U and V are unimodular.

    For det a != 0 the last part needs no elimination on U and V, whose
    entries grow far past those of a: U a V = D gives
    det U * det a * det V = prod d_i, so prod d_i = |det a| != 0 forces the
    integers det U and det V to be +-1. A singular a leaves U and V to Bareiss.
    """
    k = len(a)
    vt = list(zip(*v))
    av = [[sum(map(mul, row, col)) for col in vt] for row in a]
    avt = list(zip(*av))
    uav = [[sum(map(mul, row, col)) for col in avt] for row in u]
    ok = all(
        uav[r][c] == (d[r][c] if r == c else 0) and (r == c or d[r][c] == 0)
        for r in range(k)
        for c in range(k)
    )
    diag = [d[i][i] for i in range(k)]
    for i in range(k - 1):
        if diag[i] == 0 and diag[i + 1] != 0:
            ok = False
        if diag[i] != 0 and diag[i + 1] % diag[i] != 0:
            ok = False
    ok = ok and all(x >= 0 for x in diag)
    if ok and (det_a := _bareiss(list(map(list, a)))):
        ok = prod(diag) == abs(det_a)
    else:
        ok = ok and all(abs(_bareiss(list(map(list, m)))) == 1 for m in (u, v))
    if not ok:
        raise RuntimeError("normal form self-check failed")


def elementary_divisors(a: IntegerEndomorphism) -> tuple[int, ...]:
    _, d, _ = smith_normal_form(a)
    return tuple(d[i][i] for i in range(a.size))


def _triangular_form(a: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """(H, V) with A V = H lower triangular, by integer column operations alone.

    One work list carries the elimination: its row c is column c of A V
    followed by column c of V, and V starts as I. For each row r of A in
    turn, the work rows from s on that are nonzero in entry r are reduced by
    the one of least absolute value until it alone is left; it moves to row s,
    which is then finished. A row r with no such entry leaves s as it is, so
    the finished columns of H stand in echelon form and the others are zero.
    """
    k = len(a)
    work = [[*col, *(int(i == j) for j in range(k))] for i, col in enumerate(zip(*a))]
    s = 0
    for r in range(k):
        while len(live := [c for c in range(s, k) if work[c][r]]) > 1:
            top = work[min(live, key=lambda c: abs(work[c][r]))]
            p = top[r]
            for c in live:
                if work[c] is not top:
                    q = work[c][r] // p
                    work[c] = [x - q * y for x, y in zip(work[c], top)]
        if live:
            work[s], work[live[0]] = work[live[0]], work[s]
            s += 1
    return tuple(zip(*(row[:k] for row in work))), tuple(zip(*(row[k:] for row in work)))


def _verify_index(a: IntMatrix, h: IntMatrix, v: IntMatrix, det: int) -> None:
    """Raise unless A V = H entry by entry, H is lower triangular, and H
    certifies det = det A: for det != 0, prod |h_ii| = |det|; for det = 0,
    a nonzero column of V whose column of H is zero, an integer x != 0 with
    A x = 0.

    For det != 0, det A * det V = det H = prod h_ii then forces the integer
    det V to be +-1, so A Z^k = H Z^k and the index is prod |h_ii| = |det A|.
    """
    k = len(a)
    vt = list(zip(*v))
    ok = all(
        sum(map(mul, row, col)) == h[r][c] for r, row in enumerate(a) for c, col in enumerate(vt)
    )
    ok = ok and not any(h[r][c] for r in range(k) for c in range(r + 1, k))
    if det:
        ok = ok and prod(abs(h[i][i]) for i in range(k)) == abs(det)
    else:
        ok = ok and any(any(x) and not any(y) for x, y in zip(vt, zip(*h)))
    if not ok:
        raise RuntimeError(
            "index cross-check failed: the triangular form does not certify the determinant"
        )


def lattice_index(a: IntegerEndomorphism) -> int | None:
    """Index of the image lattice a(Z^k) in Z^k; None when a is singular.

    Computed as |det a|, by one Bareiss elimination, and certified by a
    triangular form A V = H from integer column operations (`_triangular_form`)
    that `_verify_index` checks against it: prod |h_ii| = |det a| makes V
    unimodular, so the index is prod |h_ii|; for det a = 0 a column of V is an
    integer kernel vector of a.
    """
    d = _bareiss(list(map(list, a.matrix)))
    h, v = _triangular_form(a.matrix)
    _verify_index(a.matrix, h, v, d)
    return abs(d) or None


class SplitDecomposition(_Record):
    """A direct-sum splitting of the ambient rational space."""

    e1: Subspace
    e2: Subspace

    def __post_init__(self) -> None:
        if self.e1.ambient_dim != self.e2.ambient_dim:
            raise ValueError("the two summands live in different ambient dimensions")
        if self.e1.dim + self.e2.dim != self.e1.ambient_dim:
            raise ValueError("summand dimensions do not fill the ambient space")
        if not self.e1.intersect(self.e2).is_zero():
            raise ValueError("summands overlap; not a direct sum")


class NonDensityWitness(_Record):
    """Integer vector x with A^T x = x, gcd of entries 1, plus the hyperplane
    x-perp intersected with the second summand. Projections of lattice points
    onto the second summand land in hyperplane + Z * projection(x / |x|^2)."""

    vector: tuple[int, ...]
    hyperplane: Subspace


class SplittingVerdict(_Record):
    integral: bool
    e1_invariant: bool
    e2_invariant: bool
    restriction_invertible: bool
    det_minus_identity: int
    index: int | None
    witness: NonDensityWitness | None

    @property
    def hypotheses_ok(self) -> bool:
        return self.integral and self.e1_invariant and self.e2_invariant and self.restriction_invertible

    @property
    def conclusion_holds(self) -> bool:
        return self.index is not None


def _integer_fixed_covector(shift: IntMatrix) -> tuple[int, ...]:
    """First canonical kernel vector of shift^T = A^T - I, as a primitive integer row."""
    fixed = Subspace.kernel_of(tuple(zip(*shift)), len(shift))
    if fixed.is_zero():
        raise RuntimeError("no fixed covector although the determinant vanishes")
    return fixed.rows[0]


def check_splitting(a: IntegerEndomorphism, split: SplitDecomposition) -> SplittingVerdict:
    """Fixed-point test of an integer map against an invariant splitting.

    When the splitting is invariant and the map minus the identity is
    invertible on the first summand, a nonzero determinant of (A - I) gives
    the finite index |det(A - I)|; a zero determinant instead produces an
    integer fixed covector of the transpose, certifying that projections of
    lattice points onto the second summand stay inside countably many
    translates of a proper hyperplane. Density is never claimed; only its
    failure is ever certified.
    """
    k = a.size
    if split.e1.ambient_dim != k:
        raise ValueError("splitting dimension does not match the matrix")

    # A - I restricted to each summand, which is A-invariant exactly when it is (A - I)-invariant
    shift = tuple(
        tuple(x - 1 if r == c else x for c, x in enumerate(row)) for r, row in enumerate(a.matrix)
    )
    _, (rows,) = _lift((shift,))
    on_e1, on_e2 = (e._restriction((rows,))[1] for e in (split.e1, split.e2))
    e1_invariant, e2_invariant = on_e1 is not None, on_e2 is not None
    restriction_invertible = e1_invariant
    if e1_invariant:  # B_1 (A - I)|E1 on ints
        nonzero, dim = dict(next(on_e1)), split.e1.dim
        work = [_dense_row(nonzero.get(t, ()), dim) for t in range(dim)]
        restriction_invertible = _bareiss(work) != 0
    dmi = _bareiss(list(map(list, shift)))

    index: int | None = None
    witness: NonDensityWitness | None = None
    if dmi != 0:
        if e1_invariant and e2_invariant and restriction_invertible:
            index = abs(dmi)
    else:
        x = _integer_fixed_covector(shift)
        at_x = tuple(
            sum(a.matrix[r][c] * x[r] for r in range(k)) for c in range(k)
        )
        if at_x != x:
            raise RuntimeError("fixed covector self-check failed")
        perp = Subspace.kernel_of((x,), k)
        witness = NonDensityWitness(x, perp.intersect(split.e2))
    return SplittingVerdict(
        integral=True,
        e1_invariant=e1_invariant,
        e2_invariant=e2_invariant,
        restriction_invertible=restriction_invertible,
        det_minus_identity=dmi,
        index=index,
        witness=witness,
    )
