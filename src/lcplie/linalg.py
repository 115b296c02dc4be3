"""Exact linear algebra over the rationals.

Vectors and matrices are immutable tuples with Fraction entries; every
routine here is pure and exact. Floating point never enters this module.
"""
from __future__ import annotations

import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm, prod
from typing import Callable, Iterable, Iterator, Sequence

Scalar = Fraction
Vector = tuple[Fraction, ...]
Matrix = tuple[Vector, ...]

ZERO = Fraction(0)
ONE = Fraction(1)

# ASCII digits only, matched in full: "\d" admits other scripts and "$" a final newline.
_RATIONAL_RE = re.compile(r"-?[0-9]+(/[0-9]+)?")


def as_fraction(value: int | str | Fraction) -> Fraction:
    """Coerce an int, Fraction or decimal-free 'p/q' or 'p' string to an exact
    Fraction.

    Floats are rejected: exactness is a module invariant. Strings outside the
    grammar, a zero denominator and a part past Python's int-string digit
    limit raise ValueError.
    """
    if isinstance(value, bool):
        raise TypeError("booleans are not rational scalars")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, str):
        if not _RATIONAL_RE.fullmatch(value):
            raise ValueError(f"not a decimal-free rational string: {value!r}")
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
        except ValueError:  # beyond Python's limit on digits in an int conversion
            raise ValueError(
                f"rational has more than {sys.get_int_max_str_digits()} digits in a part"
            ) from None
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def vector(values: Iterable[int | str | Fraction]) -> Vector:
    return tuple(as_fraction(v) for v in values)


def _exact(row: Iterable[int | str | Fraction]) -> Vector:
    """row as a tuple: rows of Fractions pass through, other rows go through
    `vector`, so ints are accepted and floats and bools raise TypeError."""
    row = tuple(row)
    return row if all(type(x) is Fraction for x in row) else vector(row)


def matrix(rows: Iterable[Iterable[int | str | Fraction]]) -> Matrix:
    out = tuple(vector(row) for row in rows)
    if out and any(len(row) != len(out[0]) for row in out):
        raise ValueError("ragged matrix")
    return out


def zero_vector(n: int) -> Vector:
    return (ZERO,) * n


def identity_matrix(n: int) -> Matrix:
    return tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n))


def is_zero_vector(v: Sequence[Fraction]) -> bool:
    return all(x == 0 for x in v)


def vec_scale(c: Fraction, v: Sequence[Fraction]) -> Vector:
    return tuple(c * x for x in v)


def dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    """Exact inner product of coordinate sequences; zero factors are skipped."""
    return sum((a * b for a, b in zip(u, v, strict=True) if a and b), ZERO)


def transpose(m: Matrix) -> Matrix:
    return tuple(zip(*m)) if m else ()


def mat_vec(m: Matrix, v: Sequence[Fraction]) -> Vector:
    return tuple(dot(row, v) for row in m)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """Exact product; each nonzero entry of a meets only the nonzero entries of b."""
    ncols = len(b[0]) if b else 0
    sparse_rows = [tuple((c, y) for c, y in enumerate(row) if y) for row in b]
    out = []
    for row in a:
        acc = [ZERO] * ncols
        for x, terms in zip(row, sparse_rows, strict=True):
            if x:
                for c, y in terms:
                    acc[c] += x * y
        out.append(tuple(acc))
    return tuple(out)


def mat_combination(coeffs: Sequence[Fraction], mats: Sequence[Matrix], size: int) -> Matrix:
    """The size x size matrix sum of coeffs[i] * mats[i]; zero terms and zero
    entries are skipped."""
    out = tuple(zero_vector(size) for _ in range(size))
    for c, m in zip(coeffs, mats, strict=True):
        if c != 0:
            out = tuple(
                tuple(x + c * y if y else x for x, y in zip(r, s)) for r, s in zip(out, m)
            )
    return out


def pairs(n: int) -> Iterator[tuple[int, int]]:
    """Ordered index pairs (i, j) with i < j, lexicographic."""
    for i in range(n):
        for j in range(i + 1, n):
            yield (i, j)


def pair_index(i: int, j: int, n: int) -> int:
    """Position of (i, j), i < j, in the lexicographic pair enumeration."""
    if not 0 <= i < j < n:
        raise ValueError(f"need 0 <= i < j < n, got ({i}, {j}) with n={n}")
    return i * n - i * (i + 1) // 2 + (j - i - 1)


def _primitive(row: list[int]) -> list[int]:
    """row divided by the gcd of its entries."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _integer_row(row: Sequence[Fraction]) -> list[int]:
    """The primitive integer multiple of a rational row."""
    scale = lcm(*(x.denominator for x in row))
    return _primitive([x.numerator * (scale // x.denominator) for x in row])


def _eliminate(row: list[int], pivot_row: list[int], c: int) -> list[int]:
    """row with column c cleared by an integer multiple of pivot_row, made primitive."""
    p, f = pivot_row[c], row[c]
    return _primitive([p * x - f * y if y else p * x for x, y in zip(row, pivot_row)])


def rref(rows: Iterable[Sequence[Fraction]]) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form.

    Returns (nonzero rows, pivot columns). The output is the canonical
    representative of the row space: two inputs span the same subspace
    iff their rref outputs are identical tuples.

    Gauss-Jordan elimination runs on Python ints: each row is scaled by the
    lcm of its denominators and kept primitive (its content divided out) after
    every update. Fractions are built only for the final pivot rows, divided
    by their pivots. Rows are read through `_exact`.
    """
    pending = [row for row in map(_integer_row, map(_exact, rows)) if any(row)]
    ncols = len(pending[0]) if pending else 0
    reduced: list[list[int]] = []
    pivots: list[int] = []
    for c in range(ncols):
        k = next((k for k, row in enumerate(pending) if row[c]), None)
        if k is None:
            continue
        pivot_row = pending.pop(k)
        reduced = [_eliminate(row, pivot_row, c) if row[c] else row for row in reduced]
        pending = [
            row
            for row in (_eliminate(row, pivot_row, c) if row[c] else row for row in pending)
            if any(row)
        ]
        reduced.append(pivot_row)
        pivots.append(c)
        if not pending:
            break
    out = []
    for row, c in zip(reduced, pivots):
        p = row[c]
        out.append(tuple(ZERO if not x else ONE if x == p else Fraction(x, p) for x in row))
    return tuple(out), tuple(pivots)


def rank(m: Iterable[Sequence[Fraction]]) -> int:
    return len(rref(m)[0])


def kernel(m: Matrix, ncols: int | None = None) -> Matrix:
    """Canonical (rref) basis of the right null space {x : m x = 0}."""
    if not m:
        if ncols is None:
            raise ValueError("kernel of an empty matrix needs an explicit width")
        return identity_matrix(ncols)
    ncols = len(m[0])
    reduced, pivots = rref(m)
    pivot_set = set(pivots)
    free_cols = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for f in free_cols:
        v = [ZERO] * ncols
        v[f] = ONE
        for r, p in enumerate(pivots):
            v[p] = -reduced[r][f]
        basis.append(v)
    return rref(basis)[0]


def solve(a: Matrix, b: Sequence[Fraction]) -> Vector | None:
    """A particular solution of a x = b (free variables set to 0), or None."""
    if not a:
        return None if not is_zero_vector(b) else ()
    ncols = len(a[0])
    augmented = [list(row) + [bi] for row, bi in zip(a, b, strict=True)]
    reduced, pivots = rref(augmented)
    x = [ZERO] * ncols
    for row, p in zip(reduced, pivots):
        if p == ncols:
            return None  # pivot in the constant column: inconsistent
        x[p] = row[ncols]
    return tuple(x)


def inverse(a: Matrix) -> Matrix:
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("inverse of a non-square matrix")
    augmented = [list(row) + list(ident) for row, ident in zip(a, identity_matrix(n))]
    reduced, pivots = rref(augmented)
    if tuple(pivots) != tuple(range(n)):
        raise ValueError("matrix is singular")
    return tuple(tuple(row[n:]) for row in reduced)


def _bareiss(work: list[list[int]]) -> Iterator[int]:
    """Fraction-free (Bareiss) elimination of a square integer matrix, in place.

    Yields each step's diagonal entry before it is used as the pivot, so up to
    the first zero the values are the leading principal minors. A zero pivot
    is replaced by the first lower row that is nonzero in its column, negated
    so that the determinant is kept; when there is none the elimination stops.
    The last value yielded is the determinant. Every division is exact.
    """
    n = len(work)
    previous = 1
    for k in range(n):
        pivot = work[k][k]
        yield pivot
        if not pivot:
            swap = next((i for i in range(k + 1, n) if work[i][k]), None)
            if swap is None:
                return
            work[k], work[swap] = [-x for x in work[swap]], work[k]
            pivot = work[k][k]
        pivot_row = work[k]
        for i in range(k + 1, n):
            row = work[i]
            f = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * pivot - f * pivot_row[j]) // previous
        previous = pivot


def det(a: Matrix) -> Fraction:
    """Exact determinant: each row is scaled to integers by the lcm of its
    denominators, and one Bareiss pass runs on the scaled rows. Float and
    bool entries raise TypeError, as in as_fraction."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("determinant of a non-square matrix")
    rows = matrix(a)
    scales = [lcm(*(x.denominator for x in row)) for row in rows]
    work = [[x.numerator * (s // x.denominator) for x in row] for row, s in zip(rows, scales)]
    determinant = 1  # of the 0x0 matrix
    for determinant in _bareiss(work):
        pass
    return Fraction(determinant, prod(scales))


def symmetric_signature(a: Matrix) -> tuple[int, int, int]:
    """Signature (positive, negative, zero) of a symmetric rational matrix.

    Exact congruence diagonalization on the nonzero entries alone; no
    eigenvalues are computed. Each step splits off a pivot block B, a nonzero
    diagonal entry or, when every diagonal entry is zero, the hyperbolic plane
    of a nonzero a[s][t], counts its signs, and replaces the rest of the form
    by its Schur complement a[u][w] - sum over p, q of a[u][p] B^-1[p][q] a[q][w].
    Indices whose row becomes zero count as zero.
    """
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("signature of a non-square matrix")
    # row i of the remaining form as {column: nonzero entry}; zero rows are dropped
    work = {i: r for i, row in enumerate(a) if (r := {j: x for j, x in enumerate(row) if x})}
    if any(work.get(j, {}).get(i) != x for i, row in work.items() for j, x in row.items()):
        raise ValueError("signature of a non-symmetric matrix")
    pos = neg = 0
    while work:
        s = next((s for s, row in work.items() if s in row), None)
        if s is not None:
            d = work[s][s]
            block = ((s, s, ONE / d),)
            if d > 0:
                pos += 1
            else:
                neg += 1
        else:
            # [[0, b], [b, 0]] has one positive and one negative direction and
            # inverse [[0, 1/b], [1/b, 0]]
            s = next(iter(work))
            t = next(iter(work[s]))
            f = ONE / work[s][t]
            block = ((s, t, f), (t, s, f))
            pos += 1
            neg += 1
        rows = {p: work.pop(p) for p, _, _ in block}
        for row in rows.values():
            for p in rows:
                row.pop(p, None)
        for p, row in rows.items():
            for u in row:
                del work[u][p]
        for p, q, f in block:
            for u, x in rows[p].items():
                target = work[u]
                for w, y in rows[q].items():
                    value = target.get(w, ZERO) - x * f * y
                    if value:
                        target[w] = value
                    else:
                        target.pop(w, None)
        work = {u: row for u, row in work.items() if row}
    return pos, neg, n - pos - neg


def _reduced_echelon_pivots(rows: Matrix) -> tuple[int, ...] | None:
    """Pivot columns of rows if they are the canonical reduced echelon form
    that rref returns, else None: a tuple of tuples without zero rows, each
    leading with 1, leading columns strictly increasing, and every pivot column
    zero outside its own row. Rows must have equal lengths."""
    if not isinstance(rows, tuple):
        return None
    pivots: list[int] = []
    for row in rows:
        if not isinstance(row, tuple):
            return None
        lead = next((c for c, x in enumerate(row) if x), None)
        if lead is None or row[lead] != 1 or (pivots and lead <= pivots[-1]):
            return None
        pivots.append(lead)
    # below a pivot the column is zero already: later rows lead further right
    if any(row[p] for r, row in enumerate(rows) for p in pivots[r + 1:]):
        return None
    return tuple(pivots)


@dataclass(frozen=True)
class Subspace:
    """A rational subspace held by its canonical reduced-row-echelon basis.

    Equality of Subspace values is equality of subspaces: the rref basis is
    a unique representative of the span. `pivots` holds the pivot column of
    each basis row.
    """

    ambient_dim: int
    basis: Matrix
    pivots: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if any(len(row) != self.ambient_dim for row in self.basis):
            raise ValueError("basis row length does not match ambient dimension")
        pivots = _reduced_echelon_pivots(self.basis)
        if pivots is None:
            raise ValueError("basis rows are not in canonical reduced echelon form")
        object.__setattr__(self, "pivots", pivots)

    @classmethod
    def from_vectors(cls, vectors: Iterable[Sequence[Fraction]], ambient_dim: int) -> "Subspace":
        rows = list(vectors)
        if any(len(row) != ambient_dim for row in rows):
            raise ValueError("vector length does not match ambient dimension")
        return cls(ambient_dim, rref(rows)[0])

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, ())

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, identity_matrix(ambient_dim))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def is_zero(self) -> bool:
        return not self.basis

    def is_full(self) -> bool:
        return self.dim == self.ambient_dim

    def contains(self, v: Sequence[Fraction]) -> bool:
        return self.coordinates_of(v) is not None

    def coordinates_of(self, v: Sequence[Fraction]) -> Vector | None:
        """Coefficients of v in the canonical basis, or None if v is outside."""
        return tuple(v[p] for p in self.pivots) if is_zero_vector(self.residue(v)) else None

    def residue(self, v: Sequence[Fraction]) -> Vector:
        """v - sum over r of v[p_r] * b_r for the canonical rows b_r with pivots p_r:
        linear in v, and zero exactly when v lies in the span."""
        if len(v) != self.ambient_dim:
            raise ValueError("vector length does not match ambient dimension")
        residue = tuple(v)
        for p, row in zip(self.pivots, self.basis):
            if coeff := v[p]:
                residue = tuple(x - coeff * y if y else x for x, y in zip(residue, row))
        return residue

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(row) for row in other.basis)

    def add(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        return Subspace.from_vectors(self.basis + other.basis, self.ambient_dim)

    def intersect(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        return self.restrict([other.residue(row) for row in self.basis])

    def restrict(self, values: Sequence[Sequence[Fraction]]) -> "Subspace":
        """{sum of c_r * b_r : sum of c_r * values[r] = 0} over the canonical rows
        b_r, from one kernel, or self when every value is zero. Combined by the
        rref kernel rows c, the b_r give a canonical basis: each reads c_r at p_r.
        """
        if len(values) != self.dim:
            raise ValueError("need one value per basis row")
        if all(is_zero_vector(v) for v in values):
            return self
        columns = transpose(self.basis)
        coeffs = kernel(transpose(tuple(values)), self.dim)
        return Subspace(self.ambient_dim, tuple(mat_vec(columns, c) for c in coeffs))

    def constraint_matrix(self) -> Matrix:
        """Rows y with y . v = 0 exactly characterizing membership in the span."""
        return kernel(self.basis, self.ambient_dim)

    def orthogonal_complement(self, gram: Matrix) -> "Subspace":
        """Complement with respect to the inner product given by gram."""
        constraints = tuple(mat_vec(gram, row) for row in self.basis)
        return Subspace(self.ambient_dim, kernel(constraints, self.ambient_dim))

    def _check_ambient(self, other: "Subspace") -> None:
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("subspaces live in different ambient dimensions")


def _descending_chain(start: Subspace, step: Callable[[Subspace], Subspace]) -> tuple[Subspace, ...]:
    """(start, step(start), ...) up to the first term that step leaves unchanged.

    step must map each term into a subspace of it, so the dimensions fall
    until the chain stops.
    """
    chain = [start]
    while (nxt := step(chain[-1])) != chain[-1]:
        chain.append(nxt)
    return tuple(chain)
