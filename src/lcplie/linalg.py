"""Exact linear algebra over the rationals.

Two forms of a matrix meet here. At the API, vectors and matrices are
immutable tuples with Fraction entries. Inside, the kernels work on
integer rows over a common denominator: dense lists of ints for
elimination, and `SparseRows`, the nonzero rows as (column, int) pairs,
for products. A `Subspace` is stored in the integer form, as the primitive
integer rows of its reduced row echelon form; its Fraction basis is a view.
One sparse integer pass (`_definite_inverse`) checks and inverts a Gram matrix.
`_Record` is the frozen-record base of the package's value classes.
Every routine here is pure and exact. Floating point never enters this
module.
"""
from __future__ import annotations

import re
import sys
from fractions import Fraction
from functools import cached_property
from itertools import chain, compress
from math import gcd, lcm, prod
from operator import attrgetter
from typing import Callable, Iterable, Iterator, Sequence

Vector = tuple[Fraction, ...]
Matrix = tuple[Vector, ...]
# An integer matrix by its nonzero rows: (row, ((column, entry), ...)) pairs,
# rows and columns ascending, every entry a nonzero int.
SparseRows = tuple[tuple[int, tuple[tuple[int, int], ...]], ...]
# A reduced row echelon form as its primitive integer rows and their pivot columns.
Echelon = tuple[list[list[int]], tuple[int, ...]]

ZERO = Fraction(0)
ONE = Fraction(1)
_FRACTION = {Fraction}
_RATIONAL = {int, Fraction}

# ASCII digits only, matched in full: "\d" admits other scripts and "$" a final newline.
_RATIONAL_RE = re.compile(r"-?[0-9]+(/[0-9]+)?")


def as_fraction(value: int | str | Fraction) -> Fraction:
    """Coerce an int, Fraction or decimal-free 'p/q' or 'p' string to an exact
    Fraction.

    Floats are rejected: exactness is a module invariant. Strings outside the
    grammar, a zero denominator and a part past Python's int-string digit
    limit raise ValueError.
    """
    if isinstance(value, str):
        if not _RATIONAL_RE.fullmatch(value):
            raise ValueError(f"not a decimal-free rational string: {value!r}")
        p, _, q = value.partition("/")
        try:  # from the matched parts: Fraction(value) would match them again
            return Fraction(int(p), int(q)) if q else Fraction(int(p))
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
        except ValueError:  # beyond Python's limit on digits in an int conversion
            raise ValueError(
                f"rational has more than {sys.get_int_max_str_digits()} digits in a part"
            ) from None
    if isinstance(value, bool):
        raise TypeError("booleans are not rational scalars")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def vector(values: Iterable[int | str | Fraction]) -> Vector:
    return tuple(as_fraction(v) for v in values)


def _exact(row: Iterable[int | str | Fraction], kinds: set[type] = _FRACTION) -> Vector:
    """row as a tuple: rows whose entries are all of the kinds pass through,
    other rows go through `vector`, so floats and bools raise TypeError."""
    row = tuple(row)
    return row if set(map(type, row)) <= kinds else vector(row)


def _rectangular(rows: Sequence[Sequence]) -> Sequence[Sequence]:
    """rows, or ValueError if they are not all of one length."""
    if len({len(row) for row in rows}) > 1:
        raise ValueError("ragged matrix")
    return rows


def matrix(rows: Iterable[Iterable[int | str | Fraction]]) -> Matrix:
    return _rectangular(tuple(vector(row) for row in rows))


def zero_vector(n: int) -> Vector:
    return (ZERO,) * n


def identity_matrix(n: int) -> Matrix:
    return tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n))


def is_zero_vector(v: Sequence[Fraction]) -> bool:
    return all(x == 0 for x in v)


def _dot(u: Vector, v: Vector) -> Fraction:
    """u . v of rows already read by `_exact`; zero factors are skipped."""
    return sum((a * b for a, b in zip(u, v, strict=True) if a and b), ZERO)


def dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    """Exact inner product of coordinate sequences, read as in `vector`."""
    return _dot(_exact(u, _RATIONAL), _exact(v, _RATIONAL))


def transpose(m: Matrix) -> Matrix:
    return tuple(zip(*_rectangular(m)))


def mat_vec(m: Matrix, v: Sequence[Fraction]) -> Vector:
    """Exact m v, v read once and each row of m once, as in `dot`."""
    v = _exact(v, _RATIONAL)
    return tuple(_dot(_exact(row, _RATIONAL), v) for row in m)


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


def _scaled(row: Sequence[int | str | Fraction]) -> tuple[int, list[int]]:
    """(L, L row) as ints, L the lcm of the row's denominators, from one scan of its
    entry types: rows of ints and Fractions are read as they are, other rows go
    through `vector`, so floats and bools raise TypeError."""
    kinds = set(map(type, row))
    if kinds <= {int}:
        return 1, list(row)
    if not kinds <= _RATIONAL:
        row = vector(row)
    scale = lcm(*(x.denominator for x in row))
    return scale, [x.numerator * (scale // x.denominator) for x in row]


def _integer_row(row: Sequence[int | str | Fraction]) -> list[int]:
    """The primitive integer multiple of a row (`_scaled`)."""
    return _primitive(_scaled(row)[1])


def _lift(mats: Iterable[Sequence[Sequence[Fraction]]]) -> tuple[int, tuple[SparseRows, ...]]:
    """(d, rows): the least common denominator d of the entries of a family of
    rational matrices, and d times each matrix as its nonzero integer rows.

    The family is read once; the sparse kernels of `connections`, `liealg`
    and `lcp` then multiply Python ints and build Fractions only for what they
    return. Entries that are the shared ZERO are skipped by identity.
    """
    sparse = [
        [
            (r, terms)
            for r, row in enumerate(m)
            if (terms := [(c, x) for c, x in enumerate(row) if x is not ZERO and x])
        ]
        for m in mats
    ]
    d = lcm(*{x.denominator for m in sparse for _, terms in m for _, x in terms})
    return d, tuple(
        tuple(
            (r, tuple((c, x.numerator * (d // x.denominator)) for c, x in terms))
            for r, terms in m
        )
        for m in sparse
    )


def _lowest_terms(d: int, mats: Sequence[SparseRows]) -> tuple[int, tuple[SparseRows, ...]]:
    """The same matrices over the least common denominator: d and every entry
    divided by their gcd, as `_lift` would give from the Fraction matrices."""
    g = gcd(d, *(x for m in mats for _, terms in m for _, x in terms))
    if g == 1:
        return d, tuple(mats)
    return d // g, tuple(
        tuple((r, tuple((c, x // g) for c, x in terms)) for r, terms in m) for m in mats
    )


def _dense_row(terms: Iterable[tuple[int, int]], size: int) -> list[int]:
    """The int row of length size whose nonzero entries are terms."""
    row = [0] * size
    for c, x in terms:
        row[c] = x
    return row


def _unlift_row(d: int, terms: Iterable[tuple[int, int]], size: int) -> Vector:
    """The Fraction row of length size whose nonzero entries, times d, are terms."""
    row = [ZERO] * size
    for c, x in terms:
        row[c] = Fraction(x, d)
    return tuple(row)


def _unlift(d: int, rows: SparseRows, size: int) -> Matrix:
    """The size x size Fraction matrix whose nonzero rows, times d, are rows;
    its zero rows are one shared tuple."""
    out = [(ZERO,) * size] * size
    for r, terms in rows:
        out[r] = _unlift_row(d, terms, size)
    return tuple(out)


def _columns(a: SparseRows, scale: int = 1) -> dict[int, list[tuple[int, int]]]:
    """{m: [(r, scale a[r][m]), ...]}: the nonzero entries of each column of a."""
    columns: dict[int, list[tuple[int, int]]] = {}
    for r, terms in a:
        for m, x in terms:
            columns.setdefault(m, []).append((r, scale * x))
    return columns


def _add_product(acc: dict[int, dict[int, int]], a_columns: dict, b: SparseRows) -> None:
    """acc += a b, with a given by `_columns` and acc as {row: {column: int}}:
    each nonzero row m of b meets the nonzero entries of column m of a."""
    for m, terms in b:
        for r, x in a_columns.get(m, ()):
            row = acc.setdefault(r, {})
            get = row.get
            for c, y in terms:
                row[c] = get(c, 0) + x * y


def _sparse(acc: dict[int, dict[int, int]]) -> SparseRows:
    """{row: {column: int}} as nonzero rows, zero entries dropped."""
    out = []
    for r in sorted(acc):
        if terms := tuple((c, x) for c, x in sorted(acc[r].items()) if x):
            out.append((r, terms))
    return tuple(out)


def _products(a: SparseRows, mats: Iterable[SparseRows]) -> list[SparseRows]:
    """a b for each b of mats, integer matrices given by their nonzero rows."""
    columns = _columns(a)
    out = []
    for b in mats:
        acc: dict[int, dict[int, int]] = {}
        _add_product(acc, columns, b)
        out.append(_sparse(acc))
    return out


def _eliminate(row: list[int], pivot_row: list[int], c: int) -> list[int]:
    """row with column c cleared by an integer multiple of pivot_row, made primitive."""
    p, f = pivot_row[c], row[c]
    return _primitive([p * x - f * y if y else p * x for x, y in zip(row, pivot_row)])


def _echelon(rows: Iterable[Sequence[int | Fraction]]) -> Echelon:
    """(rows, pivots): the reduced row echelon form of rows as its primitive
    integer rows, each with a positive pivot entry, and their pivot columns.

    Gauss-Jordan elimination runs on Python ints: each row is scaled by the
    lcm of its denominators and kept primitive (its content divided out) after
    every update. Elimination stops once no rows are pending or every column
    has a pivot. Rows of ints and Fractions are read as they are; other rows
    go through `vector`, so floats and bools raise TypeError; rows of unequal
    length raise ValueError.
    """
    pending = [row for row in _rectangular(list(map(_integer_row, rows))) if any(row)]
    ncols = len(pending[0]) if pending else 0
    reduced: list[list[int]] = []
    pivots: list[int] = []
    for c in range(ncols):
        k = next((k for k, row in enumerate(pending) if row[c]), None)
        if k is None:
            continue
        pivot_row = pending.pop(k)
        if pivot_row[c] < 0:
            pivot_row = [-x for x in pivot_row]
        reduced = [_eliminate(row, pivot_row, c) if row[c] else row for row in reduced]
        reduced.append(pivot_row)
        pivots.append(c)
        if len(pivots) == ncols:
            break  # every column has a pivot: the pending rows lie in the span
        pending = [
            row
            for row in (_eliminate(row, pivot_row, c) if row[c] else row for row in pending)
            if any(row)
        ]
        if not pending:
            break
    return reduced, tuple(pivots)


def _fraction_rows(rows: Iterable[Sequence[int]], pivots: Iterable[int]) -> Matrix:
    """Each integer echelon row divided by its pivot entry."""
    return tuple(
        tuple(ZERO if not x else ONE if x == row[c] else Fraction(x, row[c]) for x in row)
        for row, c in zip(rows, pivots)
    )


def _null_space(rows: Iterable[Sequence[int | Fraction]], ncols: int) -> Echelon:
    """`_echelon` of the right null space {x : m x = 0} of the rows m, of width ncols:
    one integer vector for each free column f, equal to L at f and to -L r[f] / r[p]
    at the pivot p of each echelon row r, with L the lcm of those r[p]."""
    reduced, pivots = _echelon(rows)
    if not pivots:
        return [[0] * i + [1] + [0] * (ncols - i - 1) for i in range(ncols)], tuple(range(ncols))
    vectors = []
    for f in sorted(set(range(ncols)).difference(pivots)):
        scale = lcm(*(row[p] for row, p in zip(reduced, pivots) if row[f]))
        v = [0] * ncols
        v[f] = scale
        for row, p in zip(reduced, pivots):
            if row[f]:
                v[p] = -row[f] * (scale // row[p])
        vectors.append(v)
    return _echelon(vectors)


def rref(rows: Iterable[Sequence[int | Fraction]]) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form: (nonzero rows, pivot columns), the rows of
    `_echelon` divided by their pivots. The output is the canonical
    representative of the row space: two inputs span the same subspace iff
    their rref outputs are identical tuples."""
    reduced, pivots = _echelon(rows)
    return _fraction_rows(reduced, pivots), pivots


def kernel(m: Matrix, ncols: int | None = None) -> Matrix:
    """Canonical (rref) basis of the right null space {x : m x = 0}; ncols, needed
    when m has no rows, must otherwise equal the width of the rows."""
    width = len(m[0]) if m else ncols
    if width is None:
        raise ValueError("kernel of an empty matrix needs an explicit width")
    if ncols is not None and ncols != width:
        raise ValueError(f"kernel: rows of width {width}, ncols {ncols}")
    return _fraction_rows(*_null_space(m, width))


def inverse(a: Matrix) -> Matrix:
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("inverse of a non-square matrix")
    augmented = [list(row) + list(ident) for row, ident in zip(a, identity_matrix(n))]
    reduced, pivots = rref(augmented)
    if tuple(pivots) != tuple(range(n)):
        raise ValueError("matrix is singular")
    return tuple(tuple(row[n:]) for row in reduced)


def _definite_inverse(d: int, rows: SparseRows, n: int) -> tuple[int, SparseRows]:
    """(e, e G^-1 by its nonzero rows, in lowest terms) for the n x n symmetric G
    with d G = rows, from one Gauss-Jordan pass without row exchanges on the
    sparse primitive integer rows of [d G | d I]. Each step scales rows by a
    positive int and adds multiples of the pivot row, so pivot k has the sign
    of the leading (k+1)x(k+1) minor: ValueError names the first one <= 0."""
    work = [{n + r: d} for r in range(n)]
    for r, terms in rows:
        work[r].update(terms)
    for k, pivot_row in enumerate(work):
        if (p := pivot_row.get(k, 0)) <= 0:
            raise ValueError(
                f"gram matrix is not positive definite (leading {k + 1}x{k + 1} minor fails)"
            )
        for i, row in enumerate(work):
            if i != k and (f := row.get(k)):
                new = {c: p * row.get(c, 0) - f * pivot_row.get(c, 0) for c in row | pivot_row}
                g = gcd(*new.values())
                work[i] = {c: x // g for c, x in new.items() if x}
    # row k now holds some D > 0 at column k and D times row k of G^-1 from column n on
    scale = lcm(*(row[k] for k, row in enumerate(work)))
    e, (inverse_rows,) = _lowest_terms(scale, [tuple(
        (k, tuple((c - n, x * (scale // row[k])) for c, x in sorted(row.items()) if c >= n))
        for k, row in enumerate(work)
    )])
    return e, inverse_rows


def _bareiss(work: list[list[int]]) -> int:
    """The determinant of a square integer matrix by fraction-free (Bareiss)
    elimination in place; 1 for the 0x0 matrix. A zero pivot is replaced by
    the first lower row that is nonzero in its column, negated so that the
    determinant is kept; with none the determinant is 0. Every division is
    exact, and the last pivot is the determinant.
    """
    n = len(work)
    previous = 1
    for k in range(n):
        pivot = work[k][k]
        if not pivot:
            swap = next((i for i in range(k + 1, n) if work[i][k]), None)
            if swap is None:
                return 0
            work[k], work[swap] = [-x for x in work[swap]], work[k]
            pivot = work[k][k]
        pivot_row = work[k]
        for i in range(k + 1, n):
            row = work[i]
            f = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * pivot - f * pivot_row[j]) // previous
        previous = pivot
    return previous


def det(a: Matrix) -> Fraction:
    """Exact determinant: each row is scaled to integers by the lcm of its
    denominators (`_scaled`), and one Bareiss pass runs on the scaled rows.
    Float and bool entries raise TypeError, as in as_fraction."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("determinant of a non-square matrix")
    scaled = [_scaled(row) for row in a]
    return Fraction(_bareiss([row for _, row in scaled]), prod(scale for scale, _ in scaled))


def symmetric_signature(a: Matrix) -> tuple[int, int, int]:
    """Signature (positive, negative, zero) of a symmetric rational matrix.

    Exact congruence diagonalization on the nonzero entries alone; no
    eigenvalues are computed. Each step splits off a pivot block B, a nonzero
    diagonal entry or, when every diagonal entry is zero, the hyperbolic plane
    of a nonzero a[s][t], counts its signs, and replaces the rest of the form
    by its Schur complement a[u][w] - sum over p, q of a[u][p] B^-1[p][q] a[q][w].
    Indices whose row becomes zero count as zero. Entries are read as in
    `vector`, so floats and bools raise TypeError.
    """
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("signature of a non-square matrix")
    a = tuple(map(_exact, a))
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


def _gram_product(
    gram: Matrix, rows: Sequence[Sequence[int | Fraction]]
) -> tuple[int, SparseRows, SparseRows]:
    """(d, d R, d^2 R G): the common denominator d of G and the rows R, the
    lifted rows and their product with G, from one `_lift` and one sparse product."""
    n = len(gram)
    if any(len(row) != n for row in (*gram, *rows)):
        raise ValueError("gram matrix and rows must have matching dimensions")
    d, (g, r) = _lift((gram, rows))
    return d, r, _products(r, (g,))[0]


def _check_ambient_dim(n: object) -> None:
    if isinstance(n, bool) or not isinstance(n, int) or n < 0:
        raise ValueError(f"ambient dimension must be a non-negative integer, got {n!r}")


class _Record:
    """Base of the frozen record classes, built without generating code.

    A subclass's fields are its own annotated names, in order. The one
    `__init__` takes them by position or by name and then runs
    `__post_init__`; equality (records of the same class only), the hash and
    the `Name(field=value, ...)` repr read them through one attrgetter.
    Assignment and deletion raise AttributeError: values derived in
    `__post_init__` or `_canonical` are set with `object.__setattr__`, and
    `cached_property` writes the instance `__dict__`.
    """

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)
        cls._values = attrgetter(*cls._fields)

    def __init__(self, *args, **kwargs) -> None:
        fields, set_field = self._fields, object.__setattr__
        if kwargs or len(args) != len(fields):
            args = self._arguments(args, kwargs)
        # one by one, not through __dict__: an instance whose __dict__ was never
        # read keeps its values inline, where attribute reads take a third the time
        for name, value in zip(fields, args):
            set_field(self, name, value)
        self.__post_init__()

    @classmethod
    def _arguments(cls, args: tuple, kwargs: dict) -> tuple:
        """The arguments as one value per field, in order; TypeError on a
        missing, extra or unknown one."""
        fields, name = cls._fields, cls.__name__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments but {len(args)} were given")
        values = dict(zip(fields, args))
        for key in kwargs:
            if key not in fields:
                raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
            if key in values:
                raise TypeError(f"{name}() got multiple values for argument {key!r}")
        values.update(kwargs)
        if missing := [key for key in fields if key not in values]:
            raise TypeError(f"{name}() missing arguments: {', '.join(missing)}")
        return tuple(map(values.__getitem__, fields))

    def __post_init__(self) -> None:
        pass

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{key}={getattr(self, key)!r}" for key in self._fields)
        return f"{type(self).__qualname__}({fields})"


class Subspace(_Record):
    """A rational subspace held by its canonical reduced row echelon form.

    Each of `rows` is the primitive integer multiple, with a positive pivot
    entry, of one canonical rref row; `basis` is those rref rows as Fractions,
    built on first read. Both forms are unique to the span, so equality of
    Subspace values is equality of subspaces. `pivots`, set with the rows but
    not a field, holds the pivot column of each row.

    The constructor checks the form of rows given from outside. The
    subspaces this module computes are canonical by construction and come
    through `_canonical`, which does not check them again.
    """

    ambient_dim: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        rows, n = self.rows, self.ambient_dim
        _check_ambient_dim(n)
        if any(len(row) != n for row in rows):
            raise ValueError("basis row length does not match ambient dimension")
        pivots = [next(compress(range(n), row), n) for row in rows]
        # rows lead further right each time, so below a pivot the column is zero already
        if not (
            type(rows) is tuple
            and set(map(type, rows)) <= {tuple}
            and set(map(type, chain.from_iterable(rows))) <= {int}
            and all(p < n and row[p] > 0 and gcd(*row) == 1 for row, p in zip(rows, pivots))
            and all(p < q for p, q in zip(pivots, pivots[1:]))
            and not any(any(map(row.__getitem__, pivots[r + 1:])) for r, row in enumerate(rows))
        ):
            raise ValueError("basis rows are not in canonical reduced echelon form")
        object.__setattr__(self, "pivots", tuple(pivots))

    @classmethod
    def _canonical(cls, ambient_dim: int, echelon: Echelon) -> "Subspace":
        """The subspace of rows in canonical form with their pivot columns, as
        `_echelon` and `_null_space` return them, built without the check."""
        rows, pivots = echelon
        out = object.__new__(cls)
        object.__setattr__(out, "ambient_dim", ambient_dim)
        object.__setattr__(out, "rows", tuple(map(tuple, rows)))
        object.__setattr__(out, "pivots", pivots)
        return out

    @classmethod
    def from_vectors(cls, vectors: Iterable[Sequence[Fraction]], ambient_dim: int) -> "Subspace":
        _check_ambient_dim(ambient_dim)
        rows = list(vectors)
        if any(len(row) != ambient_dim for row in rows):
            raise ValueError("vector length does not match ambient dimension")
        return cls._canonical(ambient_dim, _echelon(rows))

    @classmethod
    def kernel_of(cls, m: Sequence[Sequence[int | Fraction]], ambient_dim: int) -> "Subspace":
        """The right null space {x : m x = 0} of the rows m, each of length ambient_dim."""
        _check_ambient_dim(ambient_dim)
        if any(len(row) != ambient_dim for row in m):
            raise ValueError("vector length does not match ambient dimension")
        return cls._canonical(ambient_dim, _null_space(m, ambient_dim))

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        _check_ambient_dim(ambient_dim)
        return cls._canonical(ambient_dim, ((), ()))

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        n = ambient_dim
        _check_ambient_dim(n)
        return cls._canonical(
            n, (tuple((0,) * i + (1,) + (0,) * (n - i - 1) for i in range(n)), tuple(range(n)))
        )

    @cached_property
    def basis(self) -> Matrix:
        """The canonical rref rows as Fractions."""
        return _fraction_rows(self.rows, self.pivots)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def is_zero(self) -> bool:
        return not self.rows

    def is_full(self) -> bool:
        return self.dim == self.ambient_dim

    def contains(self, v: Sequence[Fraction]) -> bool:
        return not any(self.residue(v))

    def coordinates_of(self, v: Sequence[Fraction]) -> Vector | None:
        """Coefficients of v in the canonical basis, or None if v is outside."""
        return None if any(self.residue(v)) else tuple(Fraction(v[p]) for p in self.pivots)

    def residue(self, v: Sequence[Fraction]) -> Vector:
        """v - sum over r of v[p_r] * b_r for the canonical rows b_r with pivots p_r:
        linear in v, and zero exactly when v lies in the span. It is
        `_integer_residue` of v times the lcm L of its denominators, over B L."""
        if len(v) != self.ambient_dim:
            raise ValueError("vector length does not match ambient dimension")
        scale, w = _scaled(v)
        residue = self._integer_residue({k: x for k, x in enumerate(w) if x})
        return _unlift_row(self._lifted[0] * scale, residue.items(), self.ambient_dim)

    def contains_subspace(self, other: "Subspace") -> bool:
        self._check_ambient(other)
        return not any(any(self._integer_residue(dict(enumerate(w))).values()) for w in other.rows)

    def add(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        return Subspace.from_vectors(self.rows + other.rows, self.ambient_dim)

    def intersect(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        return self.restrict(other._residue_rows(self))

    def restrict(self, values: Sequence[Sequence[int | Fraction]]) -> "Subspace":
        """{sum of c_r * b_r : sum of c_r * values[r] = 0} over the canonical rows
        b_r, from one kernel, or self when every value is zero. Combined by the
        rref kernel rows c, the b_r give a canonical basis: each reads c_r at p_r,
        so the sum for the kernel row with pivot p has its pivot at p_p. The
        combinations are taken on the integer rows B b_r and integer c, and
        made primitive.
        """
        if len(values) != self.dim or len({len(v) for v in values}) > 1:
            raise ValueError("need one value per basis row, all of the same length")
        if all(is_zero_vector(v) for v in values):
            return self
        _, lifted = self._lifted
        kernel_rows, kernel_pivots = _null_space(transpose(tuple(values)), self.dim)
        rows = []
        for coeffs in kernel_rows:
            acc = [0] * self.ambient_dim
            for f, (_, terms) in zip(coeffs, lifted):
                if f:
                    for c, x in terms:
                        acc[c] += f * x
            rows.append(_primitive(acc))
        return Subspace._canonical(
            self.ambient_dim, (rows, tuple(self.pivots[p] for p in kernel_pivots))
        )

    def constraint_matrix(self) -> Matrix:
        """Rows y with y . v = 0 exactly characterizing membership in the span."""
        return _fraction_rows(*_null_space(self.rows, self.ambient_dim))

    def orthogonal_complement(self, gram: Matrix) -> "Subspace":
        """{x : g(r, x) = 0 for every row r} for the symmetric bilinear form g of gram,
        read as in `vector`: the kernel of the nonzero rows of r G, lifted to ints."""
        n = self.ambient_dim
        products = _gram_product(tuple(map(_exact, gram)), self.rows)[2]
        return Subspace.kernel_of([_dense_row(terms, n) for _, terms in products], n)

    @cached_property
    def _lifted(self) -> tuple[int, SparseRows]:
        """(B, rows): the common denominator B of the canonical rows, the lcm of
        the pivot entries, and B times them."""
        scale = lcm(*(row[p] for row, p in zip(self.rows, self.pivots)))
        return scale, tuple(
            (r, tuple((c, x * (scale // row[p])) for c, x in enumerate(row) if x))
            for r, (row, p) in enumerate(zip(self.rows, self.pivots))
        )

    def _residue_rows(self, other: "Subspace") -> list[list[int]]:
        """`_integer_residue` of each integer row B' b'_r of other, as dense rows:
        the residues of its canonical rows b'_r, all times one positive scale."""
        n = self.ambient_dim
        return [_dense_row(self._integer_residue(dict(t)).items(), n) for _, t in other._lifted[1]]

    def _restriction(self, operators: Iterable[SparseRows]) -> tuple[
            dict[tuple[int, int], dict[int, int]], Iterator[SparseRows] | None]:
        """(residues, matrices) for integer operators given by their nonzero rows:
        the nonzero entries of the `_integer_residue`s of the images op (B b_r) of
        the lifted rows as {(operator, column): {r: entry}}, at one positive scale,
        and, only when there are none, each operator on the subspace in canonical
        coordinates times B and the operators' scale, built as it is read: column
        r is image r at the pivots."""
        columns = _columns(self._lifted[1])
        residues: dict[tuple[int, int], dict[int, int]] = {}
        images = []
        for idx, op in enumerate(operators):
            images.append(op_images := {})
            # the lifted rows times op^T, whose rows are op's columns
            _add_product(op_images, columns, _columns(op).items())
            for r, image in op_images.items():
                for k, x in self._integer_residue(image).items():
                    if x:
                        residues.setdefault((idx, k), {})[r] = x
        # row t of a matrix is column p_t of the images, the transpose of their rows r
        return residues, None if residues else (
            _sparse({t: dict(cols.get(p, ())) for t, p in enumerate(self.pivots)})
            for cols in (_columns([(r, image.items()) for r, image in op.items()]) for op in images)
        )

    def _integer_residue(self, v: dict[int, int]) -> dict[int, int]:
        """B v - sum over r of v[p_r] (B b_r) for an integer vector v given as
        {column: entry}: B times `residue(v)`, zero exactly when v lies in the
        span. Entries may be zero."""
        scale, rows = self._lifted
        out = {k: scale * x for k, x in v.items()}
        for p, (_, terms) in zip(self.pivots, rows):
            if coeff := v.get(p):
                for c, x in terms:
                    out[c] = out.get(c, 0) - coeff * x
        return out

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
