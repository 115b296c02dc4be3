"""Invariant metrics and the connections they determine, in exact arithmetic:
the Weyl connection of a closed covector theta, the torsion-free connection
with Dg = -2 theta (x) g, from one Koszul step that carries the theta terms,
and the Levi-Civita connection as its theta = 0 case.

Conventions: a connection is a family of matrices nabla[i], one per basis
direction, acting on coordinate columns; nabla[i] applied to e_j is the
covariant derivative of e_j along e_i. Connections, curvature and the Gram
inverse store integer rows over one denominator; dense views are lazy.
"""
from __future__ import annotations

from functools import cached_property
from fractions import Fraction
from itertools import product
from math import gcd, lcm
from typing import Callable, Iterable, Sequence

from .liealg import Covector, LieAlgebra, _bracket_defects
from .linalg import (
    ZERO,
    Matrix,
    SparseRows,
    Subspace,
    Vector,
    _RATIONAL,
    _Record,
    _add_product,
    _columns,
    _definite_inverse,
    _dense_row,
    _exact,
    _gram_product,
    _lift,
    _lowest_terms,
    _products,
    _sparse,
    _unlift,
    _unlift_row,
    as_fraction,
    dot,
    identity_matrix,
    mat_vec,
    pair_index,
    pairs,
    zero_vector,
)


class InnerProduct(_Record):
    """A positive definite symmetric bilinear form. `lifted` and
    `lifted_inverse`, not fields, hold G and G^-1 on ints: (d, d G by its
    nonzero rows), as `_lift` gives, and the same for G^-1. Every consumer of
    the metric on ints reads them; none lifts the gram again."""

    gram: Matrix

    def __post_init__(self) -> None:
        n = len(self.gram)
        if any(len(row) != n for row in self.gram):
            raise ValueError("gram matrix must be square")
        # Fraction entries; floats and bools raise TypeError, as in as_fraction
        object.__setattr__(self, "gram", tuple(map(_exact, self.gram)))
        d, (rows,) = _lift((self.gram,))
        if _columns(rows) != {r: list(terms) for r, terms in rows}:  # column m is row m
            raise ValueError("gram matrix must be symmetric")
        object.__setattr__(self, "lifted", (d, rows))
        object.__setattr__(self, "lifted_inverse", _definite_inverse(d, rows, n))

    @classmethod
    def identity(cls, n: int) -> "InnerProduct":
        return cls(identity_matrix(n))

    @classmethod
    def from_rows(cls, rows) -> "InnerProduct":
        return cls(tuple(rows))

    @classmethod
    def _orthogonal_sum(cls, q: int, metric: "InnerProduct") -> "InnerProduct":
        """The block diagonal form of the identity on R^q and metric, with no
        second lift or elimination: G and its inverse are each the q x q
        identity block over metric's own denominator, next to metric's rows
        moved down and right by q. Those rows are in lowest terms over that
        denominator, so the sums are too."""
        out = object.__new__(cls)
        gram = tuple(row + (ZERO,) * metric.dim for row in identity_matrix(q)) + tuple(
            (ZERO,) * q + row for row in metric.gram
        )
        object.__setattr__(out, "gram", gram)
        for name in ("lifted", "lifted_inverse"):
            e, rows = getattr(metric, name)
            block = tuple((r, ((r, e),)) for r in range(q)) + tuple(
                (q + r, tuple((q + c, x) for c, x in terms)) for r, terms in rows
            )
            object.__setattr__(out, name, (e, block))
        return out

    @property
    def dim(self) -> int:
        return len(self.gram)

    def value(self, x: Sequence[Fraction], y: Sequence[Fraction]) -> Fraction:
        return dot(x, mat_vec(self.gram, y))

    @cached_property
    def gram_inverse(self) -> Matrix:
        """Inverse of the gram matrix, the view of `lifted_inverse`."""
        return _unlift(*self.lifted_inverse, self.dim)

    def sharp(self, theta: Covector) -> Vector:
        """The vector metrically dual to a covector."""
        return mat_vec(self.gram_inverse, theta.coefficients)

    def restrict(self, rows: Sequence[Vector]) -> Matrix:
        """Gram matrix R G R^T of the form on the given spanning rows R: the
        product d^2 R G of `_gram_product` times (d R)^T on ints, over d^3."""
        d, lifted, products = _gram_product(self.gram, [_exact(r, _RATIONAL) for r in rows])
        acc: dict[int, dict[int, int]] = {}
        _add_product(acc, _columns(products), _columns(lifted).items())
        return _unlift(d ** 3, _sparse(acc), len(rows))


def _combination(d: int, terms: Iterable[tuple[Fraction, SparseRows]], n: int) -> Matrix:
    """The n x n Fraction matrix sum of f M / d over the (f, M) of terms, for
    integer matrices M given by their nonzero rows: on ints over d times the
    common denominator of the f, which go through `as_fraction`."""
    terms = [(as_fraction(f), rows) for f, rows in terms if f and rows]
    scale = lcm(*(f.denominator for f, _ in terms))
    acc: dict[int, dict[int, int]] = {}
    for f, rows in terms:
        f = f.numerator * (scale // f.denominator)
        _add_product(acc, {r: ((r, f),) for r, _ in rows}, rows)  # the scalar matrix f times M
    return _unlift(d * scale, _sparse(acc), n)


def _check_operators(record: _Record, count: Callable[[int], int], one_per: str) -> None:
    """ValueError unless dim and denominator are ints >= 1, not bools, and rows
    is a tuple of count(dim) operators, one per basis `one_per`, in the form
    the engine builds: `_sparse` and `_lowest_terms` give them back unchanged,
    and every index and entry is an int, the indices below dim."""
    name = type(record).__name__
    for field in ("dim", "denominator"):
        value = getattr(record, field)
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            raise ValueError(f"{name} {field} must be an integer >= 1, got {value!r}")
    dim, d, rows = record.dim, record.denominator, record.rows
    n = count(dim)
    if not isinstance(rows, tuple) or len(rows) != n:
        raise ValueError(f"{name} rows must be a tuple of {n} operators, one per basis {one_per}")
    try:
        rebuilt = _lowest_terms(d, [_sparse({r: dict(terms) for r, terms in m}) for m in rows])
    except (TypeError, ValueError):
        rebuilt = None
    if rebuilt != (d, rows) or not all(
        {type(r), type(c), type(x)} == {int} and 0 <= r < dim and 0 <= c < dim
        for m in rows for r, terms in m for c, x in terms
    ):
        raise ValueError(f"{name} rows are not integer operators in lowest terms")


def _canonical_operators(
    cls: type, dim: int, lifted: tuple[int, tuple[SparseRows, ...]]
) -> Connection | CurvatureTensor:
    """The `Connection` or `CurvatureTensor` of operators that the engine built
    in the form `_check_operators` reads, (denominator, rows) as `_lowest_terms`
    returns them, built without that check."""
    out = object.__new__(cls)
    object.__setattr__(out, "dim", dim)
    object.__setattr__(out, "denominator", lifted[0])
    object.__setattr__(out, "rows", lifted[1])
    return out


class Connection(_Record):
    """Operators nabla[i] = D_{e_i}, stored and checked as `CurvatureTensor`
    stores and checks its own: rows[i] holds the nonzero rows of `denominator`
    times nabla[i] as ints, in lowest terms. The dense `nabla` is a view, built
    on first read."""

    dim: int
    denominator: int
    rows: tuple[SparseRows, ...]

    def __post_init__(self) -> None:
        _check_operators(self, lambda n: n, "direction")

    @classmethod
    def from_matrices(cls, dim: int, nabla: Sequence[Matrix]) -> "Connection":
        """The connection with the given n x n matrices, entries as in `vector`."""
        if len(nabla) != dim or any(len(m) != dim or any(len(r) != dim for r in m) for m in nabla):
            raise ValueError("connection needs one n x n matrix per basis direction")
        return cls(dim, *_lift(tuple(map(_exact, m)) for m in nabla))

    @cached_property
    def nabla(self) -> tuple[Matrix, ...]:
        return tuple(_unlift(self.denominator, m, self.dim) for m in self.rows)

    def directional(self, x: Sequence[Fraction]) -> Matrix:
        """Matrix of the derivative along the vector x. x is read as in
        `vector` before any zero is skipped, so a float raises TypeError."""
        x = _exact(x, _RATIONAL)
        if len(x) != self.dim:
            raise ValueError("vector length does not match the connection dimension")
        return _combination(self.denominator, zip(x, self.rows), self.dim)

    def apply(self, x: Sequence[Fraction], y: Sequence[Fraction]) -> Vector:
        return mat_vec(self.directional(x), y)


class CurvatureTensor(_Record):
    """Curvature operators R[i][j] for i < j, pair-indexed; antisymmetric in (i, j).

    Stored sparse over one denominator: rows[p] holds the nonzero rows of
    `denominator` times the p-th operator as ints, in lowest terms. The dense
    `operators` are a view, built on first read. The constructor checks that
    form (`_check_operators`); the operators the engine builds come through
    `_canonical_operators`, which does not check them again.
    """

    dim: int
    denominator: int
    rows: tuple[SparseRows, ...]

    def __post_init__(self) -> None:
        _check_operators(self, lambda n: n * (n - 1) // 2, "pair i < j")

    @cached_property
    def operators(self) -> tuple[Matrix, ...]:
        return tuple(_unlift(self.denominator, m, self.dim) for m in self.rows)

    def operator(self, i: int, j: int) -> Matrix:
        n = self.dim
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"need 0 <= i, j < n, got ({i}, {j}) with n={n}")
        if i == j:
            return tuple(zero_vector(n) for _ in range(n))
        if i < j:
            return _unlift(self.denominator, self.rows[pair_index(i, j, n)], n)
        # R(e_i, e_j) = -R(e_j, e_i): the stored rows over -denominator
        return _unlift(-self.denominator, self.rows[pair_index(j, i, n)], n)

    def evaluate(self, x: Sequence[Fraction], y: Sequence[Fraction]) -> Matrix:
        """R(x, y), with x and y read as in `vector` before any zero is skipped."""
        x, y, n = _exact(x, _RATIONAL), _exact(y, _RATIONAL), self.dim
        if len(x) != n or len(y) != n:
            raise ValueError("vector length does not match the curvature dimension")
        terms = ((x[i] * y[j] - x[j] * y[i], m) for (i, j), m in zip(pairs(n), self.rows) if m)
        return _combination(self.denominator, terms, n)

    def is_flat(self) -> bool:
        return not any(self.rows)

    @cached_property
    def kernel(self) -> Subspace:
        """Joint kernel of all operators: the kernel of their nonzero rows, one
        primitive integer row for each, so rows that are positive multiples of
        each other enter the elimination once and as the ints it works on."""
        distinct: dict[tuple[tuple[int, int], ...], None] = {}
        for op in self.rows:
            for _, terms in op:
                g = gcd(*(v for _, v in terms))
                distinct[tuple((c, v // g) for c, v in terms)] = None
        n = self.dim
        return Subspace.kernel_of([_dense_row(terms, n) for terms in distinct], n)


def is_closed(algebra: LieAlgebra, theta: Covector) -> bool:
    """A left-invariant covector is closed iff it kills all basis brackets (on ints)."""
    if theta.dim != algebra.dim:
        raise ValueError("covector dimension does not match the algebra")
    th = theta._lifted[1]
    return not any(sum(th[k] * x for k, x in terms) for terms in algebra._lifted_table[1].values())


def _koszul_matrices(
    algebra: LieAlgebra, metric: InnerProduct, theta: Covector
) -> tuple[int, list[list[tuple[int, list[tuple[int, int]]]]]]:
    """(e g, rows): the matrices G D_i, (G D_i)[k][j] = g(D_{e_i} e_j, e_k), of
    the torsion-free connection D with Dg = -2 theta (x) g, times e g, as integer
    rows (row, [(column, int), ...]) in the order they were built, unsorted. The
    metric is read as `InnerProduct.lifted`, over g, and theta as
    `Covector._lifted`, over L; c is the common denominator of the structure
    constants and e = lcm(2 c, L).

    G D_i = K_i + theta_i G + g_i theta^T - theta g_i^T, with g_i row i of G and
    K_i Koszul's formula in Milnor's lowered structure constants C_abm =
    g([e_a, e_b], e_m): K_i[k][j] = (C_ijk - C_ikj - C_jki) / 2. Over e g the
    Koszul part carries the factor e / 2c and the theta part e / L. Each nonzero
    C_abm and theta_s G_ab is scattered into the entries it feeds, so the work
    follows the nonzero constants.
    """
    c, brackets = algebra._lifted_table
    g, gram_rows = metric.lifted
    scale, th = theta._lifted
    e = lcm(2 * c, scale)
    f_k, f_t = e // (2 * c), e // scale
    k_mats: list[dict[int, dict[int, int]]] = [{} for _ in range(algebra.dim)]

    def add(i: int, k: int, j: int, x: int) -> None:
        row = k_mats[i].setdefault(k, {})
        row[j] = row.get(j, 0) + x

    for (a, b), terms in brackets.items():
        bracket = dict(terms)
        # the gram matrix is symmetric, so C_abm = sum over k of C^k_ab g_mk
        for m, g_m in gram_rows:
            if h := f_k * sum(bracket[k] * y for k, y in g_m if k in bracket):  # C_bam = -C_abm
                add(a, m, b, h)  # C_ijk with (i, j, k) = (a, b, m)
                add(b, m, a, -h)  # ... and (b, a, m)
                add(a, b, m, -h)  # -C_ikj with (i, k, j) = (a, b, m)
                add(b, a, m, h)  # ... and (b, a, m)
                add(m, b, a, -h)  # -C_jki with (j, k, i) = (a, b, m)
                add(m, a, b, h)  # ... and (b, a, m)
    for (a, g_a), (s, t) in product(gram_rows, [(s, t) for s, t in enumerate(th) if t]):
        for b, y in g_a:
            x = f_t * t * y  # theta_s G_ab
            add(s, a, b, x)  # theta_i G_kj with (i, k, j) = (s, a, b)
            add(b, a, s, x)  # G_ki theta_j with (i, k, j) = (b, a, s)
            add(a, s, b, -x)  # -theta_k G_ij with (i, k, j) = (a, s, b)
    return e * g, [
        [(r, [(j, x) for j, x in row.items() if x]) for r, row in k.items()] for k in k_mats
    ]


def _koszul_connection(algebra: LieAlgebra, metric: InnerProduct, theta: Covector) -> Connection:
    """The torsion-free connection with Dg = -2 theta (x) g: G^-1 multiplied
    into the rows of `_koszul_matrices` on integer numerators."""
    if metric.dim != algebra.dim:
        raise ValueError("metric dimension does not match the algebra")
    d_inv, gram_inv = metric.lifted_inverse
    d_k, k_mats = _koszul_matrices(algebra, metric, theta)
    lifted = _lowest_terms(d_inv * d_k, _products(gram_inv, k_mats))
    return _canonical_operators(Connection, algebra.dim, lifted)


def levi_civita(algebra: LieAlgebra, metric: InnerProduct) -> Connection:
    """The torsion-free metric connection: the Koszul build with theta = 0."""
    return _koszul_connection(algebra, metric, Covector(zero_vector(algebra.dim)))


def weyl_connection(algebra: LieAlgebra, metric: InnerProduct, theta: Covector) -> Connection:
    """Conformal modification of the metric connection by a closed covector.

    Built by the Koszul step with its theta terms (`_koszul_matrices`), then
    checked at every (i, j, k) against the two identities that determine it; a
    failure raises, signaling an internal inconsistency. The check reads only
    the built connection, on integer numerators, and visits nonzero entries
    only; every entry it skips is zero on both sides of its identity.
    """
    if theta.dim != algebra.dim:
        raise ValueError("covector dimension does not match the algebra")
    if not is_closed(algebra, theta):
        raise ValueError("covector is not closed; no conformal connection is defined")
    conn = _koszul_connection(algebra, metric, theta)

    # By Koszul, D is the only torsion-free connection with g(D_i e_j, e_k) +
    # g(e_j, D_i e_k) = 2 theta_i g_jk. Torsion fails at (i, j, k), j < i, if T(e_i, e_j)_k != 0.
    _, torsions = _torsion_numerators(algebra, conn)
    failures = [((j, i, k), "torsion") for (i, j), t in torsions.items() for k in t]
    d, nabla = conn.denominator, conn.rows
    d_g, gram = metric.lifted
    scale, th = theta._lifted
    # G D_i has numerators over d_g d and theta_i G over d_g L: both go over d_g lcm(d, L)
    f_d, f_t = lcm(d, scale) // d, lcm(d, scale) // scale
    gram_columns = _columns(gram, f_d)  # column m of the symmetric G is row m
    for i, rows in enumerate(nabla):
        # entry [k][j] of G D_i is g(D_i e_j, e_k); the conformal identity at
        # (i, j, k) and (i, k, j) says that A = G D_i - theta_i G is antisymmetric at (j, k)
        acc: dict[int, dict[int, int]] = {}
        _add_product(acc, gram_columns, rows)
        if t := f_t * th[i]:
            for j, terms in gram:
                row = acc.setdefault(j, {})
                for k, y in terms:
                    row[k] = row.get(k, 0) - t * y
        failures += [
            ((i, min(j, k), max(j, k)), "conformal")
            for j, row in acc.items() for k, x in row.items() if x + acc.get(k, {}).get(j, 0)
        ]
    if failures:
        (i, j, k), name = min(failures)
        raise RuntimeError(
            f"conformal connection cross-check failed at ({i}, {j}, {k}): the {name} identity fails"
        )
    return conn


def _torsion_numerators(
    algebra: LieAlgebra, connection: Connection
) -> tuple[int, dict[tuple[int, int], dict[int, int]]]:
    """(d, {(i, j): {k: x}}): the nonzero components T(e_i, e_j)_k = x / d for
    i < j, from the connection's integer rows and the integer table."""
    n = algebra.dim
    if connection.dim != n:
        raise ValueError("connection dimension does not match the algebra")
    d, nabla = connection.denominator, connection.rows
    c, brackets = algebra._lifted_table
    out: dict[tuple[int, int], dict[int, int]] = {}
    for i, rows in enumerate(nabla):
        for r, terms in rows:
            for j, x in terms:
                # x / d, the e_r-component of D_i e_j, enters T(e_i, e_j); for
                # j < i that is stored as T(e_j, e_i) = -T(e_i, e_j)
                if i != j:
                    t = out.setdefault((i, j) if i < j else (j, i), {})
                    t[r] = t.get(r, 0) + (c * x if i < j else -c * x)
    for pair, terms in brackets.items():
        t = out.setdefault(pair, {})
        for k, x in terms:
            t[k] = t.get(k, 0) - d * x
    return d * c, {pair: nz for pair, t in out.items() if (nz := {k: x for k, x in t.items() if x})}


def torsion(algebra: LieAlgebra, connection: Connection) -> tuple[Vector, ...]:
    """Torsion vectors T(e_i, e_j) = D_i e_j - D_j e_i - [e_i, e_j] for i < j,
    pair-indexed; D_i e_j is column j of nabla_i."""
    d, torsions = _torsion_numerators(algebra, connection)
    n = algebra.dim
    return tuple(_unlift_row(d, torsions.get(pair, {}).items(), n) for pair in pairs(n))


def is_torsion_free(algebra: LieAlgebra, connection: Connection) -> bool:
    return not _torsion_numerators(algebra, connection)[1]


def curvature(algebra: LieAlgebra, connection: Connection) -> CurvatureTensor:
    """R(e_i, e_j) = [nabla_i, nabla_j] - sum_k C^k_ij nabla_k for i < j: the
    defect of e_i -> nabla_i as a homomorphism, from the sparse integer routine
    that checks homomorphisms, stored over its common denominator."""
    n = algebra.dim
    if connection.dim != n:
        raise ValueError("connection dimension does not match the algebra")
    d, nabla = connection.denominator, connection.rows
    c = algebra._lifted_table[0]
    lifted = _lowest_terms(d * d * c, tuple(_bracket_defects(algebra, d, nabla)))
    return _canonical_operators(CurvatureTensor, n, lifted)
