"""Invariant metrics, the Levi-Civita connection, and its closed-form
conformal modification for a closed covector, all in exact arithmetic.

Conventions: a connection is a family of matrices nabla[i], one per basis
direction, acting on coordinate columns; nabla[i] applied to e_j is the
covariant derivative of e_j along e_i.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Sequence

from .liealg import Covector, LieAlgebra
from .linalg import (
    ZERO,
    Matrix,
    Subspace,
    Vector,
    _bareiss,
    _exact,
    _integer_row,
    dot,
    identity_matrix,
    inverse,
    is_zero_vector,
    kernel,
    mat_combination,
    mat_mul,
    mat_vec,
    matrix,
    pair_index,
    pairs,
    transpose,
    vec_scale,
    zero_vector,
)


@dataclass(frozen=True)
class InnerProduct:
    """A positive definite symmetric bilinear form on basis coordinates."""

    gram: Matrix

    def __post_init__(self) -> None:
        n = len(self.gram)
        if any(len(row) != n for row in self.gram):
            raise ValueError("gram matrix must be square")
        # Fraction entries; floats and bools raise TypeError, as in as_fraction
        object.__setattr__(self, "gram", matrix(self.gram))
        if any(self.gram[i][j] != self.gram[j][i] for i, j in pairs(n)):
            raise ValueError("gram matrix must be symmetric")
        # Sylvester's criterion in one elimination pass: scaling a row by a
        # positive integer scales each leading minor by a positive factor, so
        # the pivots _bareiss yields have the signs of the leading minors.
        for k, minor in enumerate(_bareiss([_integer_row(row) for row in self.gram])):
            if minor <= 0:
                raise ValueError(
                    f"gram matrix is not positive definite (leading {k + 1}x{k + 1} minor fails)"
                )

    @classmethod
    def identity(cls, n: int) -> "InnerProduct":
        return cls(identity_matrix(n))

    @classmethod
    def from_rows(cls, rows) -> "InnerProduct":
        return cls(tuple(rows))

    @property
    def dim(self) -> int:
        return len(self.gram)

    def value(self, x: Sequence[Fraction], y: Sequence[Fraction]) -> Fraction:
        return dot(x, mat_vec(self.gram, y))

    @cached_property
    def gram_inverse(self) -> Matrix:
        """Inverse of the gram matrix, computed once per inner product."""
        return inverse(self.gram)

    def sharp(self, theta: Covector) -> Vector:
        """The vector metrically dual to a covector."""
        return mat_vec(self.gram_inverse, theta.coefficients)

    def restrict(self, rows: Sequence[Vector]) -> Matrix:
        """Gram matrix of the form on the given spanning rows."""
        return tuple(tuple(self.value(r, s) for s in rows) for r in rows)


@dataclass(frozen=True)
class Connection:
    dim: int
    nabla: tuple[Matrix, ...]

    def __post_init__(self) -> None:
        n = self.dim
        if len(self.nabla) != n or any(
            len(m) != n or any(len(row) != n for row in m) for m in self.nabla
        ):
            raise ValueError("connection needs one n x n matrix per basis direction")
        object.__setattr__(self, "nabla", tuple(tuple(map(_exact, m)) for m in self.nabla))

    def directional(self, x: Sequence[Fraction]) -> Matrix:
        """Matrix of the derivative along the vector x."""
        return mat_combination(x, self.nabla, self.dim)

    def apply(self, x: Sequence[Fraction], y: Sequence[Fraction]) -> Vector:
        return mat_vec(self.directional(x), y)


@dataclass(frozen=True)
class CurvatureTensor:
    """Curvature operators R[i][j] for i < j, pair-indexed; antisymmetric in (i, j)."""

    dim: int
    operators: tuple[Matrix, ...]

    def operator(self, i: int, j: int) -> Matrix:
        n = self.dim
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"need 0 <= i, j < n, got ({i}, {j}) with n={n}")
        if i == j:
            return tuple(zero_vector(n) for _ in range(n))
        if i < j:
            return self.operators[pair_index(i, j, n)]
        neg = self.operators[pair_index(j, i, n)]
        return tuple(vec_scale(Fraction(-1), row) for row in neg)

    def evaluate(self, x: Sequence[Fraction], y: Sequence[Fraction]) -> Matrix:
        if len(x) != self.dim or len(y) != self.dim:
            raise ValueError("vector length does not match the curvature dimension")
        coeffs = [x[i] * y[j] - x[j] * y[i] for i, j in pairs(self.dim)]
        return mat_combination(coeffs, self.operators, self.dim)

    def is_flat(self) -> bool:
        return all(
            is_zero_vector(row) for op in self.operators for row in op
        )

    @cached_property
    def kernel(self) -> Subspace:
        """Joint kernel of all operators: the kernel of their distinct nonzero rows."""
        # tuple comparison tries identity first, so the ZERO entries that
        # curvature leaves untouched cost no Fraction comparison
        zero = zero_vector(self.dim)
        rows = dict.fromkeys(row for op in self.operators for row in op if row != zero)
        return Subspace(self.dim, kernel(tuple(rows), self.dim))


def is_closed(algebra: LieAlgebra, theta: Covector) -> bool:
    """A left-invariant covector is closed iff it kills all basis brackets."""
    if theta.dim != algebra.dim:
        raise ValueError("covector dimension does not match the algebra")
    th = theta.coefficients
    return all(sum((th[k] * c for k, c in terms), ZERO) == 0 for _, _, terms in algebra.table)


def _koszul_matrices(algebra: LieAlgebra, gram: Matrix) -> list[Matrix]:
    """Matrices K_i with K_i[k][j] = g(D_{e_i} e_j, e_k) for the metric connection D.

    Koszul's formula on basis vectors, in Milnor's lowered structure constants
    C_abm = g([e_a, e_b], e_m): g(D_i e_j, e_k) = (C_ijk - C_ikj - C_jki) / 2.
    Each nonzero bracket is lowered once and each nonzero C_abm is scattered
    into the entries it feeds, so the work follows the nonzero constants.
    """
    n = algebra.dim
    half = Fraction(1, 2)
    k_mats = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
    for a, b, terms in algebra.table:
        # the gram matrix is symmetric, so C_abm = sum over k of C^k_ab g_mk
        for m, g_m in enumerate(gram):
            c = sum((g_m[k] * x for k, x in terms if g_m[k]), ZERO)
            if c:
                h = half * c  # C_bam = -C_abm
                k_mats[a][m][b] += h  # C_ijk with (i, j, k) = (a, b, m)
                k_mats[b][m][a] -= h  # ... and (b, a, m)
                k_mats[a][b][m] -= h  # -C_ikj with (i, k, j) = (a, b, m)
                k_mats[b][a][m] += h  # ... and (b, a, m)
                k_mats[m][b][a] -= h  # -C_jki with (j, k, i) = (a, b, m)
                k_mats[m][a][b] += h  # ... and (b, a, m)
    return [tuple(tuple(r) for r in mat) for mat in k_mats]


def levi_civita(algebra: LieAlgebra, metric: InnerProduct) -> Connection:
    """The torsion-free metric connection, from the Koszul formula."""
    if metric.dim != algebra.dim:
        raise ValueError("metric dimension does not match the algebra")
    gram_inv = metric.gram_inverse
    nabla = tuple(mat_mul(gram_inv, k) for k in _koszul_matrices(algebra, metric.gram))
    return Connection(algebra.dim, nabla)


def weyl_connection(algebra: LieAlgebra, metric: InnerProduct, theta: Covector) -> Connection:
    """Conformal modification of the metric connection by a closed covector.

    Built from the closed-form correction of the Levi-Civita connection, then
    checked at every (i, j, k) against the two identities that determine it;
    a failure raises, signaling an internal inconsistency.
    """
    if theta.dim != algebra.dim:
        raise ValueError("covector dimension does not match the algebra")
    if not is_closed(algebra, theta):
        raise ValueError("covector is not closed; no conformal connection is defined")
    lc = levi_civita(algebra, metric)
    n = algebra.dim
    th = theta.coefficients
    gram = metric.gram
    theta_terms = [(c, t) for c, t in enumerate(th) if t]
    sharp_terms = [(r, s) for r, s in enumerate(metric.sharp(theta)) if s]
    gram_terms = [[(c, g) for c, g in enumerate(row) if g] for row in gram]
    nabla = []
    for i, lc_i in enumerate(lc.nabla):
        # D_i = LC_i + theta_i I + e_i theta^T - sharp g_i^T, with g_i row i of G
        d = [list(row) for row in lc_i]
        if th[i]:
            for r in range(n):
                d[r][r] += th[i]
        for c, t in theta_terms:
            d[i][c] += t
        for r, s in sharp_terms:
            row = d[r]
            for c, g in gram_terms[i]:
                row[c] -= s * g
        nabla.append(tuple(tuple(row) for row in d))
    conn = Connection(n, tuple(nabla))

    # By Koszul, D is the only torsion-free connection with g(D_i e_j, e_k) +
    # g(e_j, D_i e_k) = 2 theta_i g_jk. Torsion fails at (i, j, k), j < i, if T(e_i, e_j)_k != 0.
    torsions = zip(pairs(n), torsion(algebra, conn))
    failures = [((j, i, k), "torsion") for (i, j), t in torsions for k, x in enumerate(t) if x]
    for i, d in enumerate(nabla):
        # entry [k][j] of G.D_i is g(D_i e_j, e_k); sum it with its transpose
        sym: dict[tuple[int, int], Fraction] = {}
        for k, row in enumerate(mat_mul(gram, d)):
            for j, x in enumerate(row):
                if x:
                    sym[j, k] = sym.get((j, k), ZERO) + x
                    sym[k, j] = sym.get((k, j), ZERO) + x
        if th[i]:
            two_theta = 2 * th[i]
            for j, terms in enumerate(gram_terms):
                for k, g in terms:
                    sym[j, k] = sym.get((j, k), ZERO) - two_theta * g
        failures += [((i, j, k), "conformal") for (j, k), x in sym.items() if x]
    if failures:
        (i, j, k), name = min(failures)
        raise RuntimeError(
            f"conformal connection cross-check failed at ({i}, {j}, {k}): the {name} identity fails"
        )
    return conn


def torsion(algebra: LieAlgebra, connection: Connection) -> tuple[Vector, ...]:
    """Torsion vectors T(e_i, e_j) = D_i e_j - D_j e_i - [e_i, e_j] for i < j,
    pair-indexed; D_i e_j is column j of nabla_i, and pairs of zeros are not subtracted."""
    n = algebra.dim
    if connection.dim != n:
        raise ValueError("connection dimension does not match the algebra")
    columns = [transpose(m) for m in connection.nabla]
    brackets = {(i, j): terms for i, j, terms in algebra.table}
    out = []
    for i, j in pairs(n):
        t = [x - y if x or y else x for x, y in zip(columns[i][j], columns[j][i])]
        for k, c in brackets.get((i, j), ()):
            t[k] -= c
        out.append(tuple(t))
    return tuple(out)


def is_torsion_free(algebra: LieAlgebra, connection: Connection) -> bool:
    return all(is_zero_vector(t) for t in torsion(algebra, connection))


def curvature(algebra: LieAlgebra, connection: Connection) -> CurvatureTensor:
    """R(e_i, e_j) = [nabla_i, nabla_j] - sum_k C^k_ij nabla_k for i < j.

    Each nabla_i is read once into rows of nonzero (column, value) pairs, the
    structure constants C^k_ij are read off the table, and only products of
    nonzero entries are accumulated.
    """
    n = algebra.dim
    if connection.dim != n:
        raise ValueError("connection dimension does not match the algebra")
    sparse = [[[(c, x) for c, x in enumerate(row) if x] for row in m] for m in connection.nabla]
    brackets = {(i, j): terms for i, j, terms in algebra.table}
    ops = []
    for i, j in pairs(n):
        a, b = sparse[i], sparse[j]
        terms = brackets.get((i, j), ())
        op = []
        for r in range(n):
            acc = [ZERO] * n
            for m, x in a[r]:
                for c, y in b[m]:
                    acc[c] += x * y
            for m, x in b[r]:
                for c, y in a[m]:
                    acc[c] -= x * y
            for k, coeff in terms:
                for c, y in sparse[k][r]:
                    acc[c] -= coeff * y
            op.append(tuple(acc))
        ops.append(tuple(op))
    return CurvatureTensor(n, tuple(ops))
