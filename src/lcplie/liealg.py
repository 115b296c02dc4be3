"""Finite-dimensional Lie algebras over Q with exact structure constants.

A LieAlgebra stores its nonzero brackets [e_i, e_j] for i < j only; the rest
follows by antisymmetry. Construction validates the Jacobi identity.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Sequence

from .linalg import (
    ONE,
    ZERO,
    Matrix,
    Subspace,
    Vector,
    _descending_chain,
    _exact,
    as_fraction,
    dot,
    identity_matrix,
    is_zero_vector,
    kernel,
    mat_mul,
    pairs,
    transpose,
    vector,
)

BracketMap = Mapping[tuple[int, int], Mapping[int, int | str | Fraction]]
# Nonzero C^k_ij of [e_i, e_j] as (i, j, ((k, C^k_ij), ...)), i < j, k ascending, by (i, j).
BracketTable = tuple[tuple[int, int, tuple[tuple[int, Fraction], ...]], ...]


def _is_index(x: object) -> bool:
    """Whether x is a basis index type: an int that is not a bool."""
    return isinstance(x, int) and not isinstance(x, bool)


def _normalize_brackets(dim: int, brackets: BracketMap) -> BracketTable:
    if dim < 1:
        raise ValueError("dimension must be positive")
    rows: dict[tuple[int, int], dict[int, Fraction]] = {}
    for (i, j), coeffs in brackets.items():
        if not (_is_index(i) and _is_index(j)):
            raise TypeError(f"bracket indices must be ints, got ({i!r}, {j!r})")
        if not (0 <= i < dim and 0 <= j < dim):
            raise ValueError(f"bracket indices ({i}, {j}) out of range for dim {dim}")
        if i == j:
            raise ValueError(f"bracket ({i}, {i}) is zero by antisymmetry; do not list it")
        sign = 1
        if i > j:
            i, j, sign = j, i, -1
        if (i, j) in rows:
            raise ValueError(f"bracket pair ({i}, {j}) given more than once")
        row = rows[(i, j)] = {}
        for k, value in coeffs.items():
            if not _is_index(k):
                raise TypeError(f"bracket coefficient index must be an int, got {k!r}")
            if not 0 <= k < dim:
                raise ValueError(f"bracket coefficient index {k} out of range")
            row[k] = sign * as_fraction(value)
    return tuple(
        (i, j, tuple(sorted((k, c) for k, c in row.items() if c)))
        for (i, j), row in sorted(rows.items()) if any(row.values())
    )


def _is_canonical(dim: int, table: object) -> bool:
    """Whether table is a BracketTable for dimension dim."""
    if not isinstance(table, tuple):
        return False
    last = (0, 0)  # every key must exceed the last, so i >= 0
    for entry in table:
        match entry:
            case tuple((i, j, tuple(terms))) if (
                _is_index(i) and _is_index(j) and last < (i, j) and i < j < dim and terms
            ):
                last, prev = (i, j), -1
            case _:
                return False
        for term in terms:
            match term:
                case tuple((k, Fraction() as c)) if _is_index(k) and prev < k < dim and c:
                    prev = k
                case _:
                    return False
    return True


def _jacobi_defects(dim: int, table: BracketTable):
    """Yield ((i, j, k), defect vector) for each violated basis triple i < j < k,
    in ascending order.

    A triple can fail only if one of its nested brackets [[e_a, e_b], e_c] is
    nonzero: (a, b) has a nonzero bracket, m is in its support and m has a
    nonzero bracket with c. Only those triples are visited, and each nested
    bracket is expanded over nonzero structure constants alone.
    """
    sparse: dict[tuple[int, int], tuple[tuple[int, Fraction], ...]] = {}
    partners: dict[int, list[int]] = {}
    for i, j, terms in table:
        sparse[(i, j)] = terms
        sparse[(j, i)] = tuple((m, -c) for m, c in terms)
        partners.setdefault(i, []).append(j)
        partners.setdefault(j, []).append(i)
    triples = {
        tuple(sorted((a, b, c)))
        for a, b, terms in table
        for m, _ in terms
        for c in partners.get(m, ())
        if c != a and c != b
    }
    for i, j, k in sorted(triples):
        acc = [ZERO] * dim
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            # [[e_a, e_b], e_c] = sum over m of C^m_ab [e_m, e_c]
            for m, x in sparse.get((a, b), ()):
                for t, y in sparse.get((m, c), ()):
                    acc[t] += x * y
        if any(acc):
            yield (i, j, k), tuple(acc)


def check_jacobi(dim: int, brackets: BracketMap) -> tuple[tuple[int, int, int], ...]:
    """Violated Jacobi triples of a candidate bracket table (empty = valid)."""
    table = _normalize_brackets(dim, brackets)
    return tuple(triple for triple, _ in _jacobi_defects(dim, table))


@dataclass(frozen=True)
class Covector:
    """A linear functional held by its coefficients on the basis."""

    coefficients: Vector

    def __post_init__(self) -> None:
        object.__setattr__(self, "coefficients", _exact(self.coefficients))

    @classmethod
    def from_values(cls, values: Iterable[int | str | Fraction]) -> "Covector":
        return cls(vector(values))

    @property
    def dim(self) -> int:
        return len(self.coefficients)

    def value(self, v: Sequence[Fraction]) -> Fraction:
        return dot(self.coefficients, v)

    def is_zero(self) -> bool:
        return is_zero_vector(self.coefficients)


@dataclass(frozen=True)
class LieAlgebra:
    dim: int
    labels: tuple[str, ...]
    table: BracketTable

    def __post_init__(self) -> None:
        n = self.dim
        if len(self.labels) != n:
            raise ValueError("label count does not match dimension")
        if len(set(self.labels)) != n:
            raise ValueError("basis labels must be distinct")
        if not _is_canonical(n, self.table):
            raise ValueError("bracket table is not in the canonical sparse form")
        violations = tuple(t for t, _ in _jacobi_defects(n, self.table))
        if violations:
            raise ValueError(f"Jacobi identity fails at basis triples {violations}")

    @classmethod
    def from_brackets(
        cls,
        dim: int,
        brackets: BracketMap,
        labels: Sequence[str] | None = None,
    ) -> "LieAlgebra":
        if labels is None:
            labels = tuple(f"e{i + 1}" for i in range(dim))
        return cls(dim, tuple(labels), _normalize_brackets(dim, brackets))

    @classmethod
    def abelian(cls, dim: int, labels: Sequence[str] | None = None) -> "LieAlgebra":
        return cls.from_brackets(dim, {}, labels)

    def basis_bracket(self, i: int, j: int) -> Vector:
        """Dense coordinates of [e_i, e_j]."""
        if not (0 <= i < self.dim and 0 <= j < self.dim):
            raise ValueError(f"need 0 <= i, j < n, got ({i}, {j}) with n={self.dim}")
        out = [ZERO] * self.dim
        key, sign = ((i, j), ONE) if i < j else ((j, i), -ONE)
        for k, c in next((terms for a, b, terms in self.table if (a, b) == key), ()):
            out[k] = sign * c
        return tuple(out)

    def bracket(self, x: Sequence[Fraction], y: Sequence[Fraction]) -> Vector:
        if len(x) != self.dim or len(y) != self.dim:
            raise ValueError("vector length does not match the algebra dimension")
        out = [ZERO] * self.dim
        for i, j, terms in self.table:
            if not ((x[i] or x[j]) and (y[i] or y[j])):
                continue
            f = x[i] * y[j] - x[j] * y[i]
            if f:
                for k, c in terms:
                    out[k] += f * c
        return tuple(out)

    def ad(self, x: Sequence[Fraction]) -> Matrix:
        """Matrix of ad_x = [x, .]; column j is the bracket with e_j."""
        cols = [self.bracket(x, row) for row in identity_matrix(self.dim)]
        return transpose(tuple(cols))

    def basis_vector(self, i: int) -> Vector:
        if not 0 <= i < self.dim:
            raise ValueError(f"need 0 <= i < n, got {i} with n={self.dim}")
        out = [ZERO] * self.dim
        out[i] = ONE
        return tuple(out)

    def full_space(self) -> Subspace:
        return Subspace.full(self.dim)

    # The invariants below are computed at most once per algebra, on first
    # use; `derived_algebra` and `killing_form` return them.

    @cached_property
    def _derived_algebra(self) -> Subspace:
        n = self.dim
        rows = []
        for _, _, terms in self.table:
            row = [ZERO] * n
            for k, c in terms:
                row[k] = c
            rows.append(row)
        return Subspace.from_vectors(rows, n)

    @cached_property
    def _killing_form(self) -> Matrix:
        n = self.dim
        ads: list[dict[tuple[int, int], Fraction]] = [{} for _ in range(n)]
        for i, j, terms in self.table:
            for k, c in terms:
                ads[i][(k, j)] = c
                ads[j][(k, i)] = -c
        out = [[ZERO] * n for _ in range(n)]
        active = [i for i in range(n) if ads[i]]  # ad_i = 0 leaves row and column i zero
        for a, i in enumerate(active):
            for j in active[a:]:
                tr = sum((c * ads[j].get((l, k), ZERO) for (k, l), c in ads[i].items()), ZERO)
                out[i][j] = out[j][i] = tr
        return tuple(tuple(row) for row in out)


def _basis_images(algebra: LieAlgebra, v: Sequence[Fraction]) -> dict[int, Vector]:
    """{i: [e_i, v]} for every i with [e_i, v] != 0, from one sweep of the table.

    The entry (i, j, C_ij) adds v_j C_ij to [e_i, v] and -v_i C_ij to [e_j, v].
    """
    n = algebra.dim
    images: dict[int, list[Fraction]] = {}
    for i, j, terms in algebra.table:
        for a, f in ((i, v[j]), (j, -v[i])):
            if f:
                row = images.get(a) or images.setdefault(a, [ZERO] * n)
                for k, c in terms:
                    row[k] += f * c
    return {i: tuple(row) for i, row in images.items() if any(row)}


def bracket_span(algebra: LieAlgebra, left: Subspace, right: Subspace) -> Subspace:
    """Span of all brackets of the two subspaces.

    [x, y] is the sum of x_i [e_i, y] over the nonzero images of y, so each
    right-hand row costs one sweep of the table; zero brackets are dropped.
    """
    n = algebra.dim
    brackets = []
    for y in right.basis:
        images = _basis_images(algebra, y)
        if not images:
            continue
        for x in left.basis:
            acc = [ZERO] * n
            for i, image in images.items():
                f = x[i]
                if f:
                    for k, c in enumerate(image):
                        if c:
                            acc[k] += f * c
            if any(acc):
                brackets.append(tuple(acc))
    return Subspace.from_vectors(brackets, n)


def derived_algebra(algebra: LieAlgebra) -> Subspace:
    """[g, g]: the span of the nonzero brackets [e_i, e_j], read off the table
    once per algebra."""
    return algebra._derived_algebra


def _derived_chain(algebra: LieAlgebra, s: Subspace) -> tuple[Subspace, ...]:
    """s, [s, s], ... until stable; each term contains the next when s is a
    subalgebra."""
    return _descending_chain(s, lambda t: bracket_span(algebra, t, t))


def derived_series(algebra: LieAlgebra) -> tuple[Subspace, ...]:
    """Chain starting at the derived algebra, repeated self-bracket, until stable."""
    return _derived_chain(algebra, derived_algebra(algebra))


def lower_central_series(algebra: LieAlgebra) -> tuple[Subspace, ...]:
    """Chain starting at the derived algebra, repeated bracket with the whole algebra."""
    full = algebra.full_space()
    return _descending_chain(derived_algebra(algebra), lambda s: bracket_span(algebra, full, s))


def is_solvable(algebra: LieAlgebra) -> bool:
    return derived_series(algebra)[-1].is_zero()


def is_nilpotent(algebra: LieAlgebra) -> bool:
    return lower_central_series(algebra)[-1].is_zero()


def is_abelian(algebra: LieAlgebra) -> bool:
    return not algebra.table


def killing_form(algebra: LieAlgebra) -> Matrix:
    """Matrix K[i][j] = trace(ad_i ad_j) on the basis, as the sum over k, l of
    ad_i[k][l] ad_j[l][k]; the nonzero entries ad_i[k][l] = C^k_il come from the
    table. Computed once per algebra."""
    return algebra._killing_form


def trace_form(algebra: LieAlgebra) -> Covector:
    """Covector x -> trace(ad_x); zero exactly for unimodular algebras."""
    values = [ZERO] * algebra.dim
    for i, j, terms in algebra.table:
        coeffs = dict(terms)
        values[i] += coeffs.get(j, ZERO)  # C^j_ij
        values[j] -= coeffs.get(i, ZERO)  # C^i_ji = -C^i_ij
    return Covector(tuple(values))


def is_unimodular(algebra: LieAlgebra) -> bool:
    return trace_form(algebra).is_zero()


def _centralizer(algebra: LieAlgebra, vectors: Iterable[Sequence[Fraction]]) -> Subspace:
    """{x : [x, v] = 0 for every given v}.

    [x, v] is the sum of x_i [e_i, v] over the nonzero images of v, so each v
    gives one constraint row per coordinate k, with entry i = [e_i, v]_k.
    """
    n = algebra.dim
    rows = []
    for v in vectors:
        by_coordinate: dict[int, list[Fraction]] = {}
        for i, image in _basis_images(algebra, v).items():
            for k, c in enumerate(image):
                if c:
                    by_coordinate.setdefault(k, [ZERO] * n)[i] = c
        rows.extend(tuple(row) for row in by_coordinate.values())
    return Subspace(n, kernel(tuple(rows), n))


def center(algebra: LieAlgebra) -> Subspace:
    return _centralizer(algebra, map(algebra.basis_vector, range(algebra.dim)))


def is_ideal(algebra: LieAlgebra, s: Subspace) -> bool:
    return all(
        s.contains(image)
        for row in s.basis
        for image in _basis_images(algebra, row).values()
    )


def is_abelian_subspace(algebra: LieAlgebra, s: Subspace) -> bool:
    rows = s.basis
    return all(
        is_zero_vector(algebra.bracket(rows[i], rows[j]))
        for i, j in pairs(len(rows))
    )


def radical(algebra: LieAlgebra) -> Subspace:
    """Maximal solvable ideal, via the Killing-orthogonal of the derived algebra.

    The result is re-checked to be a solvable ideal: an ideal whose derived
    chain ends at zero. An ideal is a subalgebra, so that chain descends.
    Failure of the check signals an internal inconsistency.
    """
    commutator = derived_algebra(algebra)
    if commutator.is_zero():
        return algebra.full_space()
    killing = killing_form(algebra)
    constraints = mat_mul(commutator.basis, killing)
    rad = Subspace(algebra.dim, kernel(constraints, algebra.dim))
    if not is_ideal(algebra, rad) or not _derived_chain(algebra, rad)[-1].is_zero():
        raise RuntimeError("radical self-check failed: computed subspace is not a solvable ideal")
    return rad


def is_semisimple(algebra: LieAlgebra) -> bool:
    return radical(algebra).is_zero()


def _bracket_defects(algebra: LieAlgebra, mats: Sequence[Matrix]) -> Iterator[Matrix]:
    """Yield [M_i, M_j] - sum_k C^k_ij M_k for i < j, in `pairs` order.

    All vanish exactly when e_i -> M_i is a Lie algebra homomorphism; for the
    matrices of a connection they are the curvature operators R(e_i, e_j).
    Each M_i is read once into rows of nonzero (column, value) pairs, the
    structure constants C^k_ij are read off the table, and only products of
    nonzero entries are accumulated.
    """
    size = len(mats[0])
    sparse = [[[(c, x) for c, x in enumerate(row) if x] for row in m] for m in mats]
    brackets = {(i, j): terms for i, j, terms in algebra.table}
    for i, j in pairs(algebra.dim):
        a, b = sparse[i], sparse[j]
        terms = brackets.get((i, j), ())
        op = []
        for r in range(size):
            acc = [ZERO] * size
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
        yield tuple(op)


def homomorphism_defect(h: LieAlgebra, mats: Sequence[Matrix], q: int) -> tuple[int, int] | None:
    """First basis pair (i, j) on which e_i -> mats[i] fails to carry the bracket
    of h to the commutator of q x q matrices, or None for a homomorphism."""
    return next(
        (pair for pair, d in zip(pairs(h.dim), _bracket_defects(h, mats)) if any(map(any, d))),
        None,
    )


def semidirect_sum(
    q: int,
    h: LieAlgebra,
    alpha: Sequence[Matrix],
    u_labels: Sequence[str] | None = None,
) -> LieAlgebra:
    """Abelian R^q extended by h acting through alpha.

    The new basis is u_1.. u_q followed by the basis of h. Unless u_labels
    names them, u_1.. u_q are labelled u1.. uq (u when q = 1), each followed
    by as many primes as it takes to differ from h's labels. Brackets are
    [x, u] = alpha(x) u for x in h, with matrices acting on coordinate
    columns (entry [r][c] is the e_r-coefficient of the image of e_c).
    alpha must be a Lie algebra homomorphism into gl(q).
    """
    if q < 1:
        raise ValueError("the abelian factor must have positive dimension")
    if len(alpha) != h.dim:
        raise ValueError("need one action matrix per basis vector of the acting algebra")
    mats = [tuple(vector(row) for row in m) for m in alpha]
    if any(len(m) != q or any(len(r) != q for r in m) for m in mats):
        raise ValueError(f"action matrices must be {q}x{q}")

    defect = homomorphism_defect(h, mats, q)
    if defect is not None:
        raise ValueError(
            f"action is not a Lie algebra homomorphism: fails on basis pair {defect}"
        )

    if u_labels is None:
        u_labels = []
        for label in ("u",) if q == 1 else [f"u{t + 1}" for t in range(q)]:
            while label in h.labels:
                label += "'"
            u_labels.append(label)
    labels = tuple(u_labels) + h.labels
    n = q + h.dim
    brackets: dict[tuple[int, int], dict[int, Fraction]] = {}
    for i in range(q):
        for j in range(h.dim):
            # [u_i, x_j] = -alpha_j u_i: column i of -alpha_j in the u block
            col = {r: -mats[j][r][i] for r in range(q) if mats[j][r][i] != 0}
            if col:
                brackets[(i, q + j)] = col
    for i, j, terms in h.table:
        brackets[(q + i, q + j)] = {q + k: c for k, c in terms}
    return LieAlgebra.from_brackets(n, brackets, labels)
