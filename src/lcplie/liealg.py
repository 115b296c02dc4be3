"""Finite-dimensional Lie algebras over Q with exact structure constants.

A LieAlgebra stores its nonzero brackets [e_i, e_j] for i < j only; the rest
follows by antisymmetry. Construction validates the Jacobi identity.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Iterable, Iterator, Mapping, Sequence

from .linalg import (
    ONE,
    ZERO,
    Matrix,
    SparseRows,
    Subspace,
    Vector,
    _RATIONAL,
    _Record,
    _add_product,
    _columns,
    _dense_row,
    _descending_chain,
    _exact,
    _lift,
    _scaled,
    _sparse,
    _unlift,
    _unlift_row,
    as_fraction,
    dot,
    is_zero_vector,
    pairs,
    vector,
)

BracketMap = Mapping[tuple[int, int], Mapping[int, int | str | Fraction]]
# Nonzero C^k_ij of [e_i, e_j] as (i, j, ((k, C^k_ij), ...)), i < j, k ascending, by (i, j).
BracketTable = tuple[tuple[int, int, tuple[tuple[int, Fraction], ...]], ...]
# The same brackets times a common denominator c, as {(i, j): ((k, c C^k_ij), ...)}.
LiftedBrackets = dict[tuple[int, int], tuple[tuple[int, int], ...]]


def _is_index(x: object) -> bool:
    """Whether x is a basis index type: an int that is not a bool."""
    return isinstance(x, int) and not isinstance(x, bool)


def _check_dim(dim: object) -> None:
    if not (_is_index(dim) and dim >= 1):
        raise ValueError("dimension must be positive")


def _normalize_brackets(dim: int, brackets: BracketMap) -> BracketTable:
    _check_dim(dim)
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


def _lift_table(table: BracketTable) -> tuple[int, LiftedBrackets]:
    """(c, brackets): the least common denominator c of the structure constants
    and the table's nonzero brackets times c."""
    c = lcm(*{x.denominator for _, _, terms in table for _, x in terms})
    return c, {
        (i, j): tuple((k, x.numerator * (c // x.denominator)) for k, x in terms)
        for i, j, terms in table
    }


def _jacobi_defects(brackets: LiftedBrackets) -> Iterator[tuple[int, int, int]]:
    """Yield each violated basis triple (i, j, k), i < j < k, in ascending
    order, from the integer brackets of `_lift_table`.

    A triple can fail only if one of its nested brackets [[e_a, e_b], e_c] is
    nonzero: (a, b) has a nonzero bracket, m is in its support and m has a
    nonzero bracket with c. Only those triples are visited, and each nested
    bracket is expanded over nonzero structure constants alone, on ints.
    """
    sparse: LiftedBrackets = {}
    partners: dict[int, list[int]] = {}
    for (i, j), terms in brackets.items():
        sparse[(i, j)] = terms
        sparse[(j, i)] = tuple((m, -x) for m, x in terms)
        partners.setdefault(i, []).append(j)
        partners.setdefault(j, []).append(i)
    triples = {
        tuple(sorted((a, b, c)))
        for (a, b), terms in brackets.items()
        for m, _ in terms
        for c in partners.get(m, ())
        if c != a and c != b
    }
    for i, j, k in sorted(triples):
        acc: dict[int, int] = {}
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            # [[e_a, e_b], e_c] = sum over m of C^m_ab [e_m, e_c]
            for m, x in sparse.get((a, b), ()):
                for t, y in sparse.get((m, c), ()):
                    acc[t] = acc.get(t, 0) + x * y
        if any(acc.values()):
            yield i, j, k


def check_jacobi(dim: int, brackets: BracketMap) -> tuple[tuple[int, int, int], ...]:
    """Violated Jacobi triples of a candidate bracket table (empty = valid)."""
    return tuple(_jacobi_defects(_lift_table(_normalize_brackets(dim, brackets))[1]))


class Covector(_Record):
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


class LieAlgebra(_Record):
    """The constructor checks the dimension, the labels, that the table is in
    the canonical sparse form and the Jacobi identity. Tables that are
    canonical by construction (`from_brackets`, `semidirect_sum`, parsed
    documents and the acting algebra of `lcp.triple_from_lcp`) come through
    `_canonical`, which skips only the form check."""

    dim: int
    labels: tuple[str, ...]
    table: BracketTable

    def __post_init__(self) -> None:
        _check_dim(self.dim)
        self._check(known_canonical=False)

    @classmethod
    def _canonical(cls, dim: int, labels: tuple[str, ...], table: BracketTable) -> "LieAlgebra":
        """The algebra of a positive dim and a table in the canonical sparse form,
        which is not checked again; the labels and the Jacobi identity are."""
        out = object.__new__(cls)
        object.__setattr__(out, "dim", dim)
        object.__setattr__(out, "labels", labels)
        object.__setattr__(out, "table", table)
        out._check(known_canonical=True)
        return out

    def _check(self, known_canonical: bool) -> None:
        """Raise ValueError unless the labels are nonempty strings, one per basis
        vector and distinct, the table is in the canonical sparse form (read
        unless known_canonical) and the brackets satisfy the Jacobi identity."""
        n = self.dim
        if len(self.labels) != n:
            raise ValueError("label count does not match dimension")
        if any(not isinstance(s, str) or not s for s in self.labels):
            raise ValueError("basis labels must be nonempty strings")
        if len(set(self.labels)) != n:
            raise ValueError("basis labels must be distinct")
        if not (known_canonical or _is_canonical(n, self.table)):
            raise ValueError("bracket table is not in the canonical sparse form")
        if violations := tuple(_jacobi_defects(self._lifted_table[1])):
            raise ValueError(f"Jacobi identity fails at basis triples {violations}")

    @classmethod
    def from_brackets(
        cls,
        dim: int,
        brackets: BracketMap,
        labels: Sequence[str] | None = None,
    ) -> "LieAlgebra":
        table = _normalize_brackets(dim, brackets)
        if labels is None:
            labels = tuple(f"e{i + 1}" for i in range(dim))
        return cls._canonical(dim, tuple(labels), table)

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
        if len(y) != self.dim:
            raise ValueError("vector length does not match the algebra dimension")
        d, rows = _ad_rows(self, x)
        scale, y = _scaled(y)
        image = ((k, sum(v * y[j] for j, v in terms)) for k, terms in rows)
        return _unlift_row(d * scale, image, self.dim)

    def ad(self, x: Sequence[Fraction]) -> Matrix:
        """Matrix of ad_x = [x, .]; column j is the bracket with e_j."""
        return _unlift(*_ad_rows(self, x), self.dim)

    def basis_vector(self, i: int) -> Vector:
        if not 0 <= i < self.dim:
            raise ValueError(f"need 0 <= i < n, got {i} with n={self.dim}")
        out = [ZERO] * self.dim
        out[i] = ONE
        return tuple(out)

    def full_space(self) -> Subspace:
        return Subspace.full(self.dim)

    # The invariants below are computed at most once per algebra, on first
    # use; `derived_algebra`, `derived_series`, `lower_central_series`,
    # `trace_form` and `killing_form` return them.

    @cached_property
    def _derived_algebra(self) -> Subspace:
        n = self.dim
        return Subspace.from_vectors([_dense_row(t, n) for t in self._lifted_table[1].values()], n)

    @cached_property
    def _derived_series(self) -> tuple[Subspace, ...]:
        return _derived_chain(self, self._derived_algebra)

    @cached_property
    def _lower_central_series(self) -> tuple[Subspace, ...]:
        return _descending_chain(self._derived_algebra, lambda s: _algebra_bracket(self, s))

    @cached_property
    def _lifted_table(self) -> tuple[int, LiftedBrackets]:
        return _lift_table(self.table)

    @cached_property
    def _trace_form(self) -> Covector:
        values = [ZERO] * self.dim
        for i, j, terms in self.table:
            coeffs = dict(terms)
            values[i] += coeffs.get(j, ZERO)  # C^j_ij
            values[j] -= coeffs.get(i, ZERO)  # C^i_ji = -C^i_ij
        return Covector(tuple(values))

    @cached_property
    def _killing_form(self) -> Matrix:
        n = self.dim
        c, brackets = self._lifted_table
        # c ad_i as {(k, l): int}: the traces below are over c^2
        ads: list[dict[tuple[int, int], int]] = [{} for _ in range(n)]
        for (i, j), terms in brackets.items():
            for k, x in terms:
                ads[i][(k, j)] = x
                ads[j][(k, i)] = -x
        out = [[ZERO] * n for _ in range(n)]
        active = [i for i in range(n) if ads[i]]  # ad_i = 0 leaves row and column i zero
        for a, i in enumerate(active):
            for j in active[a:]:
                if tr := sum(x * ads[j].get((l, k), 0) for (k, l), x in ads[i].items()):
                    out[i][j] = out[j][i] = Fraction(tr, c * c)
        return tuple(tuple(row) for row in out)


def _basis_images(algebra: LieAlgebra, w: Sequence[int]) -> dict[int, dict[int, int]]:
    """{i: {k: int}}, the nonzero images c [e_i, w] of an integer vector w from
    one sweep of the integer table (`_lifted_table`, denominator c). They share
    the scale c, so the spans and kernels built from them are those of the
    [e_i, w]."""
    if len(w) != algebra.dim:
        raise ValueError("vector length does not match the algebra dimension")
    images: dict[int, dict[int, int]] = {}
    for (i, j), terms in algebra._lifted_table[1].items():
        for a, f in ((i, w[j]), (j, -w[i])):
            if f:
                row = images.setdefault(a, {})
                get = row.get
                for k, x in terms:
                    row[k] = get(k, 0) + f * x
    return {i: nz for i, row in images.items() if (nz := {k: x for k, x in row.items() if x})}


def _ad_rows(algebra: LieAlgebra, x: Sequence[int | Fraction]) -> tuple[int, SparseRows]:
    """(d, rows): ad_x over the denominator d = c L by its nonzero integer rows,
    for x times the lcm L of its denominators (`_scaled`; floats and bools raise
    TypeError). Column j is c [L x, e_j] = -c [e_j, L x], an image of L x."""
    scale, x = _scaled(x)
    images = sorted((j, tuple(image.items())) for j, image in _basis_images(algebra, x).items())
    rows = sorted((k, tuple(terms)) for k, terms in _columns(images, -1).items())
    return algebra._lifted_table[0] * scale, tuple(rows)


def bracket_span(algebra: LieAlgebra, left: Subspace, right: Subspace) -> Subspace:
    """Span of all brackets of the two subspaces.

    [x, y] is the sum of x_i [e_i, y] over the nonzero images of y, so each
    right-hand row costs one sweep of the table; both sides enter as their
    integer rows, and zero brackets are dropped.
    """
    n = algebra.dim
    if {left.ambient_dim, right.ambient_dim} != {n}:
        raise ValueError("subspace dimension does not match the algebra")
    brackets = []
    for y in right.rows:
        images = _basis_images(algebra, y).items()
        for x in left.rows:
            acc = [0] * n
            for i, image in images:
                if f := x[i]:
                    for k, c in image.items():
                        acc[k] += f * c
            if any(acc):
                brackets.append(acc)
    return Subspace.from_vectors(brackets, n)


def derived_algebra(algebra: LieAlgebra) -> Subspace:
    """[g, g]: the span of the nonzero brackets [e_i, e_j], read off the table
    once per algebra."""
    return algebra._derived_algebra


def _derived_chain(algebra: LieAlgebra, s: Subspace) -> tuple[Subspace, ...]:
    """s, [s, s], ... until stable; each term contains the next when s is a
    subalgebra."""
    return _descending_chain(s, lambda t: bracket_span(algebra, t, t))


def _algebra_bracket(algebra: LieAlgebra, s: Subspace) -> Subspace:
    """[g, s]: the span of the table images [e_i, y] of the rows y of s."""
    n = algebra.dim
    return Subspace.from_vectors(
        [_dense_row(image.items(), n) for y in s.rows for image in _basis_images(algebra, y).values()],
        n,
    )


def derived_series(algebra: LieAlgebra) -> tuple[Subspace, ...]:
    """Chain starting at the derived algebra, repeated self-bracket, until
    stable; computed once per algebra."""
    return algebra._derived_series


def lower_central_series(algebra: LieAlgebra) -> tuple[Subspace, ...]:
    """Chain starting at the derived algebra, repeated bracket with the whole
    algebra, until stable; computed once per algebra."""
    return algebra._lower_central_series


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
    """Covector x -> trace(ad_x), zero exactly for unimodular algebras; once per algebra."""
    return algebra._trace_form


def is_unimodular(algebra: LieAlgebra) -> bool:
    return algebra._trace_form.is_zero()


def _centralizer(algebra: LieAlgebra, vectors: Iterable[Sequence[int]]) -> Subspace:
    """{x : [x, v] = 0 for every given integer vector v}: the joint kernel of the
    ad_v, whose rows are the negated images [e_i, v] read at each coordinate."""
    n = algebra.dim
    rows = [_dense_row(terms, n) for v in vectors for _, terms in _ad_rows(algebra, v)[1]]
    return Subspace.kernel_of(rows, n)


def center(algebra: LieAlgebra) -> Subspace:
    """{x : [x, e_j] = 0 for every j}, from one sweep of the integer table:
    the sum of x_i [e_i, e_j] over i gives one constraint row per (j, k),
    with entry i = c [e_i, e_j]_k."""
    n = algebra.dim
    rows: dict[tuple[int, int], list[int]] = {}
    for (i, j), terms in algebra._lifted_table[1].items():
        for k, x in terms:
            rows.setdefault((j, k), [0] * n)[i] = x
            rows.setdefault((i, k), [0] * n)[j] = -x  # [e_j, e_i] = -[e_i, e_j]
    return Subspace.kernel_of(list(rows.values()), n)


def is_ideal(algebra: LieAlgebra, s: Subspace) -> bool:
    return not any(
        any(s._integer_residue(image).values())
        for row in s.rows
        for image in _basis_images(algebra, row).values()
    )


def is_abelian_subspace(algebra: LieAlgebra, s: Subspace) -> bool:
    return bracket_span(algebra, s, s).is_zero()


def radical(algebra: LieAlgebra) -> Subspace:
    """Maximal solvable ideal, via the Killing-orthogonal of the derived algebra.

    The result is re-checked to be a solvable ideal: an ideal whose derived
    chain ends at zero. An ideal is a subalgebra, so that chain descends.
    The whole algebra is an ideal, and its derived chain is the derived
    series with g in front (or the series itself when [g, g] = g), so for a
    radical equal to g the check reads the cached series.
    Failure of the check signals an internal inconsistency.
    """
    commutator = derived_algebra(algebra)
    if commutator.is_zero():
        return algebra.full_space()
    rad = commutator.orthogonal_complement(killing_form(algebra))
    if rad.is_full():
        solvable = derived_series(algebra)[-1].is_zero()
    else:
        solvable = is_ideal(algebra, rad) and _derived_chain(algebra, rad)[-1].is_zero()
    if not solvable:
        raise RuntimeError("radical self-check failed: computed subspace is not a solvable ideal")
    return rad


def is_semisimple(algebra: LieAlgebra) -> bool:
    return radical(algebra).is_zero()


def _bracket_defects(
    algebra: LieAlgebra, d: int, mats: Sequence[SparseRows]
) -> Iterator[SparseRows]:
    """Yield the nonzero rows of d^2 c ([M_i, M_j] - sum_k C^k_ij M_k) for
    i < j, in `pairs` order, where d M_i = mats[i] and c is the common
    denominator of the structure constants (`LieAlgebra._lifted_table`).

    All vanish exactly when e_i -> M_i is a Lie algebra homomorphism; for the
    matrices of a connection they are the curvature operators R(e_i, e_j).
    The work is on Python ints and follows the nonzero entries.
    """
    c, brackets = algebra._lifted_table
    # the columns of c M_i and -c M_i, the left factors of M_i M_j and -M_j M_i
    plus = [_columns(m, c) for m in mats]
    minus = [_columns(m, -c) for m in mats]
    for i, j in pairs(algebra.dim):
        acc: dict[int, dict[int, int]] = {}
        if mats[i] and mats[j]:  # else [M_i, M_j] = 0
            _add_product(acc, plus[i], mats[j])
            _add_product(acc, minus[j], mats[i])
        for k, f in brackets.get((i, j), ()):
            # -d c C^k_ij M_k: the product of the scalar matrix -d f with M_k
            _add_product(acc, {r: ((r, -d * f),) for r, _ in mats[k]}, mats[k])
        yield _sparse(acc)


def _lifted_action(
    h: LieAlgebra, mats: Sequence[Matrix], q: int
) -> tuple[int, tuple[SparseRows, ...], tuple[int, int] | None]:
    """(d, rows, defect): the q x q action matrices, read as in `vector`, over their common
    denominator d (`_lift`), and the first basis pair on which they fail to be a homomorphism."""
    if len(mats) != h.dim:
        raise ValueError("need one action matrix per basis vector of the acting algebra")
    mats = [tuple(_exact(row, _RATIONAL) for row in m) for m in mats]
    for idx, m in enumerate(mats):
        if len(m) != q or any(len(r) != q for r in m):
            raise ValueError(f"action matrix {idx} is not {q}x{q}")
    d, rows = _lift(mats)
    return d, rows, next((p for p, m in zip(pairs(h.dim), _bracket_defects(h, d, rows)) if m), None)


def homomorphism_defect(h: LieAlgebra, mats: Sequence[Matrix], q: int) -> tuple[int, int] | None:
    """First basis pair (i, j) on which e_i -> mats[i] fails to carry the bracket
    of h to the commutator of q x q matrices, or None for a homomorphism."""
    return _lifted_action(h, mats, q)[2]


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
    if not (_is_index(q) and q >= 1):
        raise ValueError(f"the abelian factor dimension must be an integer >= 1, got {q!r}")
    d, rows, defect = _lifted_action(h, alpha, q)
    if defect is not None:
        raise ValueError(f"action is not a Lie algebra homomorphism: fails on basis pair {defect}")

    if u_labels is None:
        u_labels = []
        for label in ("u",) if q == 1 else [f"u{t + 1}" for t in range(q)]:
            while label in h.labels:
                label += "'"
            u_labels.append(label)
    # [u_c, x_j] = -alpha_j u_c: entry (r, c) of d alpha_j gives u_r the coefficient -x / d
    columns = [_columns(m) for m in rows]
    table = tuple(
        (c, q + j, tuple((r, Fraction(-x, d)) for r, x in columns[j][c]))
        for c in range(q) for j in range(h.dim) if c in columns[j]
    ) + tuple((q + i, q + j, tuple((q + k, x) for k, x in terms)) for i, j, terms in h.table)
    return LieAlgebra._canonical(q + h.dim, tuple(u_labels) + h.labels, table)
