"""Detection, construction and obstruction analysis of locally conformally
product structures: a closed nonzero covector together with a proper nonzero
subspace that is parallel and curvature-annihilated for the conformal
connection.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .connections import (
    Connection,
    CurvatureTensor,
    InnerProduct,
    curvature,
    is_closed,
    weyl_connection,
)
from .liealg import (
    Covector,
    LieAlgebra,
    _ad_rows,
    _centralizer,
    _is_index,
    _lifted_action,
    derived_algebra,
    is_abelian_subspace,
    is_ideal,
    is_unimodular,
    radical,
    semidirect_sum,
    trace_form,
)
from .linalg import (
    ZERO,
    Matrix,
    SparseRows,
    Subspace,
    _RATIONAL,
    _Record,
    _columns,
    _dense_row,
    _descending_chain,
    _dot,
    _exact,
    _unlift,
    identity_matrix,
    transpose,
)

CLASS_LCP = "lcp"
CLASS_CONFORMALLY_FLAT = "conformally-flat"
CLASS_NONE = "none"
_NO_SPLIT = "; the structure does not split"


class LCPValidationError(ValueError):
    """Carries every individual invariant violation found by the validator."""

    def __init__(self, violations: Sequence[str]):
        self.violations = tuple(violations)
        super().__init__("; ".join(violations))


class FlatFactorResult(_Record):
    subspace: Subspace
    classification: str  # CLASS_LCP, CLASS_CONFORMALLY_FLAT or CLASS_NONE
    adapted: bool


class ConstraintReport(_Record):
    candidate: Subspace
    theta_vanishes: bool
    action_trivial: bool
    is_abelian: bool
    in_radical: bool
    in_commutator: bool
    linear_bound: Subspace


def _vanishes_on(theta: Covector, s: Subspace) -> bool:
    return not any(theta.value(row) for row in s.rows)


def _invariant_part(s: Subspace, operators: Sequence[SparseRows]) -> Subspace:
    """{w in s : op w in s for every op}, for integer operators given by their
    nonzero rows: s restricted by the residues of the images of its canonical
    rows (`Subspace._restriction`), which share one positive scale."""
    residues, _ = s._restriction(operators)
    return s.restrict([[residues[key].get(r, 0) for key in sorted(residues)] for r in range(s.dim)])


def is_parallel(algebra: LieAlgebra, connection: Connection, s: Subspace) -> bool:
    """Whether every covariant basis derivative maps s into itself: whether no
    image of a canonical row of s leaves a residue. No null space is needed."""
    if {connection.dim, s.ambient_dim} != {algebra.dim}:
        raise ValueError("algebra, connection and subspace dimensions must agree")
    residues, _ = s._restriction(connection.rows)
    return not residues


def is_flat_subspace(
    algebra: LieAlgebra,
    connection: Connection,
    curv: CurvatureTensor,
    s: Subspace,
) -> bool:
    """Parallel and annihilated by every curvature operator."""
    if curv.dim != algebra.dim:
        raise ValueError("algebra and curvature dimensions must agree")
    return is_parallel(algebra, connection, s) and curv.kernel.contains_subspace(s)


class ConformalAnalysis(_Record):
    """The conformal connection of one (algebra, metric, covector) and what
    follows from it. Each derived object is computed at most once, on first
    use, and every structure verdict comes from `violations`.
    """

    algebra: LieAlgebra
    metric: InnerProduct
    theta: Covector

    @cached_property
    def connection(self) -> Connection:
        return weyl_connection(self.algebra, self.metric, self.theta)

    @cached_property
    def curvature(self) -> CurvatureTensor:
        return curvature(self.algebra, self.connection)

    @cached_property
    def flat_factor(self) -> FlatFactorResult:
        """The sum of all flat subspaces of the conformal connection.

        Computed as the largest parallel subspace inside the joint kernel of
        the curvature operators. Requires a unimodular algebra and a nonzero
        closed covector; with those hypotheses a proper nonzero result is
        provably an abelian ideal, and that is re-checked here.
        """
        algebra, theta = self.algebra, self.theta
        if theta.is_zero():
            raise ValueError("covector must be nonzero")
        if not is_closed(algebra, theta):
            raise ValueError("covector must be closed")
        if not is_unimodular(algebra):
            raise ValueError("the flat-factor construction requires a unimodular algebra")
        rows = self.connection.rows
        w = _descending_chain(self.curvature.kernel, lambda s: _invariant_part(s, rows))[-1]
        if w.is_full():
            classification = CLASS_CONFORMALLY_FLAT
        elif w.is_zero():
            classification = CLASS_NONE
        else:
            classification = CLASS_LCP
            if not is_ideal(algebra, w) or not is_abelian_subspace(algebra, w):
                raise RuntimeError(
                    "flat factor self-check failed: proper nonzero result is not an abelian ideal"
                )
        return FlatFactorResult(w, classification, _vanishes_on(theta, w))

    def violations(self, u: Subspace) -> tuple[str, ...]:
        """Every violated requirement of u as a flat factor, by message."""
        algebra, theta = self.algebra, self.theta
        if {self.metric.dim, theta.dim, u.ambient_dim} != {algebra.dim}:
            raise ValueError("algebra, metric, covector and subspace dimensions must agree")
        problems = []
        if theta.is_zero():
            problems.append("lee covector is zero")
        elif not is_closed(algebra, theta):
            problems.append("lee covector is not closed")
        if u.is_zero():
            problems.append("flat factor is the zero subspace")
        if u.is_full():
            problems.append("flat factor is the whole algebra")
        if not problems:
            if not is_parallel(algebra, self.connection, u):
                problems.append("flat factor is not parallel for the conformal connection")
            elif not self.curvature.kernel.contains_subspace(u):
                problems.append("conformal curvature does not annihilate the flat factor")
            if is_unimodular(algebra) and not _vanishes_on(theta, u):
                problems.append(
                    "algebra is unimodular but the lee covector does not vanish on the flat factor"
                )
        return tuple(problems)


class LCPStructure(_Record):
    """A validated structure: construction raises on any violation or wrong
    flag, and fills in `maximal` when it is None (None on a non-unimodular
    algebra, where maximality is not decided). `analysis`, not a field, is the
    `ConformalAnalysis` that validated it. The metric complement and the
    characteristic bound with its conditions are computed once, on first use."""

    algebra: LieAlgebra
    metric: InnerProduct
    lee_form: Covector
    flat_factor: Subspace
    adapted: bool
    maximal: bool | None

    def __post_init__(self) -> None:
        analysis = ConformalAnalysis(self.algebra, self.metric, self.lee_form)
        problems = analysis.violations(self.flat_factor)
        if problems:
            raise LCPValidationError(problems)
        if self.adapted != _vanishes_on(self.lee_form, self.flat_factor):
            raise ValueError("adapted flag does not match the structure")
        maximal = None
        if is_unimodular(self.algebra):
            maximal = analysis.flat_factor.subspace == self.flat_factor
        if self.maximal is None:
            object.__setattr__(self, "maximal", maximal)
        elif self.maximal != maximal:
            raise ValueError("maximal flag does not match the structure")
        object.__setattr__(self, "analysis", analysis)

    def connection(self) -> Connection:
        return self.analysis.connection

    def orthocomplement(self) -> Subspace:
        """The metric complement of the flat factor."""
        return self._orthocomplement

    @cached_property
    def _orthocomplement(self) -> Subspace:
        return self.flat_factor.orthogonal_complement(self.metric.gram)

    @cached_property
    def _linear_conditions(self) -> tuple[Subspace, Subspace, Subspace, Subspace]:
        """ker theta, the centralizer of the flat factor, the radical and [g, g]."""
        algebra, n = self.algebra, self.algebra.dim
        return (
            Subspace.kernel_of((self.lee_form.coefficients,), n),
            _centralizer(algebra, self.flat_factor.rows),
            radical(algebra),
            derived_algebra(algebra),
        )

    @cached_property
    def _characteristic_bound(self) -> Subspace:
        """The complement restricted by the residues of its rows in the conditions."""
        complement = self._orthocomplement
        residues = [c._residue_rows(complement) for c in self._linear_conditions]
        return complement.restrict(
            [[x for rows in residues for x in rows[r]] for r in range(complement.dim)]
        )


def maximal_flat_factor(
    algebra: LieAlgebra, metric: InnerProduct, theta: Covector
) -> FlatFactorResult:
    """The maximal flat factor; see `ConformalAnalysis.flat_factor`."""
    return ConformalAnalysis(algebra, metric, theta).flat_factor


def lcp_violations(
    algebra: LieAlgebra,
    metric: InnerProduct,
    theta: Covector,
    u: Subspace,
) -> tuple[str, ...]:
    """Every violated requirement of the candidate structure, by message."""
    return ConformalAnalysis(algebra, metric, theta).violations(u)


def validate_lcp(
    algebra: LieAlgebra,
    metric: InnerProduct,
    theta: Covector,
    u: Subspace,
) -> LCPStructure:
    """Validated structure, or LCPValidationError carrying every violation."""
    # On mismatched dimensions the structure's own validation raises.
    adapted = theta.dim == u.ambient_dim and _vanishes_on(theta, u)
    return LCPStructure(algebra, metric, theta, u, adapted, None)


class LCPTriple(_Record):
    """A non-unimodular metric algebra acting orthogonally on an abelian R^q.

    The action matrices are one q x q matrix per basis vector of the acting
    algebra, skew-symmetric for the standard inner product on R^q.
    """

    h_algebra: LieAlgebra
    h_metric: InnerProduct
    q: int
    beta: tuple[Matrix, ...]

    def __post_init__(self) -> None:
        h, q = self.h_algebra, self.q
        if self.h_metric.dim != h.dim:
            raise ValueError("metric dimension does not match the acting algebra")
        if not (_is_index(q) and q >= 1):
            raise ValueError(f"the abelian factor dimension must be an integer >= 1, got {q!r}")
        d, rows, defect = _lifted_action(h, self.beta, q)
        for idx, m in enumerate(rows):
            if _columns(m, -1) != {r: list(terms) for r, terms in m}:  # column r is -row r
                raise ValueError(f"action matrix {idx} is not skew-symmetric")
        object.__setattr__(self, "beta", tuple(_unlift(d, m, q) for m in rows))
        if defect is not None:
            raise ValueError(f"action is not a Lie algebra homomorphism on basis pair {defect}")
        if trace_form(h).is_zero():
            raise ValueError("acting algebra must be non-unimodular")


def build_from_triple(triple: LCPTriple) -> LCPStructure:
    """Semidirect extension of the triple, carrying its canonical structure.

    The trace character of the acting algebra, scaled by -1/q, extends by
    zero to the lee covector; the action is that conformal weight times the
    identity plus the orthogonal part. The result is validated, and is
    always unimodular and adapted.
    """
    h, q = triple.h_algebra, triple.q
    character = trace_form(h)
    weight = [Fraction(-1, q) * c for c in character.coefficients]
    alpha = [
        tuple(tuple(x + w if r == c else x for c, x in enumerate(row)) for r, row in enumerate(b))
        for w, b in zip(weight, triple.beta)
    ]
    algebra = semidirect_sum(q, h, alpha)
    n = q + h.dim
    # block diagonal: the identity on the flat factor and h's metric on h
    metric = InnerProduct._orthogonal_sum(q, triple.h_metric)
    theta = Covector(tuple([ZERO] * q + weight))
    u = Subspace.from_vectors(identity_matrix(n)[:q], n)
    structure = validate_lcp(algebra, metric, theta, u)
    if not is_unimodular(algebra) or not structure.adapted:
        raise RuntimeError("triple extension self-check failed")
    return structure


def triple_from_lcp(structure: LCPStructure) -> LCPTriple:
    """Recover the acting triple from an adapted structure on a unimodular algebra.

    The acting algebra is the metric complement of the flat factor; the
    action matrices subtract the conformal weight from the bracket action on
    the flat factor. The flat factor's canonical basis must be orthonormal
    (over the rationals no orthonormalization is available in general).
    """
    algebra = structure.algebra
    if not is_unimodular(algebra):
        raise ValueError("triple extraction requires a unimodular algebra")
    if not structure.adapted:
        raise ValueError("triple extraction requires an adapted structure")
    u = structure.flat_factor
    q = u.dim
    gram_u = structure.metric.restrict(u.basis)
    if gram_u != identity_matrix(q):
        raise ValueError(
            "flat factor basis is not orthonormal; the orthogonal part of the "
            "action cannot be expressed over the rationals"
        )
    hperp = structure.orthocomplement()
    m, (b_h, lifted_h), c = hperp.dim, hperp._lifted, algebra._lifted_table[0]
    rows_h = [_dense_row(terms, algebra.dim) for _, terms in lifted_h]
    ads = [_ad_rows(algebra, row)[1] for row in rows_h]  # c ad of each B_h b_i
    _, brackets = hperp._restriction(ads)
    if brackets is None:
        raise ValueError("metric complement of the flat factor is not a subalgebra" + _NO_SPLIT)
    # [b_i, b_j], i < j, is column j of ad_{b_i} on h, whose rows are over c B_h^2
    table = tuple(
        (i, j, tuple((k, Fraction(x, c * b_h * b_h)) for k, x in columns[j]))
        for i, columns in enumerate(map(_columns, brackets)) for j in range(i + 1, m) if j in columns
    )
    h_algebra = LieAlgebra._canonical(m, tuple(algebra.labels[p] for p in hperp.pivots), table)
    h_metric = InnerProduct(structure.metric.restrict(hperp.basis))
    _, actions = u._restriction(ads)
    if actions is None:
        raise ValueError("flat factor is not invariant under the complement" + _NO_SPLIT)
    beta = []
    for row, action in zip(rows_h, actions):
        weight = structure.lee_form.value(row) / b_h
        beta.append(tuple(
            tuple(a - weight if r == k else a for k, a in enumerate(entries))
            for r, entries in enumerate(_unlift(c * b_h * u._lifted[0], action, q))
        ))
    return LCPTriple(h_algebra, h_metric, q, tuple(beta))


def characteristic_constraint_space(structure: LCPStructure) -> Subspace:
    """Linear upper bound for directions with trivial conformal character
    and trivial flat-factor action.

    Intersection, inside the metric complement of the flat factor, of: the
    kernel of the lee covector, the annihilator of the flat factor under the
    bracket, the radical, and the derived algebra. These are necessary
    conditions only. Computed once per structure.
    """
    return structure._characteristic_bound


def check_candidate(structure: LCPStructure, candidate: Subspace) -> ConstraintReport:
    """Per-condition breakdown for a candidate subspace of the complement,
    read from the subspaces that make up the characteristic bound."""
    algebra = structure.algebra
    if candidate.ambient_dim != algebra.dim:
        raise ValueError("candidate lives in the wrong ambient dimension")
    if not structure.orthocomplement().contains_subspace(candidate):
        raise ValueError(
            "candidate must lie in the metric complement of the flat factor"
        )
    theta_kernel, action_kernel, rad, derived = structure._linear_conditions
    return ConstraintReport(
        candidate=candidate,
        theta_vanishes=theta_kernel.contains_subspace(candidate),
        action_trivial=action_kernel.contains_subspace(candidate),
        is_abelian=is_abelian_subspace(algebra, candidate),
        in_radical=rad.contains_subspace(candidate),
        in_commutator=derived.contains_subspace(candidate),
        linear_bound=structure._characteristic_bound,
    )


def flat_factor_action(structure: LCPStructure, x: Sequence[Fraction]) -> Matrix:
    """Rational matrix of the bracket action of x on the flat factor basis."""
    u = structure.flat_factor
    d, ad = _ad_rows(structure.algebra, x)
    _, action = u._restriction([ad])
    if action is None:
        raise ValueError("flat factor is not invariant under this element")
    return _unlift(d * u._lifted[0], next(action), u.dim)


def conformal_exponential_residual(
    gram_u: Matrix,
    action: Matrix,
    lee_value: Fraction | float,
    t: float,
) -> float:
    """Max-norm defect of E^T G E = exp(2 t w) G for E = exp(t * action).

    The one floating-point computation in the package: the matrix
    exponential uses scaling-and-squaring (scipy, from the `numeric` extra).
    """
    import numpy
    from scipy.linalg import expm

    a = numpy.array([[float(x) for x in row] for row in action], dtype=float)
    g = numpy.array([[float(x) for x in row] for row in gram_u], dtype=float)
    e = expm(t * a)
    target = math.exp(2.0 * t * float(lee_value)) * g
    return float(numpy.max(numpy.abs(e.T @ g @ e - target)))


def is_conformal_action(gram_u: Matrix, action: Matrix, lee_value: Fraction) -> bool:
    """Whether A^T G + G A = 2 w G holds exactly for A = action, G = gram_u
    and w = lee_value. E(t) = exp(t A) satisfies E^T G E = exp(2 t w) G for
    every t if and only if it does: differentiate exp(-2 t w) E^T G E.
    Entries are read as in `vector`, so a float raises TypeError; a gram_u
    that is not symmetric raises ValueError, as in `InnerProduct`."""
    gram_u, action = (tuple(map(_exact, m)) for m in (gram_u, action))
    q = len(gram_u)
    if len(action) != q or any(len(row) != q for row in gram_u + action):
        raise ValueError("gram_u and action must be square matrices of one size")
    if any(gram_u[r][c] != gram_u[c][r] for r in range(q) for c in range(r)):
        raise ValueError("gram_u must be symmetric")
    two_w = 2 * _exact((lee_value,), _RATIONAL)[0]
    ga = [[_dot(row, col) for col in transpose(action)] for row in gram_u]
    # (A^T G)[r][c] = (G A)[c][r], as G is symmetric
    return all(
        ga[c][r] + ga[r][c] == two_w * g for r, row in enumerate(gram_u) for c, g in enumerate(row)
    )


def verify_conformal_exponential(
    structure: LCPStructure,
    x: Sequence[Fraction],
    t: float,
    tol: float,
) -> bool:
    """Whether the one-parameter group of x acts conformally on the flat
    factor, with conformal factor exp(2 t theta(x)).

    The verdict is exact, `is_conformal_action` of the action of x, and the
    same for every t. t and a positive tol are the arguments of the numeric
    cross-check, `conformal_exponential_residual`, which this does not run.
    """
    if not tol > 0:  # NaN compares false both ways
        raise ValueError("tolerance must be positive")
    hperp = structure.orthocomplement()
    if not hperp.contains(x):
        raise ValueError(
            "element must lie in the metric complement of the flat factor"
        )
    action = flat_factor_action(structure, x)
    gram_u = structure.metric.restrict(structure.flat_factor.basis)
    return is_conformal_action(gram_u, action, structure.lee_form.value(x))
