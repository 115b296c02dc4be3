"""Detection, construction and obstruction analysis of locally conformally
product structures: a closed nonzero covector together with a proper nonzero
subspace that is parallel and curvature-annihilated for the conformal
connection.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
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
    _centralizer,
    derived_algebra,
    homomorphism_defect,
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
    Subspace,
    _descending_chain,
    _exact,
    identity_matrix,
    kernel,
    pairs,
    transpose,
)

CLASS_LCP = "lcp"
CLASS_CONFORMALLY_FLAT = "conformally-flat"
CLASS_NONE = "none"


class LCPValidationError(ValueError):
    """Carries every individual invariant violation found by the validator."""

    def __init__(self, violations: Sequence[str]):
        self.violations = tuple(violations)
        super().__init__("; ".join(violations))


@dataclass(frozen=True)
class FlatFactorResult:
    subspace: Subspace
    classification: str  # CLASS_LCP, CLASS_CONFORMALLY_FLAT or CLASS_NONE
    adapted: bool


@dataclass(frozen=True)
class ConstraintReport:
    candidate: Subspace
    theta_vanishes: bool
    action_trivial: bool
    is_abelian: bool
    in_radical: bool
    in_commutator: bool
    linear_bound: Subspace


def _vanishes_on(theta: Covector, s: Subspace) -> bool:
    return all(theta.value(row) == 0 for row in s.basis)


def _invariant_part(s: Subspace, operators: Sequence[Matrix]) -> Subspace:
    """{w in s : op w in s for every op}: s restricted by the residues in s of
    the images op b_r of its canonical rows, each read once into its nonzero
    (column, value) pairs and met by the nonzero entries of those columns."""
    n = s.ambient_dim
    rows = [[(c, x) for c, x in enumerate(row) if x] for row in s.basis]
    support = {c for terms in rows for c, _ in terms}
    values: list[list[Fraction]] = [[] for _ in rows]
    for m in operators:
        columns = transpose(m)
        sparse = {c: [(r, y) for r, y in enumerate(columns[c]) if y] for c in support}
        for terms, value in zip(rows, values):
            image = [ZERO] * n
            for c, x in terms:
                for r, y in sparse[c]:
                    image[r] += x * y
            value.extend(s.residue(image))
    return s.restrict(values)


def is_parallel(algebra: LieAlgebra, connection: Connection, s: Subspace) -> bool:
    """Whether every covariant basis derivative maps s into itself."""
    if {connection.dim, s.ambient_dim} != {algebra.dim}:
        raise ValueError("algebra, connection and subspace dimensions must agree")
    return _invariant_part(s, connection.nabla).dim == s.dim


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


@dataclass(frozen=True)
class ConformalAnalysis:
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
        nabla = self.connection.nabla
        w = _descending_chain(self.curvature.kernel, lambda s: _invariant_part(s, nabla))[-1]
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


@dataclass(frozen=True)
class LCPStructure:
    """A validated structure: construction raises on any violation or wrong
    flag, and fills in `maximal` when it is None (None on a non-unimodular
    algebra, where maximality is not decided). The metric complement and the
    characteristic bound with its conditions are computed once, on first use."""

    algebra: LieAlgebra
    metric: InnerProduct
    lee_form: Covector
    flat_factor: Subspace
    adapted: bool
    maximal: bool | None
    analysis: ConformalAnalysis = field(init=False, compare=False, repr=False)

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
            Subspace(n, kernel((self.lee_form.coefficients,), n)),
            _centralizer(algebra, self.flat_factor.basis),
            radical(algebra),
            derived_algebra(algebra),
        )

    @cached_property
    def _characteristic_bound(self) -> Subspace:
        """The complement restricted by the residues of its rows in the conditions."""
        complement, conditions = self._orthocomplement, self._linear_conditions
        return complement.restrict(
            [[x for c in conditions for x in c.residue(row)] for row in complement.basis]
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


@dataclass(frozen=True)
class LCPTriple:
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
        if q < 1:
            raise ValueError("the abelian factor must have positive dimension")
        if len(self.beta) != h.dim:
            raise ValueError("need one action matrix per basis vector")
        # Fraction entries; floats and bools raise TypeError, as in Connection
        object.__setattr__(self, "beta", tuple(tuple(map(_exact, b)) for b in self.beta))
        for idx, b in enumerate(self.beta):
            if len(b) != q or any(len(row) != q for row in b):
                raise ValueError(f"action matrix {idx} is not {q}x{q}")
            if any(b[r][c] != -b[c][r] for r in range(q) for c in range(q)):
                raise ValueError(f"action matrix {idx} is not skew-symmetric")
        defect = homomorphism_defect(h, self.beta, q)
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
    alpha = []
    for i in range(h.dim):
        ident = identity_matrix(q)
        alpha.append(
            tuple(
                tuple(weight[i] * ident[r][c] + triple.beta[i][r][c] for c in range(q))
                for r in range(q)
            )
        )
    algebra = semidirect_sum(q, h, alpha)
    n = q + h.dim
    gram = [[Fraction(0)] * n for _ in range(n)]
    for i in range(q):
        gram[i][i] = Fraction(1)
    for r in range(h.dim):
        for c in range(h.dim):
            gram[q + r][q + c] = triple.h_metric.gram[r][c]
    metric = InnerProduct(tuple(tuple(row) for row in gram))
    theta = Covector(tuple([Fraction(0)] * q + weight))
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
    m = hperp.dim
    h_brackets: dict[tuple[int, int], dict[int, Fraction]] = {}
    for i, j in pairs(m):
        w = algebra.bracket(hperp.basis[i], hperp.basis[j])
        coords = hperp.coordinates_of(w)
        if coords is None:
            raise ValueError(
                "metric complement of the flat factor is not a subalgebra; "
                "the structure does not split"
            )
        h_brackets[(i, j)] = dict(enumerate(coords))  # from_brackets drops zero terms
    labels = [algebra.labels[p] for p in hperp.pivots]
    h_algebra = LieAlgebra.from_brackets(m, h_brackets, labels)
    h_metric = InnerProduct(structure.metric.restrict(hperp.basis))
    beta = []
    for x in hperp.basis:
        try:
            action = flat_factor_action(structure, x)
        except ValueError as exc:
            raise ValueError(
                "flat factor is not invariant under the complement; "
                "the structure does not split"
            ) from exc
        weight = structure.lee_form.value(x)
        beta.append(tuple(
            tuple(a - weight if r == c else a for c, a in enumerate(row))
            for r, row in enumerate(action)
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
    cols = []
    for row in u.basis:
        w = structure.algebra.bracket(x, row)
        coords = u.coordinates_of(w)
        if coords is None:
            raise ValueError("flat factor is not invariant under this element")
        cols.append(coords)
    return transpose(tuple(cols))


def conformal_exponential_residual(
    gram_u: Matrix,
    action: Matrix,
    lee_value: Fraction | float,
    t: float,
) -> float:
    """Max-norm defect of E^T G E = exp(2 t w) G for E = exp(t * action).

    The one floating-point computation in the package: the matrix
    exponential uses scaling-and-squaring (scipy).
    """
    import numpy
    from scipy.linalg import expm

    a = numpy.array([[float(x) for x in row] for row in action], dtype=float)
    g = numpy.array([[float(x) for x in row] for row in gram_u], dtype=float)
    e = expm(t * a)
    target = math.exp(2.0 * t * float(lee_value)) * g
    return float(numpy.max(numpy.abs(e.T @ g @ e - target)))


def verify_conformal_exponential(
    structure: LCPStructure,
    x: Sequence[Fraction],
    t: float,
    tol: float,
) -> bool:
    """Whether the one-parameter group of x acts conformally on the flat
    factor to within tol, with conformal factor exp(2 t theta(x))."""
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    hperp = structure.orthocomplement()
    if not hperp.contains(x):
        raise ValueError(
            "element must lie in the metric complement of the flat factor"
        )
    action = flat_factor_action(structure, x)
    gram_u = structure.metric.restrict(structure.flat_factor.basis)
    residual = conformal_exponential_residual(
        gram_u, action, structure.lee_form.value(x), t
    )
    return residual <= tol
