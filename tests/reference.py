"""Exact reference routes for the tests.

Each quantity that the engine computes has one route here, written from its
textbook definition on dense `Fraction` matrices. The one deliberate second
route is `permutation_det`, which checks `det` without elimination.

A route takes its input from an engine object's stored fields: a Lie
algebra's `dim`, `table` and `labels`, a subspace's `ambient_dim` and
`rows`, a metric's `gram`, a covector's `coefficients`, a lattice
endomorphism's `matrix`. The arithmetic between input and result is this
module's own. Where a route returns a subspace, it packs its own rref rows
through `Subspace.from_vectors` (`span`), so that a test compares with the
engine through `Subspace` equality; that constructor and that equality, and
the `dim` on which `flat_factor`'s fixed point stops, are the engine code
that the routes rely on.

The section on stored forms spells out, condition by condition, the forms
that the public constructors check by rebuilding: a bracket table, the
integer echelon rows of a subspace, and the integer operators of a
connection or curvature tensor.

The last section keeps copies of earlier engine code that pin what no
textbook route gives: printed text, argparse's messages, and the U and V of
a Smith normal form, which are not unique.
"""
from __future__ import annotations

import argparse
import functools
import sys
from fractions import Fraction
from itertools import combinations, permutations, product
from math import gcd, lcm

from lcplie import cli, linalg
from lcplie.connections import InnerProduct
from lcplie.lattice import NonDensityWitness, SplittingVerdict
from lcplie.lcp import LCPTriple
from lcplie.liealg import LieAlgebra
from lcplie.linalg import Subspace

F = Fraction


# Matrices


def identity(n):
    return tuple(tuple(F(int(r == c)) for c in range(n)) for r in range(n))


def transpose(m):
    return tuple(zip(*m))


def mat_mul(a, b):
    """The schoolbook product: entry (r, c) is the sum over t of a[r][t] b[t][c].
    Zero entries of a are skipped, and a product of int matrices is ints."""
    ncols = len(b[0]) if b else 0
    return tuple(
        tuple(sum((x * row[c] for x, row in zip(r, b, strict=True) if x), 0) for c in range(ncols))
        for r in a
    )


def mat_vec(m, v):
    return tuple(sum((x * y for x, y in zip(row, v, strict=True) if x), F(0)) for row in m)


def combination(coeffs, mats, size):
    """The size x size matrix sum of coeffs[i] * mats[i]."""
    out = [[F(0)] * size for _ in range(size)]
    for f, m in zip(coeffs, mats, strict=True):
        if f:
            for row, m_row in zip(out, m):
                for c, y in enumerate(m_row):
                    if y:
                        row[c] += f * y
    return tuple(map(tuple, out))


def commutator(a, b):
    return tuple(
        tuple(x - y for x, y in zip(r, s)) for r, s in zip(mat_mul(a, b), mat_mul(b, a))
    )


# Elimination: one Fraction Gauss-Jordan pass, and what is read from it


def _gauss_jordan(rows):
    """(reduced rows, pivot columns, scale): Gauss-Jordan elimination with row
    exchanges, each pivot row divided by its pivot. scale is the product of
    the pivots, negated once per row exchange, so that a square matrix of full
    rank has determinant scale."""
    work = [[F(x) for x in row] for row in rows]
    ncols = len(work[0]) if work else 0
    pivots, scale, r = [], F(1), 0
    for c in range(ncols):
        if r == len(work):
            break
        k = next((i for i in range(r, len(work)) if work[i][c]), None)
        if k is None:
            continue
        if k != r:
            work[r], work[k] = work[k], work[r]
            scale = -scale
        pivot = work[r][c]
        scale *= pivot
        work[r] = [x / pivot for x in work[r]]
        for i, row in enumerate(work):
            if i != r and row[c]:
                f = row[c]
                work[i] = [x - f * y for x, y in zip(row, work[r])]
        pivots.append(c)
        r += 1
    return tuple(map(tuple, work[:r])), tuple(pivots), scale


def rref(rows):
    """The reduced row echelon form: (nonzero rows, pivot columns)."""
    reduced, pivots, _ = _gauss_jordan(rows)
    return reduced, pivots


def rank(rows):
    return len(_gauss_jordan(rows)[1])


def det(a):
    """The determinant of a square matrix; 1 for the 0 x 0 matrix."""
    _, pivots, scale = _gauss_jordan(a)
    return scale if len(pivots) == len(a) else F(0)


def permutation_det(a):
    """The Leibniz expansion: the sum over permutations p of sign(p) times the
    product of a[i][p(i)]. It shares nothing with elimination, so it checks
    `det` from outside; usable up to 5 x 5 or so."""
    n = len(a)
    total = F(0)
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i, j in combinations(range(n), 2))
        term = F((-1) ** inversions)
        for i in range(n):
            term *= a[i][perm[i]]
        total += term
    return total


def kernel(rows, ncols=None):
    """The null space {v : rows v = 0} in reduced echelon form: one vector per
    free column of the rref, then the rref of those vectors. ncols is the
    width when there are no rows."""
    reduced, pivots = rref(rows)
    n = len(rows[0]) if rows else ncols
    vectors = []
    for f in range(n):
        if f not in pivots:
            v = [F(int(c == f)) for c in range(n)]
            for row, p in zip(reduced, pivots):
                v[p] = -row[f]
            vectors.append(v)
    return rref(vectors)[0]


def inverse(a):
    """The right half of the rref of [A | I]; ValueError when A is singular."""
    n = len(a)
    reduced, pivots = rref([list(row) + list(e) for row, e in zip(a, identity(n))])
    if pivots != tuple(range(n)):
        raise ValueError("singular matrix")
    return tuple(row[n:] for row in reduced)


def leading_minor_failure(gram):
    """Sylvester's criterion one minor at a time: the first k whose leading
    k x k minor is not positive, or None for a positive definite matrix."""
    for k in range(1, len(gram) + 1):
        if det(tuple(row[:k] for row in gram[:k])) <= 0:
            return k
    return None


def signature(a):
    """(positive, negative, zero) of a symmetric matrix by Fraction congruence
    over every entry: diagonal pivots first, else row and column addition of
    an off-diagonal partner."""
    n = len(a)
    work = [list(row) for row in a]
    pos = neg = zero = 0
    for s in range(n):
        if work[s][s] == 0:
            t = next((t for t in range(s + 1, n) if work[t][t] != 0), None)
            if t is not None:
                work[s], work[t] = work[t], work[s]
                for row in work:
                    row[s], row[t] = row[t], row[s]
            else:
                t = next((t for t in range(s + 1, n) if work[s][t] != 0), None)
                if t is None:
                    zero += 1
                    continue
                for c in range(n):
                    work[s][c] += work[t][c]
                for r in range(n):
                    work[r][s] += work[r][t]
        d = work[s][s]
        for t in range(s + 1, n):
            if work[t][s] != 0:
                f = work[t][s] / d
                for c in range(n):
                    work[t][c] -= f * work[s][c]
                for r in range(n):
                    work[r][t] -= f * work[r][s]
        if d > 0:
            pos += 1
        else:
            neg += 1
    return pos, neg, zero


def primitive(v):
    """The primitive integer multiple of a rational vector, its sign kept."""
    scale = lcm(*(F(x).denominator for x in v))
    ints = [int(x * scale) for x in v]
    g = gcd(*ints) or 1
    return tuple(x // g for x in ints)


# Subspaces, read from their stored rows


def span(rows, n):
    """The engine's subspace spanned by rows, built from their rref."""
    return Subspace.from_vectors(rref(rows)[0], n)


@functools.lru_cache(maxsize=4096)
def _echelon(rows):
    return rref(rows)


def echelon(s):
    """(canonical basis, pivots) of a subspace: the rref of its stored rows."""
    return _echelon(tuple(map(tuple, s.rows)))


def basis(s):
    return echelon(s)[0]


def _residue(reduced, pivots, v):
    out = [F(x) for x in v]
    for row, p in zip(reduced, pivots):
        if f := out[p]:
            out = [x - f * y for x, y in zip(out, row, strict=True)]
    return tuple(out)


def residue(s, v):
    """v minus sum over the pivots p of v[p] b_p, for the canonical basis b of s:
    zero exactly when v lies in s."""
    return _residue(*echelon(s), v)


def coordinates(s, v):
    """The coordinates of v in the canonical basis of s, or None outside s."""
    reduced, pivots = echelon(s)
    return None if any(_residue(reduced, pivots, v)) else tuple(F(v[p]) for p in pivots)


def intersection(a, b):
    """The kernel of the stacked constraint rows of a and b, each a kernel."""
    n = a.ambient_dim
    return span(kernel(kernel(a.rows, n) + kernel(b.rows, n), n), n)


def orthocomplement(s, gram):
    """{x : g(b, x) = 0 for every basis row b of s}."""
    n = s.ambient_dim
    return span(kernel(mat_mul(basis(s), gram), n), n)


# Lie brackets, read from the table


@functools.cache
def structure_constants(n, table):
    """c[i][j] = [e_i, e_j] as a dense vector, from a table of (i, j, terms)
    with i < j and terms the nonzero (k, coefficient) pairs."""
    c = [[[F(0)] * n for _ in range(n)] for _ in range(n)]
    for i, j, terms in table:
        for k, x in terms:
            c[i][j][k] = F(x)
            c[j][i][k] = -F(x)
    return tuple(tuple(map(tuple, row)) for row in c)


def bracket(c, x, y):
    """[x, y] = sum over i, j of x_i y_j [e_i, e_j]."""
    n = len(c)
    out = [F(0)] * n
    for i, a in enumerate(x):
        for j, b in enumerate(y):
            if a and b:
                for k, v in enumerate(c[i][j]):
                    if v:
                        out[k] += a * b * v
    return tuple(out)


def ad(c, i):
    """The matrix of ad_{e_i}: column j is [e_i, e_j]."""
    return transpose(c[i])


def jacobiator(c, x, y, z):
    """[[x, y], z] + [[y, z], x] + [[z, x], y]."""
    terms = (bracket(c, bracket(c, x, y), z), bracket(c, bracket(c, y, z), x),
             bracket(c, bracket(c, z, x), y))
    return tuple(map(sum, zip(*terms)))


def jacobi_defects(c):
    """Every (i, j, k) with i < j < k whose basis jacobiator is not zero, with it."""
    e = identity(len(c))
    out = []
    for i, j, k in combinations(range(len(c)), 3):
        defect = jacobiator(c, e[i], e[j], e[k])
        if any(defect):
            out.append(((i, j, k), defect))
    return out


def homomorphism_defect(c, mats):
    """The first pair i < j with [M_i, M_j] != sum over k of c^k_ij M_k, or None."""
    size = len(mats[0]) if mats else 0
    for i, j in combinations(range(len(c)), 2):
        if commutator(mats[i], mats[j]) != combination(c[i][j], mats, size):
            return (i, j)
    return None


def trace_form(c):
    """tr ad_{e_i} for each i."""
    return tuple(sum((c[i][j][j] for j in range(len(c))), F(0)) for i in range(len(c)))


def killing_form(c):
    """tr(ad_{e_i} ad_{e_j})."""
    n = len(c)
    ads = [ad(c, i) for i in range(n)]
    return tuple(
        tuple(sum((p[k][k] for k in range(n)), F(0)) for p in (mat_mul(ads[i], ads[j]) for j in range(n)))
        for i in range(n)
    )


def is_closed(c, theta):
    """Whether theta kills every basis bracket."""
    return all(
        sum((t * x for t, x in zip(theta, c[i][j])), F(0)) == 0
        for i, j in combinations(range(len(c)), 2)
    )


class DenseBrackets:
    """The bracket-derived subspaces of one algebra, from its structure constants."""

    def __init__(self, algebra):
        self.n = algebra.dim
        self.c = structure_constants(algebra.dim, algebra.table)

    @functools.cached_property
    def full(self):
        return span(identity(self.n), self.n)

    @functools.cached_property
    def derived(self):
        return self.span(self.full, self.full)

    def bracket(self, x, y):
        return bracket(self.c, x, y)

    def span(self, left, right):
        """The span of [x, y] over the basis rows x of left and y of right."""
        return span([self.bracket(x, y) for x in basis(left) for y in basis(right)], self.n)

    def series(self, step):
        """The chain from the derived algebra by step, up to its first fixed term."""
        chain = [self.derived]
        while (nxt := step(chain[-1])) != chain[-1]:
            chain.append(nxt)
        return tuple(chain)

    def centralizer(self, vectors):
        """x with [x, v] = 0 for each v: sum over i of x_i [e_i, v] = 0 gives one
        row per coordinate of the brackets."""
        e = identity(self.n)
        rows = tuple(row for v in vectors for row in transpose([self.bracket(x, v) for x in e]))
        return span(kernel(rows, self.n), self.n)

    def radical(self):
        """The Killing-orthogonal of the derived algebra."""
        if self.derived.is_zero():
            return self.full
        return span(kernel(mat_mul(basis(self.derived), killing_form(self.c)), self.n), self.n)


# Invariant subspaces of a family of operators


def invariant_part(s, operators):
    """{w in s : op w in s for every op}: w = sum over r of x_r b_r, for the
    canonical basis b of s, with sum over r of x_r residue(op b_r) = 0 for every op."""
    reduced, pivots = echelon(s)
    values = [[x for m in operators for x in _residue(reduced, pivots, mat_vec(m, b))] for b in reduced]
    kept = kernel(transpose(values), len(reduced))
    return span([mat_vec(transpose(reduced), x) for x in kept], s.ambient_dim)


def invariant_closure(operators, v):
    """The smallest subspace containing v that every operator maps into itself."""
    rows = rref([v])[0]
    while True:
        grown = rref(rows + tuple(mat_vec(m, row) for m in operators for row in rows))[0]
        if len(grown) == len(rows):
            return span(rows, len(v))
        rows = grown


# Connections and curvature


def form(gram, x, y):
    """g(x, y) = sum over a, b of x_a g_ab y_b."""
    n = len(gram)
    return sum((x[a] * gram[a][b] * y[b] for a in range(n) for b in range(n)), F(0))


def gram_entry_sum(gram, m, j, k):
    """g(m e_j, e_k) + g(e_j, m e_k)."""
    e = identity(len(gram))
    col_j, col_k = (tuple(row[t] for row in m) for t in (j, k))
    return form(gram, col_j, e[k]) + form(gram, e[j], col_k)


def koszul_form(algebra, metric, theta=None):
    """K[i][j][k] = g(D_{e_i} e_j, e_k) for the Weyl connection of theta (the
    Levi-Civita connection when theta is None), by the Koszul formula with its
    theta terms: (g([e_i, e_j], e_k) - g([e_i, e_k], e_j) - g([e_j, e_k], e_i)) / 2
    + theta_i g_jk + theta_j g_ik - theta_k g_ij."""
    n, g = algebra.dim, metric.gram
    c = structure_constants(n, algebra.table)
    th = theta.coefficients if theta is not None else (F(0),) * n
    lowered = [[mat_vec(transpose(g), v) for v in row] for row in c]  # g([e_i, e_j], e_k)
    return tuple(
        tuple(
            tuple(
                (lowered[i][j][k] - lowered[i][k][j] - lowered[j][k][i]) / 2
                + th[i] * g[j][k] + th[j] * g[i][k] - th[k] * g[i][j]
                for k in range(n)
            )
            for j in range(n)
        )
        for i in range(n)
    )


def weyl(algebra, metric, theta=None):
    """The matrices D_i of the connection whose g(D_i e_j, e_k) is `koszul_form`:
    D_i = G^-1 K_i^T."""
    g_inv = inverse(metric.gram)
    return tuple(mat_mul(g_inv, transpose(k)) for k in koszul_form(algebra, metric, theta))


def torsion(algebra, nabla):
    """D_i e_j - D_j e_i - [e_i, e_j] for i < j."""
    c = structure_constants(algebra.dim, algebra.table)
    return tuple(
        tuple(nabla[i][r][j] - nabla[j][r][i] - c[i][j][r] for r in range(algebra.dim))
        for i, j in combinations(range(algebra.dim), 2)
    )


def curvature(algebra, nabla):
    """R(e_i, e_j) = [D_i, D_j] - sum over k of c^k_ij D_k for i < j."""
    n = algebra.dim
    c = structure_constants(n, algebra.table)
    out = []
    for i, j in combinations(range(n), 2):
        bracketed = combination(c[i][j], nabla, n)
        out.append(tuple(
            tuple(x - y for x, y in zip(r, s)) for r, s in zip(commutator(nabla[i], nabla[j]), bracketed)
        ))
    return tuple(out)


def cross_check_witness(algebra, metric, theta, nabla):
    """The Weyl self-check evaluated densely: the least (i, j, k) with its
    identity name at which D violates torsion-freeness (reported as (j, i, k)
    for the pair i < j) or conformal compatibility, or None."""
    n, gram, th = algebra.dim, metric.gram, theta.coefficients
    torsions = zip(combinations(range(n), 2), torsion(algebra, nabla))
    failures = [((j, i, k), "torsion") for (i, j), t in torsions for k, x in enumerate(t) if x]
    for i, j, k in product(range(n), repeat=3):
        if gram_entry_sum(gram, nabla[i], j, k) != 2 * th[i] * gram[j][k]:
            failures.append(((i, j, k), "conformal"))
    return min(failures) if failures else None


def flat_factor(algebra, metric, theta):
    """The maximal flat factor: the Weyl connection by the Koszul formula, its
    dense curvature, the joint kernel of the curvature operators, and the
    largest subspace of that kernel that every D_i maps into itself."""
    n = algebra.dim
    nabla = weyl(algebra, metric, theta)
    rows = tuple(row for op in curvature(algebra, nabla) for row in op)
    s = span(kernel(rows, n), n)
    while (inner := invariant_part(s, nabla)).dim < s.dim:
        s = inner
    return s


# The triple correspondence


def _action(c, reduced, pivots, x):
    cols = []
    for row in reduced:
        image = bracket(c, x, row)
        if any(_residue(reduced, pivots, image)):
            raise ValueError("flat factor is not invariant under this element")
        cols.append(tuple(image[p] for p in pivots))
    return transpose(tuple(cols))


def flat_factor_action(structure, x):
    """The matrix of y -> [x, y] on the flat factor, in its canonical basis."""
    c = structure_constants(structure.algebra.dim, structure.algebra.table)
    return _action(c, *echelon(structure.flat_factor), x)


def triple_from_lcp(structure):
    """The triple (h, g_h, q, beta) of an adapted structure on a unimodular
    algebra: h the metric complement of the flat factor u with the brackets
    of its canonical basis read in it, and beta(x) the action of x on u less
    theta(x) times the identity. Messages as the engine's."""
    algebra, gram = structure.algebra, structure.metric.gram
    c = structure_constants(algebra.dim, algebra.table)
    if any(trace_form(c)):
        raise ValueError("triple extraction requires a unimodular algebra")
    if not structure.adapted:
        raise ValueError("triple extraction requires an adapted structure")
    u = structure.flat_factor
    u_basis, u_pivots = echelon(u)
    q = len(u_basis)
    if mat_mul(mat_mul(u_basis, gram), transpose(u_basis)) != identity(q):
        raise ValueError(
            "flat factor basis is not orthonormal; the orthogonal part of the "
            "action cannot be expressed over the rationals"
        )
    h_basis, h_pivots = echelon(orthocomplement(u, gram))
    m = len(h_basis)
    h_brackets = {}
    for i, j in combinations(range(m), 2):
        image = bracket(c, h_basis[i], h_basis[j])
        if any(_residue(h_basis, h_pivots, image)):
            raise ValueError(
                "metric complement of the flat factor is not a subalgebra; the structure does not split"
            )
        h_brackets[(i, j)] = {k: image[p] for k, p in enumerate(h_pivots)}
    h_algebra = LieAlgebra.from_brackets(m, h_brackets, [algebra.labels[p] for p in h_pivots])
    h_metric = InnerProduct(mat_mul(mat_mul(h_basis, gram), transpose(h_basis)))
    beta = []
    for x in h_basis:
        try:
            action = _action(c, u_basis, u_pivots, x)
        except ValueError:
            raise ValueError(
                "flat factor is not invariant under the complement; the structure does not split"
            ) from None
        weight = sum((t * y for t, y in zip(structure.lee_form.coefficients, x)), F(0))
        beta.append(tuple(
            tuple(a - weight if r == k else a for k, a in enumerate(row)) for r, row in enumerate(action)
        ))
    return LCPTriple(h_algebra, h_metric, q, tuple(beta))


# Lattices


def second_projection(split):
    """p2 along E1 as an explicit matrix: the E2 part of the coordinates in
    the basis of E1 followed by E2."""
    e1, e2 = basis(split.e1), basis(split.e2)
    cols = e1 + e2
    n = len(cols[0])
    to_split = inverse(transpose(cols))
    r = len(e1)
    return tuple(
        tuple(sum((e2[t][i] * to_split[r + t][k] for t in range(len(e2))), F(0)) for k in range(n))
        for i in range(n)
    )


def check_splitting(a, split):
    """The Lemma 5.1 verdict: E1 and E2 invariant, (A - I)|E1 invertible, and
    det(A - I) with the index |det(A - I)| when every hypothesis holds, or,
    when it is 0, a non-density witness: x in the kernel of (A - I)^T and W
    the part of E2 orthogonal to x."""
    matrix = a.matrix
    k = len(matrix)
    if split.e1.ambient_dim != k:
        raise ValueError("splitting dimension does not match the matrix")

    def invariant(s):
        return all(not any(residue(s, mat_vec(matrix, row))) for row in basis(s))

    e1_invariant, e2_invariant = invariant(split.e1), invariant(split.e2)
    if not basis(split.e1):
        restriction_invertible = True
    elif not e1_invariant:
        restriction_invertible = False
    else:
        cols = [coordinates(split.e1, tuple(x - y for x, y in zip(mat_vec(matrix, row), row)))
                for row in basis(split.e1)]
        restriction_invertible = det(cols) != 0
    shift = tuple(tuple(matrix[r][c] - (r == c) for c in range(k)) for r in range(k))
    dmi = int(det(shift))
    index = witness = None
    if dmi != 0:
        if e1_invariant and e2_invariant and restriction_invertible:
            index = abs(dmi)
    else:
        x = primitive(kernel(transpose(shift))[0])
        hyperplane = intersection(span(kernel((x,)), k), split.e2)
        witness = NonDensityWitness(x, hyperplane)
    return SplittingVerdict(True, e1_invariant, e2_invariant, restriction_invertible, dmi, index, witness)


# Stored forms, written out as grammars


def _index(x):
    return isinstance(x, int) and not isinstance(x, bool)


def canonical_table(dim, table):
    """Whether table is a bracket table for dimension dim: a tuple of entries
    (i, j, terms) with 0 <= i < j < dim, ascending by (i, j), each with a
    nonempty tuple terms of pairs (k, c), k ascending below dim and c a nonzero
    Fraction. Indices are ints, not bools. This is the grammar that
    `LieAlgebra`'s constructor read before it rebuilt the table."""
    if not isinstance(table, tuple):
        return False
    last = (0, 0)  # every key must exceed the last, so i >= 0
    for entry in table:
        match entry:
            case tuple((i, j, tuple(terms))) if (
                _index(i) and _index(j) and last < (i, j) and i < j < dim and terms
            ):
                last, prev = (i, j), -1
            case _:
                return False
        for term in terms:
            match term:
                case tuple((k, Fraction() as c)) if _index(k) and prev < k < dim and c:
                    prev = k
                case _:
                    return False
    return True


def canonical_rows(n, rows):
    """The pivot columns of rows if they are the integer echelon rows of a
    subspace of Q^n, else None: a tuple of int tuples of length n, each
    primitive with a positive pivot entry, the pivots ascending and every
    other row zero at each pivot column. These are the conditions that
    `Subspace`'s constructor read before it rebuilt the rows."""
    if type(rows) is not tuple or any(type(row) is not tuple or len(row) != n for row in rows):
        return None
    if any(type(x) is not int for row in rows for x in row):
        return None
    pivots = [next((c for c, x in enumerate(row) if x), n) for row in rows]
    if not all(p < n and row[p] > 0 and gcd(*row) == 1 for row, p in zip(rows, pivots)):
        return None
    if not all(p < q for p, q in zip(pivots, pivots[1:])):
        return None
    if any(row[p] for r, row in enumerate(rows) for p in pivots[:r] + pivots[r + 1:]):
        return None
    return tuple(pivots)


def canonical_operators(dim, denominator, rows):
    """Whether rows are integer operators on Q^dim over denominator, as a
    `Connection` or `CurvatureTensor` holds them: each a tuple of rows (r,
    terms), r ascending below dim, terms a nonempty tuple of pairs (c, x) with
    c ascending below dim and x a nonzero int; and the denominator and all the
    entries have no common factor. Indices and entries are ints, not bools."""
    entries = []
    for m in rows:
        if type(m) is not tuple:
            return False
        last = -1
        for row in m:
            if not (type(row) is tuple and len(row) == 2 and type(row[1]) is tuple and row[1]):
                return False
            r, terms = row
            if not (type(r) is int and last < r < dim):
                return False
            last, prev = r, -1
            for term in terms:
                if not (type(term) is tuple and len(term) == 2):
                    return False
                c, x = term
                if not (type(c) is int and prev < c < dim and type(x) is int and x):
                    return False
                prev = c
                entries.append(x)
    return gcd(denominator, *entries) == 1


# Copies of earlier engine code that pin what no textbook route gives


def previous_as_fraction(text):
    """The previous string path of `linalg.as_fraction`: the grammar check,
    then Fraction(text), which matches the string a second time. It pins the
    messages."""
    if not linalg._RATIONAL_RE.fullmatch(text):
        raise ValueError(f"not a decimal-free rational string: {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None
    except ValueError:
        raise ValueError(
            f"rational has more than {sys.get_int_max_str_digits()} digits in a part"
        ) from None


def parser_as_it_was():
    """`cli.build_parser` as it was before the grammar became one table: one
    subparser written out by hand per command. It pins argparse's help, usage
    and error text."""
    parser = argparse.ArgumentParser(
        prog="lcplie",
        description="Exact analysis of conformal product structures on metric Lie algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_validate = sub.add_parser("validate", help="check a document's algebra, metric and covector")
    p_validate.add_argument("file")
    p_validate.set_defaults(func=cli.cmd_validate)
    p_analyze = sub.add_parser("analyze", help="structural invariants of the algebra")
    p_analyze.add_argument("file")
    p_analyze.set_defaults(func=cli.cmd_analyze)
    p_lcp = sub.add_parser("lcp", help="conformal product structure analysis")
    p_lcp.add_argument("action", choices=["detect", "max-flat", "from-triple", "char-bound"])
    p_lcp.add_argument("file")
    p_lcp.add_argument("--candidate", help="JSON basis (list of rational-string vectors)")
    p_lcp.add_argument("--json", action="store_true")
    p_lcp.set_defaults(func=cli.cmd_lcp)
    p_lattice = sub.add_parser("lattice", help="integer matrix normal forms and splitting checks")
    p_lattice.add_argument("action", choices=["snf", "index", "lemma51"])
    p_lattice.add_argument("file")
    p_lattice.add_argument("--json", action="store_true")
    p_lattice.set_defaults(func=cli.cmd_lattice)
    return parser


def fraction_format_combination(coeffs, labels, dual=False):
    """`cli._format_combination` as it was on Fraction coefficients."""
    out = ""
    for c, label in zip(coeffs, labels, strict=True):
        if not c:
            continue
        name = label + ("*" if dual else "")
        term = name if abs(c) == 1 else f"{abs(c)}*{name}"
        if out:
            out += f" - {term}" if c < 0 else f" + {term}"
        else:
            out = f"-{term}" if c < 0 else term
    return out or "0"


def fraction_rows(s):
    return [[Fraction(x, row[p]) for x in row] for row, p in zip(s.rows, s.pivots)]


def fraction_format_subspace(s, labels):
    """`cli._format_subspace` as it was, one Fraction per nonzero entry."""
    if s.is_zero():
        return "0"
    return "span{" + ", ".join(fraction_format_combination(r, labels) for r in fraction_rows(s)) + "}"


def fraction_subspace_rows(s):
    """`cli._subspace_rows` as it was, from the Fraction basis."""
    return [[str(x) for x in row] for row in fraction_rows(s)]


def smith_normal_form_full_scan(matrix):
    """(U, D, V) by the elimination `smith_normal_form` ran before it stopped
    its pivot scan early and stored V transposed: every entry of the block is
    scanned, and column operations touch every row of D and of V. It pins U
    and V, which a Smith normal form does not determine."""
    k = len(matrix)
    d = [list(row) for row in matrix]
    u = [[int(i == j) for j in range(k)] for i in range(k)]
    v = [[int(i == j) for j in range(k)] for i in range(k)]

    def row_sub(i, j, q):
        if q:
            d[i] = [x - q * y for x, y in zip(d[i], d[j])]
            u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def col_sub(i, j, q):
        if q:
            for row in d + v:
                row[i] -= q * row[j]

    for s in range(k):
        while True:
            best = None
            for r in range(s, k):
                for c in range(s, k):
                    if d[r][c] != 0 and (best is None or abs(d[r][c]) < abs(d[best[0]][best[1]])):
                        best = (r, c)
            if best is None:
                break
            r0, c0 = best
            if r0 != s:
                d[s], d[r0] = d[r0], d[s]
                u[s], u[r0] = u[r0], u[s]
            if c0 != s:
                for row in d + v:
                    row[s], row[c0] = row[c0], row[s]
            if d[s][s] < 0:
                d[s] = [-x for x in d[s]]
                u[s] = [-x for x in u[s]]
            p = d[s][s]
            dirty = False
            for r in range(s + 1, k):
                if d[r][s] != 0:
                    row_sub(r, s, d[r][s] // p)
                    dirty = dirty or d[r][s] != 0
            for c in range(s + 1, k):
                if d[s][c] != 0:
                    col_sub(c, s, d[s][c] // p)
                    dirty = dirty or d[s][c] != 0
            if dirty:
                continue
            offender = next(
                (r for r in range(s + 1, k) if any(d[r][c] % p != 0 for c in range(s + 1, k))),
                None,
            )
            if offender is None:
                break
            d[s] = [x + y for x, y in zip(d[s], d[offender])]
            u[s] = [x + y for x, y in zip(u[s], u[offender])]
        if best is None:
            break
    return tuple(tuple(tuple(row) for row in m) for m in (u, d, v))
