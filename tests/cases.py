"""Seeded cases for the tests, and the command lines that `cli_bytes.json` pins.

Every generator takes its seed, or a `random.Random`, from the caller, so
that a test sees the same cases on every run. Where two tests share a
generator with different shapes, the shape is a parameter and each caller
passes its own.

"Scaling family n" is `bench/workloads.scaling_triple(n, random.Random(0))`,
built into its structure. `bench/workloads.py` and the `bench/oracles.py` it
imports are loaded by path and only read.
"""
from __future__ import annotations

import contextlib
import copy
import functools
import importlib.util
import io
import json
import random
import sys
from fractions import Fraction
from itertools import combinations, product

from lcplie.cli import main
from lcplie.connections import Connection, InnerProduct, is_closed
from lcplie.documents import (
    document_algebra,
    document_metric,
    document_triple,
    parse_algebra_document,
)
from lcplie.lattice import IntegerEndomorphism, SplitDecomposition
from lcplie.lcp import LCPTriple, build_from_triple, maximal_flat_factor, validate_lcp
from lcplie.liealg import Covector, LieAlgebra, derived_algebra, semidirect_sum
from lcplie.linalg import Subspace, matrix, pairs, vector

import reference
from conftest import (
    BENCH_DIR,
    CORPUS_DIR,
    make_abelian,
    make_aff,
    make_heis3,
    make_sl2,
    make_sol3,
    sol3_theta,
)

F = Fraction


# The pinned command lines

RECORD = CORPUS_DIR.parent / "cli_bytes.json"

ALGEBRA_ACTIONS = ("detect", "max-flat", "from-triple", "char-bound")
LATTICE_ACTIONS = ("snf", "index", "lemma51")
# Candidates inside the metric complement of the flat factor (identity metric).
CANDIDATES = {
    "sol3": '[["0", "1", "0"]]',
    "rot4": '[["0", "0", "0", "1"]]',
    "rot5": '[["0", "0", "0", "1", "0"]]',
}


def commands() -> list[tuple[str, ...]]:
    """Every command line the record pins, with the corpus file by its name."""
    out: list[tuple[str, ...]] = []
    for path in sorted(CORPUS_DIR.glob("*.json")):
        name = path.name
        if "matrix" in json.loads(path.read_text(encoding="utf-8")):
            lines = [("lattice", action, name) for action in LATTICE_ACTIONS]
        else:
            out += [("validate", name), ("analyze", name)]
            lines = [("lcp", action, name) for action in ALGEBRA_ACTIONS]
        if path.stem in CANDIDATES:
            lines.append(("lcp", "char-bound", name, "--candidate", CANDIDATES[path.stem]))
        for argv in lines:
            out += [argv, argv + ("--json",)]
    return out


def resolved(argv) -> list[str]:
    """argv with each corpus file name made a path (an absolute path stays)."""
    return [str(CORPUS_DIR / a) if a.endswith(".json") else a for a in argv]


def invoke(argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(resolved(argv))
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def pinned_lines() -> list[list[str]]:
    return [resolved(argv) for argv in commands()]


def mutated_lines(rng: random.Random, pinned: list[list[str]], others, count: int):
    """count pinned lines after one to three random deletions, insertions,
    replacements or swaps, with tokens drawn from the other lines and the pinned ones."""
    pool = sorted({t for argv in (*others, *pinned) for t in argv})
    for _ in range(count):
        argv = list(rng.choice(pinned))
        for _ in range(rng.randint(1, 3)):
            kind = rng.randrange(4)
            at = rng.randrange(len(argv) + 1)
            if kind == 0:
                argv.insert(at, rng.choice(pool))
            elif at < len(argv):
                if kind == 1:
                    del argv[at]
                elif kind == 2:
                    argv[at] = rng.choice(pool)
                elif at + 1 < len(argv):
                    argv[at], argv[at + 1] = argv[at + 1], argv[at]
        yield argv


# Mutated documents

POOL = (
    True,
    False,
    None,
    0.5,
    -1e300,
    0,
    -3,
    "",
    "x",
    "1/0",
    "١",
    "0",
    "2",
    "-1/2",
    "7/3",
    1,
    "1" * 5000 + "/7",
    [],
    [[]],
    [["1", "0"], ["0"]],
    [[["1"]]],
    {},
    {"i": 0, "j": 1, "c": {"0": "1"}},
)


def nodes(tree, parent=None, key=None):
    """Every (container, key) slot of the JSON tree, the root as (None, None)."""
    yield parent, key
    if isinstance(tree, dict):
        for k, v in tree.items():
            yield from nodes(v, tree, k)
    elif isinstance(tree, list):
        for k, v in enumerate(tree):
            yield from nodes(v, tree, k)


def mutate(rng: random.Random, doc):
    """doc after one or two random deletions, unknown keys or pool values."""
    doc = copy.deepcopy(doc)
    for _ in range(rng.randint(1, 2)):
        parent, key = rng.choice(list(nodes(doc)))
        kind = rng.choice(("delete", "add", "replace"))
        if parent is None:
            doc = copy.deepcopy(rng.choice(POOL)) if kind == "replace" else doc
        elif kind == "delete":
            del parent[key]
        elif kind == "add" and isinstance(parent, dict):
            parent[f"unknown{rng.randrange(3)}"] = copy.deepcopy(rng.choice(POOL))
        else:
            parent[key] = copy.deepcopy(rng.choice(POOL))
    return doc


# Numbers, matrices and subspaces


def small_rational(rng, num=3, den=3, density=None, choices=None):
    """F(randint(-num, num), randint(1, den)), or F(choice(choices)) when
    choices are given; with a density, F(0) unless random() < density first."""
    if density is not None and rng.random() >= density:
        return F(0)
    if choices is not None:
        return F(rng.choice(choices))
    return F(rng.randint(-num, num), rng.randint(1, den))


def random_matrix(rng, rows, cols=None, span=9):
    """A rows x cols integer matrix (square when cols is None), entries in [-span, span]."""
    cols = rows if cols is None else cols
    return [[rng.randint(-span, span) for _ in range(cols)] for _ in range(rows)]


def rational_rows(rng, count, width, dependent=True):
    """count rows of small rationals, each nonzero with probability 0.6, and
    with probability 0.3 one more row twice the first."""
    out = [[small_rational(rng, density=0.6) for _ in range(width)] for _ in range(count)]
    if dependent and out and rng.random() < 0.3:
        out.append([2 * x for x in out[0]])  # a dependent row
    return out


def random_rational_rows(rng):
    """A seeded matrix mixing small and huge (above 2**64) rationals, plain ints,
    zeros, zero rows, repeated and dependent rows."""
    nrows, ncols = rng.randint(0, 6), rng.randint(0, 7)

    def entry():
        kind = rng.random()
        if kind < 0.35:
            return F(0)
        if kind < 0.5:
            return rng.randint(-5, 5)  # a plain int
        if kind < 0.85:
            return F(rng.randint(-9, 9), rng.randint(1, 9))
        return F(rng.randint(-(2**80), 2**80), rng.randint(1, 2**70))

    rows = [[entry() for _ in range(ncols)] for _ in range(nrows)]
    for _ in range(rng.randint(0, 3)):
        if not rows:
            break
        kind = rng.choice(("zero", "repeat", "combination"))
        if kind == "zero":
            rows.insert(rng.randrange(len(rows) + 1), [F(0)] * ncols)
        elif kind == "repeat":
            rows.append(list(rng.choice(rows)))
        else:
            a, b = rng.choice(rows), rng.choice(rows)
            s, t = F(rng.randint(-3, 3), rng.randint(1, 4)), F(rng.randint(-(2**66), 2**66))
            rows.insert(rng.randrange(len(rows) + 1), [s * x + t * y for x, y in zip(a, b)])
    return rows


def tall_rows(rng, rank_deficient):
    """A seeded matrix with more rows than columns: of full column rank, or a
    product of thin factors whose rank is below the width."""
    ncols = rng.randint(1, 6)
    nrows = ncols + rng.randint(1, 6)
    if not rank_deficient:
        rows = [[F(int(r == c)) for c in range(ncols)] for r in range(ncols)]
        for _ in range(nrows - ncols):
            rows.append([F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(ncols)])
        rng.shuffle(rows)
        return rows
    inner = rng.randint(0, ncols - 1)
    left = [[F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(inner)] for _ in range(nrows)]
    columns = [[F(rng.randint(-3, 3)) for _ in range(inner)] for _ in range(ncols)]
    return [[sum((a * b for a, b in zip(row, col)), F(0)) for col in columns] for row in left]


def bareiss_samples(seed):
    """Seeded square integer matrices, by kind, for the elimination core."""
    rng = random.Random(seed)

    def entries(n, span=6, zeros=0.3):
        return [[0 if rng.random() < zeros else rng.randint(-span, span) for _ in range(n)]
                for _ in range(n)]

    samples = [("0x0", []), ("1x1", [[0]]), ("1x1", [[-7]]), ("1x1", [[2**70 + 1]])]
    # a zero pivot with a nonzero entry below it: the negated-row swap
    samples += [("swap", [[0, 1], [1, 0]]), ("swap", [[0, 2, 1], [3, 0, 0], [0, 0, 5]]),
                ("swap", [[1, 2, 3], [2, 4, 1], [0, 1, 1]])]
    for _ in range(40):
        n = rng.randint(1, 6)
        samples.append(("random", entries(n)))
        a = entries(n)
        a[0][0] = 0
        samples.append(("zero leading entry", a))
        a = entries(n)
        for row in a:
            row[0] = 0
        samples.append(("zero first column", a))
        if n > 1:
            a = entries(n)
            i, j = rng.sample(range(n), 2)
            a[i] = list(a[j])
            samples.append(("duplicated row", a))
            a = entries(n)
            j, k = (rng.choice([r for r in range(n) if r != i]) for _ in range(2))
            a[i] = [x - 2 * y for x, y in zip(a[j], a[k])]
            samples.append(("singular", a))
        a = entries(n, zeros=0.2)
        samples.append(("above 2**64", [[x * 2**66 + rng.randint(-3, 3) for x in row] for row in a]))
    return samples


def random_symmetric(rng, n):
    """P^T D P with random signs and zeros in D, then with zeroed indices and
    a zeroed diagonal mixed in; indefinite and singular forms included."""
    p = random_matrix(rng, n, n, span=2)
    d = [F(rng.choice((-2, -1, 0, 1, 3))) for _ in range(n)]
    a = [[sum((p[k][i] * d[k] * p[k][j] for k in range(n)), F(0)) for j in range(n)] for i in range(n)]
    kind = rng.choice(("congruent", "zero rows", "zero diagonal", "sparse"))
    if kind == "zero rows":
        for i in rng.sample(range(n), rng.randint(1, n)):
            for j in range(n):
                a[i][j] = a[j][i] = F(0)
    elif kind == "zero diagonal":
        for i in range(n):
            a[i][i] = F(0)
    elif kind == "sparse":
        for i, j in pairs(n):
            if rng.random() < 0.6:
                a[i][j] = a[j][i] = F(0)
    return tuple(tuple(row) for row in a)


def random_subspace(rng, n, rows=(1, None), sparse_share=None, **entry):
    """The span of randint(*rows) rows (the upper end n when None) of
    `small_rational(rng, **entry)` entries. With a sparse_share, a draw of
    random() at or above it gives the span of as many random basis vectors
    instead."""
    lo, hi = rows
    count = rng.randint(lo, n if hi is None else hi)
    if sparse_share is not None and rng.random() >= sparse_share:
        picked = rng.sample(range(n), count)
        return Subspace.from_vectors([[F(int(c == p)) for c in range(n)] for p in picked], n)
    return Subspace.from_vectors([[small_rational(rng, **entry) for _ in range(n)] for _ in range(count)], n)


def subspaces_by_dimension(seed, dims, count, **shape):
    """For each n in dims: 0, the whole space and count `random_subspace`s."""
    rng = random.Random(seed)
    for n in dims:
        yield Subspace.zero(n)
        yield Subspace.full(n)
        for _ in range(count):
            yield random_subspace(rng, n, **shape)


def seeded_subspace_pairs(seed):
    """Pairs in R^n for n from 0 to 6: random, equal, zero, full and disjoint ones."""
    rng = random.Random(seed)
    out = []
    for n in range(7):
        zero, full = Subspace.zero(n), Subspace.full(n)
        for _ in range(6):
            a, b = (random_subspace(rng, n, rows=(0, n + 1), num=2) for _ in range(2))
            # a complement for a positive definite form meets a only in 0
            disjoint = reference.orthocomplement(a, reference.identity(n))
            out += [(a, b), (a, a), (a, zero), (zero, a), (a, full), (full, a), (a, disjoint)]
    return out


def coordinate_subspaces(n):
    """All spans of subsets of the standard basis; closed under sum and meet."""
    out = []
    for size in range(n + 1):
        for subset in combinations(range(n), size):
            rows = [
                tuple(F(1) if k == i else F(0) for k in range(n)) for i in subset
            ]
            out.append(Subspace.from_vectors(rows, n))
    return out


def brute_force_subspaces(n):
    """Every span of at most two vectors with entries in {-1, 0, 1}, plus 0 and the whole space."""
    vectors = [vector(v) for v in product((-1, 0, 1), repeat=n) if any(v)]
    spans = {Subspace.zero(n), Subspace.full(n)}
    spans.update(Subspace.from_vectors([v], n) for v in vectors)
    spans.update(Subspace.from_vectors(pair, n) for pair in combinations(vectors, 2))
    return sorted(spans, key=lambda s: (s.dim, s.basis))


# Metrics, algebras and connections


def closed_covector(algebra, rng):
    """A seeded combination of a basis of the covectors that vanish on [g, g]."""
    free = reference.kernel(reference.basis(derived_algebra(algebra)), ncols=algebra.dim)
    coeffs = [F(rng.randint(-3, 3)) for _ in free]
    return Covector(
        tuple(sum((c * row[k] for c, row in zip(coeffs, free)), F(0)) for k in range(algebra.dim))
    )


def closed_covectors(algebra, count=3, seed=0):
    """Deterministic sample of covectors vanishing on the derived algebra."""
    rng = random.Random(seed)
    out = [closed_covector(algebra, rng) for _ in range(count)]
    assert all(is_closed(algebra, theta) for theta in out)
    return out


def random_spd_metric(rng, n):
    a = [[F(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
    gram = reference.mat_mul(reference.transpose(a), a)
    return InnerProduct(
        tuple(
            tuple(gram[i][j] + (1 if i == j else 0) for j in range(n))
            for i in range(n)
        )
    )


def random_llt_metric(rng, n):
    """L L^T with L lower triangular and a positive diagonal: rational, positive definite."""
    lower = [
        [small_rational(rng) if c < r else F(rng.randint(1, 3), rng.randint(1, 2)) if c == r else F(0)
         for c in range(n)]
        for r in range(n)
    ]
    return InnerProduct(reference.mat_mul(lower, reference.transpose(lower)))


def random_triple_structure(rng):
    """build_from_triple on h = aff(R) + R^(m-2) acting by one rotation block on R^q."""
    m, q = rng.randint(2, 3), rng.randint(2, 3)
    h = LieAlgebra.from_brackets(m, {(0, 1): {1: F(1)}})

    def rotation(scale):
        block = [[F(0)] * q for _ in range(q)]
        block[0][1], block[1][0] = -scale, scale
        return tuple(tuple(row) for row in block)

    beta = (rotation(small_rational(rng)), rotation(F(0))) + tuple(
        rotation(small_rational(rng)) for _ in range(m - 2)
    )
    return build_from_triple(LCPTriple(h, random_llt_metric(rng, m), q, beta))


def random_semidirect_sum(rng):
    """R^q extended by aff(R) (b acting by zero) or by an abelian algebra acting
    through commuting polynomials in one random matrix; Jacobi holds by construction."""
    q = rng.randint(1, 3)
    a = [[small_rational(rng) if rng.random() < 0.6 else F(0) for _ in range(q)] for _ in range(q)]
    zero = tuple(tuple(F(0) for _ in range(q)) for _ in range(q))
    if rng.random() < 0.5:
        return semidirect_sum(q, make_aff(), (tuple(map(tuple, a)), zero))
    d = rng.randint(1, 3)
    a2 = reference.mat_mul(a, a)
    alpha = []
    for _ in range(d):
        s, t = small_rational(rng), small_rational(rng)
        alpha.append(
            tuple(tuple(s * a[r][c] + t * a2[r][c] for c in range(q)) for r in range(q))
        )
    return semidirect_sum(q, make_abelian(d), alpha)


def random_metric_algebras(seed, count):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        if rng.random() < 0.5:
            algebra = random_triple_structure(rng).algebra
        else:
            algebra = random_semidirect_sum(rng)
        out.append((algebra, random_llt_metric(rng, algebra.dim)))
    return out


def random_connection(rng, n):
    """A seeded connection with about half of its entries small nonzero rationals."""
    return Connection.from_matrices(
        n,
        tuple(
            tuple(
                tuple(small_rational(rng) if rng.random() < 0.5 else F(0) for _ in range(n))
                for _ in range(n)
            )
            for _ in range(n)
        ),
    )


def corpus_cases():
    """(algebra, metric, covector) from every algebra and triple file of the corpus."""
    rng = random.Random(41)
    cases = []
    for path in sorted(CORPUS_DIR.glob("*.json")):
        if path.name.startswith("lat_"):
            continue
        doc = parse_algebra_document(path.read_text(encoding="utf-8"))
        if doc.triple is not None:
            s = build_from_triple(document_triple(doc))
            cases.append((s.algebra, s.metric, s.lee_form))
            continue
        algebra = document_algebra(doc)
        metric = document_metric(doc) or InnerProduct.identity(algebra.dim)
        if doc.theta is not None:
            cases.append((algebra, metric, Covector(doc.theta)))
        else:
            cases.extend((algebra, metric, closed_covector(algebra, rng)) for _ in range(2))
    return cases


def pipeline_cases():
    """sol3, the corpus and the seeded generators, each with a closed covector."""
    cases = [(make_sol3(), InnerProduct.identity(3), sol3_theta())] + corpus_cases()
    rng = random.Random(606)
    for _ in range(4):
        s = random_triple_structure(rng)
        cases.append((s.algebra, s.metric, s.lee_form))
        cases.append((s.algebra, random_llt_metric(rng, s.algebra.dim), s.lee_form))
    for _ in range(4):
        algebra = random_semidirect_sum(rng)
        metric = random_llt_metric(rng, algebra.dim)
        cases.extend((algebra, metric, closed_covector(algebra, rng)) for _ in range(2))
    for algebra, metric in random_metric_algebras(seed=808, count=6):
        cases.append((algebra, metric, closed_covector(algebra, rng)))
    return cases


def symmetric_samples(seed):
    """Seeded symmetric rational matrices, by kind."""
    rng = random.Random(seed)
    samples = [("1x1", ((c,),)) for c in (F(3, 2), F(0), F(-1, 3))]
    for _ in range(30):
        n = rng.randint(1, 6)
        samples.append(("positive definite", random_llt_metric(rng, n).gram))
    for _ in range(30):
        n = rng.randint(2, 6)
        a = [[small_rational(rng) for _ in range(n)] for _ in range(n)]
        samples.append(
            ("indefinite or random", tuple(tuple(a[r][c] + a[c][r] for c in range(n)) for r in range(n)))
        )
    for _ in range(20):
        # A A^T with A of rank below n: positive semidefinite and singular
        n = rng.randint(2, 6)
        width = rng.randint(1, n - 1)
        a = [[small_rational(rng) for _ in range(width)] for _ in range(n)]
        samples.append(("singular", reference.mat_mul(a, reference.transpose(a))))
    for _ in range(20):
        # a positive definite matrix with one diagonal entry set to zero
        n = rng.randint(2, 6)
        gram = [list(row) for row in random_llt_metric(rng, n).gram]
        k = 0 if rng.random() < 0.5 else rng.randrange(n)
        gram[k][k] = F(0)
        samples.append(("zero diagonal entry", tuple(map(tuple, gram))))
    return samples


def definite_inverse_samples(seed, count):
    """Seeded symmetric rational matrices by kind, definite and not, some sparse
    and some with a zero leading minor."""
    rng = random.Random(seed)
    samples = []
    while len(samples) < count:
        n = rng.randint(1, 7)
        kind = rng.choice(["llt", "sparse", "random", "singular", "zero minor", "zero diagonal"])
        if kind == "llt":
            gram = random_llt_metric(rng, n).gram
        elif kind == "sparse":
            # positive diagonal, a few symmetric off-diagonal pairs: definite or not
            a = [[F(0)] * n for _ in range(n)]
            for i in range(n):
                a[i][i] = F(rng.randint(1, 9), rng.randint(1, 4))
            for _ in range(rng.randint(0, n) if n > 1 else 0):
                i, j = rng.sample(range(n), 2)
                a[i][j] = a[j][i] = small_rational(rng)
            gram = tuple(map(tuple, a))
        elif kind == "random":
            a = [[small_rational(rng) for _ in range(n)] for _ in range(n)]
            gram = tuple(tuple(a[r][c] + a[c][r] for c in range(n)) for r in range(n))
        elif kind in ("singular", "zero minor"):
            # M M^T; for a zero leading k x k minor, row k - 1 of M repeats a combination
            # of the rows above it, so the leading minors stop being positive at k
            m = [[small_rational(rng) for _ in range(n)] for _ in range(n)]
            k = rng.randint(2, n) if n > 1 else 1
            if kind == "singular" or k == 1:
                m[-1] = [F(0)] * n
            else:
                f = [small_rational(rng) for _ in range(k - 1)]
                m[k - 1] = [sum((x * row[c] for x, row in zip(f, m)), F(0)) for c in range(n)]
            gram = reference.mat_mul(m, reference.transpose(m))
        else:
            gram = [list(row) for row in random_llt_metric(rng, n).gram]
            k = rng.randrange(n)
            gram[k][k] = F(0)
            gram = tuple(map(tuple, gram))
        samples.append((kind, tuple(map(tuple, gram))))
    return samples


def mutations(rng, metric, n):
    """Seeded changes (i, delta) of one D_i: a single entry, or delta G^-1 (E_rc - E_cr),
    which leaves g(D_i e_j, e_k) + g(e_j, D_i e_k) unchanged."""
    gram_inv = reference.inverse(metric.gram)
    for kind in ("entry", "entry", "skew"):
        i, r, c = rng.randrange(n), rng.randrange(n), rng.randrange(n)
        delta = F(rng.choice([-2, -1, 1, 3]), rng.randint(1, 3))
        change = [[F(0)] * n for _ in range(n)]
        if kind == "entry":
            change[r][c] = delta
        elif r != c:
            for a in range(n):
                change[a][c] += delta * gram_inv[a][r]
                change[a][r] -= delta * gram_inv[a][c]
        yield i, change


# The scaling family of the benchmark


@functools.cache
def workloads():
    """`bench/workloads.py`, loaded by path with the `bench/oracles.py` it
    imports under that name; sys.modules holds them only while they run."""
    saved = {name: sys.modules.get(name) for name in ("oracles", "workloads")}
    try:
        for name in saved:
            spec = importlib.util.spec_from_file_location(name, BENCH_DIR / f"{name}.py")
            module = sys.modules[name] = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)  # its dataclasses look themselves up
    finally:
        for name, old in saved.items():
            if old is None:
                sys.modules.pop(name, None)
            else:
                sys.modules[name] = old
    return module


def scaling_triple(n, rng):
    """The triple document `bench/workloads.scaling_triple(n, rng)`."""
    return workloads().scaling_triple(n, rng)


def scaling_family(n):
    """Scaling family n: the structure built from `scaling_triple(n, random.Random(0))`."""
    text = json.dumps(scaling_triple(n, random.Random(0)))
    return build_from_triple(document_triple(parse_algebra_document(text)))


# Bracket tables and Lie algebras


def random_table(rng, dim):
    """Bracket table with a random share of nonzero pairs; mostly not a Lie algebra."""
    density = rng.choice((0.2, 0.4, 0.7))
    table = []
    for _ in range(dim * (dim - 1) // 2):
        if rng.random() < density:
            table.append(
                tuple(
                    F(rng.randint(-2, 2), rng.randint(1, 2)) if rng.random() < 0.4 else F(0)
                    for _ in range(dim)
                )
            )
        else:
            table.append((F(0),) * dim)
    return table


def sparse_table(dim, dense):
    """The canonical nonzero-bracket form of a dense pair-indexed table."""
    return tuple(
        (i, j, tuple((k, c) for k, c in enumerate(row) if c))
        for (i, j), row in zip(pairs(dim), dense)
        if any(row)
    )


def seeded_algebras():
    """Seeded build_from_triple structures and semidirect sums, then sl2 and heis3."""
    algebras = [algebra for algebra, _ in random_metric_algebras(seed=1729, count=16)]
    return algebras + [make_sl2(), make_heis3()]


def wide_family(rng, k, m):
    """heis_{2k+1} plus R^m acted on by t with random weights in +-{1, 2, 3},
    under a random basis order; k = 0 or m = 0 leaves that summand out."""
    brackets = {(i, k + i): {2 * k: F(1)} for i in range(k)}  # [x_i, y_i] = z
    q = 2 * k + 1 if k else 0
    for i in range(m):  # [v_i, t] = -w_i v_i
        brackets[(q + i, q + m)] = {q + i: F(-rng.choice((1, 2, 3)) * rng.choice((1, -1)))}
    n = q + (m + 1 if m else 0)
    order = list(range(n))
    rng.shuffle(order)
    shuffled = {}
    for (i, j), coeffs in brackets.items():
        shuffled[(order[i], order[j])] = {order[t]: c for t, c in coeffs.items()}
    return LieAlgebra.from_brackets(n, shuffled)


def wide_families():
    rng = random.Random(2718)
    return [wide_family(rng, k, m) for k, m in ((3, 0), (0, 6), (1, 3), (2, 2))]


def rebased(algebra, rng):
    """The same algebra on the basis f_i = P e_i, for a seeded rational P with
    large numerators and denominators, so its structure constants are far
    from integers."""
    n = algebra.dim
    while True:
        p = tuple(
            tuple(F(rng.randint(-10**3, 10**3), rng.randint(1, 10**3)) for _ in range(n))
            for _ in range(n)
        )
        if reference.det(p):
            break
    cols, p_inv = reference.transpose(p), reference.inverse(p)
    c = reference.structure_constants(n, algebra.table)
    brackets = {
        (i, j): dict(enumerate(reference.mat_vec(p_inv, reference.bracket(c, cols[i], cols[j]))))
        for i, j in pairs(n)
    }
    return LieAlgebra.from_brackets(n, brackets)


def seeded_representations(seed, count):
    """(h, mats, q) for homomorphisms h -> gl(q): the adjoint representation of
    seeded random algebras and of the small corpus, and sl2 on the plane."""
    algebras = [a for a, _ in random_metric_algebras(seed, count)]
    algebras += [make_sol3(), make_heis3(), make_sl2(), make_aff()]
    reps = [(a, tuple(a.ad(a.basis_vector(i)) for i in range(a.dim)), a.dim) for a in algebras]
    standard = (matrix([[1, 0], [0, -1]]), matrix([[0, 1], [0, 0]]), matrix([[0, 0], [1, 0]]))
    return reps + [(make_sl2(), standard, 2)]


# Structures and triples


def random_rotation_triple(rng):
    """h = aff(R) + R^k with [a, b] = c b, a random rational L L^T metric, and
    q from 1 to 4 turned by commuting 2x2 rotation blocks: a and each central
    generator scale every block by its own random rational, b acts by zero."""
    k, q = rng.randint(0, 2), rng.randint(1, 4)
    m = 2 + k
    c = F(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
    h = LieAlgebra.from_brackets(m, {(0, 1): {1: c}})

    def rotations(scales):
        out = [[F(0)] * q for _ in range(q)]
        for block, scale in enumerate(scales):
            r = 2 * block
            out[r][r + 1], out[r + 1][r] = -scale, scale
        return tuple(map(tuple, out))

    def random_scales():
        return [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(q // 2)]

    beta = [rotations(random_scales()), rotations([F(0)] * (q // 2))]
    beta += [rotations(random_scales()) for _ in range(k)]
    return LCPTriple(h, random_llt_metric(rng, m), q, tuple(beta))


def small_triple_structures(seed, count, max_dim):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        s = random_triple_structure(rng)
        if s.algebra.dim <= max_dim:
            out.append(s)
    return out


class Unvalidated:
    """The fields of an LCPStructure without its validation, so that triple
    extraction and the flat-factor action also meet factors that do not split."""

    def __init__(self, algebra, metric, theta, u):
        self.algebra, self.metric, self.lee_form, self.flat_factor = algebra, metric, theta, u
        self.adapted = not any(theta.value(row) for row in u.basis)

    def orthocomplement(self):
        return self.flat_factor.orthogonal_complement(self.metric.gram)


def corpus_structures(names=None):
    """The validated structures of the corpus files named (all when None): its
    triples, built, and the documents that carry a flat factor."""
    paths = sorted(CORPUS_DIR.glob("*.json")) if names is None else [CORPUS_DIR / n for n in names]
    out = []
    for path in paths:
        if path.name.startswith("lat_"):
            continue
        doc = parse_algebra_document(path.read_text(encoding="utf-8"))
        if doc.triple is not None:
            out.append(build_from_triple(document_triple(doc)))
        elif doc.flat_factor is not None:
            algebra = document_algebra(doc)
            metric = document_metric(doc) or InnerProduct.identity(algebra.dim)
            u = Subspace.from_vectors(doc.flat_factor, algebra.dim)
            out.append(validate_lcp(algebra, metric, Covector(doc.theta), u))
    return out


def mixed_basis(s, rng):
    """A built structure s (flat factor first) on the basis f_k = e_k on the flat
    factor and f_j = e_j + sum over k of c_kj e_k beyond it, for small rationals
    c: the flat factor keeps its orthonormal canonical basis, and the metric
    complement gets canonical rows with fractions."""
    n, q = s.algebra.dim, s.flat_factor.dim
    p = tuple(
        tuple(F(int(r == c)) if r >= q or c < q else F(rng.randint(-3, 3), rng.randint(1, 4)) for c in range(n))
        for r in range(n)
    )
    cols, p_inv = reference.transpose(p), reference.inverse(p)
    c = reference.structure_constants(n, s.algebra.table)
    brackets = {
        (i, j): dict(enumerate(reference.mat_vec(p_inv, reference.bracket(c, cols[i], cols[j]))))
        for i, j in combinations(range(n), 2)
    }
    algebra = LieAlgebra.from_brackets(n, brackets, s.algebra.labels)
    metric = InnerProduct(tuple(tuple(reference.form(s.metric.gram, a, b) for b in cols) for a in cols))
    theta = Covector(tuple(s.lee_form.value(col) for col in cols))
    return Unvalidated(algebra, metric, theta, s.flat_factor)


def extraction_cases():
    """Structures for the extraction oracles: the corpus, the seeded triples of
    `test_round_trip_on_seeded_random_triples`, the scaling family for n = 4..12,
    those with the flat factor first again on a `mixed_basis`, and for each of
    `pipeline_cases` its maximal flat factor and, under the identity metric,
    every proper nonzero coordinate subspace, most of which do not split."""
    cases = corpus_structures()
    rng = random.Random(61)
    cases += [build_from_triple(random_rotation_triple(rng)) for _ in range(12)]
    cases += [scaling_family(n) for n in range(4, 13)]
    cases += [
        mixed_basis(s, rng) for s in cases
        if s.flat_factor == Subspace.from_vectors(reference.identity(s.algebra.dim)[:s.flat_factor.dim],
                                                  s.algebra.dim)
    ]
    for algebra, metric, theta in pipeline_cases():
        n = algebra.dim
        try:
            w = maximal_flat_factor(algebra, metric, theta).subspace
        except ValueError:  # not unimodular, or theta not closed
            w = None
        if w is not None and not w.is_zero():
            cases.append(Unvalidated(algebra, metric, theta, w))
        if n <= 5:
            identity = InnerProduct.identity(n)
            for u in coordinate_subspaces(n)[1:-1]:
                cases += [Unvalidated(algebra, identity, theta, u), Unvalidated(algebra, metric, theta, u)]
    return cases


def _zero_block(q):
    return [["0"] * q for _ in range(q)]


def radical_binding_triple(k_brackets, k_labels, q, k_beta, a_beta):
    """The triple document of h = k (+) aff(R), the identity metric on h, acting
    on R^q by k_beta on k, a_beta on a and zero on b ([a, b] = b)."""
    m = len(k_labels)
    brackets = [{"i": i, "j": j, "c": c} for (i, j), c in k_brackets]
    brackets.append({"i": m, "j": m + 1, "c": {str(m + 1): "1"}})
    h = {"dim": m + 2, "basis": k_labels + ["a", "b"], "brackets": brackets, "metric": "identity"}
    return {"triple": {"h": h, "q": q, "beta": k_beta + [a_beta, _zero_block(q)]}}


SO3_BRACKETS = [((0, 1), {"2": "1"}), ((1, 2), {"0": "1"}), ((0, 2), {"1": "-1"})]
SL2_BRACKETS = [((0, 1), {"1": "2"}), ((0, 2), {"2": "-2"}), ((1, 2), {"0": "1"})]
J_BLOCK = [["0", "-1"], ["1", "0"]]
# so(3) on R^3 by its standard representation: L_i e_j = e_i x e_j
SO3_STANDARD = [
    [["0", "0", "0"], ["0", "0", "-1"], ["0", "1", "0"]],
    [["0", "0", "1"], ["0", "0", "0"], ["-1", "0", "0"]],
    [["0", "-1", "0"], ["1", "0", "0"], ["0", "0", "0"]],
]
# (id, triple, radical labels, dim of the bound without the radical condition)
RADICAL_BINDING = [
    ("so3+aff", radical_binding_triple(SO3_BRACKETS, ["r1", "r2", "r3"], 2, [_zero_block(2)] * 3,
                                        J_BLOCK), ["u1", "u2", "a", "b"], 4),
    ("sl2+aff", radical_binding_triple(SL2_BRACKETS, ["h", "e", "f"], 2, [_zero_block(2)] * 3,
                                        J_BLOCK), ["u1", "u2", "a", "b"], 4),
    ("so3+aff on R^3", radical_binding_triple(SO3_BRACKETS, ["r1", "r2", "r3"], 3, SO3_STANDARD,
                                               _zero_block(3)), ["u1", "u2", "u3", "a", "b"], 1),
]


def radical_binding_algebras():
    """The algebras that `build_from_triple` makes of the RADICAL_BINDING
    triples: not solvable, with a proper nonzero radical."""
    return [
        build_from_triple(document_triple(parse_algebra_document(json.dumps(case[1])))).algebra
        for case in RADICAL_BINDING
    ]


# Lattice splittings


def corpus_lattice_matrices():
    """(name, A) for the 72 integer matrices the benchmark's corpus workload
    draws: for k = 4..12 and variant v < 8, A is k x k, filled row by row with
    randint(-3, 3) from random.Random(f"corpus/lattice-k{k}/v{v}")."""
    out = []
    for k in range(4, 13):
        for v in range(8):
            rng = random.Random(f"corpus/lattice-k{k}/v{v}")
            out.append((f"k{k}/v{v}", [[rng.randint(-3, 3) for _ in range(k)] for _ in range(k)]))
    return out


def unimodular(rng, k):
    """A random integer matrix of determinant 1: a product of elementary ones."""
    p = [[int(r == c) for c in range(k)] for r in range(k)]
    for _ in range(3 * k):
        i, j = rng.sample(range(k), 2)
        f = rng.choice((-2, -1, 1, 2))
        p = [[x + f * p[j][c] if r == i else x for c, x in enumerate(row)] for r, row in enumerate(p)]
    return p


def seeded_splittings(seed, count=120):
    """(A, split) pairs in dimension 2 to 5. Two in three conjugate a block
    triangular integer matrix by a unimodular P, with E1 and E2 spanned by the
    columns of P that carry the blocks: E1 is invariant, and so is E2 when the
    block above it is zero, as it is in every other case. A block sometimes
    fixes its first vector, which makes A - I singular. The rest pair a random
    A with a random splitting, mostly not invariant."""
    rng = random.Random(seed)
    out = []
    for case in range(count):
        k = rng.randint(2, 5)
        r = rng.randint(0, k)
        if case % 3 < 2:
            blocks = [[0] * k for _ in range(k)]
            if case % 3 == 1 and 0 < r < k:  # the block above E2
                blocks[rng.randrange(r)][rng.randrange(r, k)] = rng.choice((-1, 1))
            for lo, hi in ((0, r), (r, k)):
                for i in range(lo, hi):
                    for j in range(lo, hi):
                        blocks[i][j] = rng.randint(-2, 3) if j >= i or rng.random() < 0.5 else 0
                if hi > lo and rng.random() < 0.4:
                    blocks[lo][lo] = 1
                    for j in range(lo, hi):
                        if j != lo:
                            blocks[j][lo] = 0
            p = unimodular(rng, k)
            p_inv = [[int(x) for x in row] for row in reference.inverse(p)]
            a = reference.mat_mul(reference.mat_mul(p, blocks), p_inv)
            columns = list(zip(*p))
            e1, e2 = columns[:r], columns[r:]
        else:
            a = random_matrix(rng, k, span=3)
            while True:
                vectors = random_matrix(rng, k, span=2)
                if reference.det(vectors) != 0:
                    break
            e1, e2 = vectors[:r], vectors[r:]
        split = SplitDecomposition(Subspace.from_vectors(e1, k), Subspace.from_vectors(e2, k))
        out.append((IntegerEndomorphism(tuple(map(tuple, a))), split))
    return out
