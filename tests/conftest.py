"""Shared builders for the algebra corpus used across the test modules."""
from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import pytest

from lcplie.connections import InnerProduct
from lcplie.lcp import LCPStructure, LCPTriple, build_from_triple, validate_lcp
from lcplie.liealg import Covector, LieAlgebra
from lcplie.linalg import ZERO, Subspace, zero_vector

CORPUS_DIR = Path(__file__).parent / "corpus"
BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"

F = Fraction


def make_sol3() -> LieAlgebra:
    # [u, a] = u, [a, b] = b
    return LieAlgebra.from_brackets(
        3, {(0, 1): {0: F(1)}, (1, 2): {2: F(1)}}, labels=("u", "a", "b")
    )


def make_heis3() -> LieAlgebra:
    return LieAlgebra.from_brackets(3, {(0, 1): {2: F(1)}})


def make_aff() -> LieAlgebra:
    return LieAlgebra.from_brackets(2, {(0, 1): {1: F(1)}}, labels=("a", "b"))


def make_sl2() -> LieAlgebra:
    # [h, e] = 2e, [h, f] = -2f, [e, f] = h
    return LieAlgebra.from_brackets(
        3,
        {(0, 1): {1: F(2)}, (0, 2): {2: F(-2)}, (1, 2): {0: F(1)}},
        labels=("h", "e", "f"),
    )


def make_abelian(n: int = 3) -> LieAlgebra:
    return LieAlgebra.from_brackets(n, {})


def sol3_theta() -> Covector:
    return Covector((F(0), F(-1), F(0)))


def make_sol3_structure() -> LCPStructure:
    algebra = make_sol3()
    u = Subspace.from_vectors([(F(1), F(0), F(0))], 3)
    return validate_lcp(algebra, InnerProduct.identity(3), sol3_theta(), u)


ROTATION = ((F(0), F(-1)), (F(1), F(0)))
ZERO2 = ((F(0), F(0)), (F(0), F(0)))


def make_rot4_structure() -> LCPStructure:
    triple = LCPTriple(make_aff(), InnerProduct.identity(2), 2, (ROTATION, ZERO2))
    return build_from_triple(triple)


def make_rot5_structure() -> LCPStructure:
    # aff(R) + central line; the extra generator acts by a faster rotation
    h = LieAlgebra.from_brackets(3, {(0, 1): {1: F(1)}}, labels=("a", "b", "c"))
    double = tuple(tuple(2 * x for x in row) for row in ROTATION)
    triple = LCPTriple(h, InnerProduct.identity(3), 2, (ROTATION, ZERO2, double))
    return build_from_triple(triple)


@pytest.fixture
def sol3() -> LieAlgebra:
    return make_sol3()


@pytest.fixture
def heis3() -> LieAlgebra:
    return make_heis3()


@pytest.fixture
def aff() -> LieAlgebra:
    return make_aff()


@pytest.fixture
def sl2() -> LieAlgebra:
    return make_sl2()


@pytest.fixture
def sol3_structure() -> LCPStructure:
    return make_sol3_structure()


@pytest.fixture
def rot4_structure() -> LCPStructure:
    return make_rot4_structure()


@pytest.fixture
def rot5_structure() -> LCPStructure:
    return make_rot5_structure()


@pytest.fixture
def corpus_dir() -> Path:
    return CORPUS_DIR


def fraction_det(a) -> Fraction:
    """Determinant by Gaussian elimination over Fractions with row swaps: the
    reference that the integer elimination core is compared against."""
    n = len(a)
    work = [[F(x) for x in row] for row in a]
    result = F(1)
    for c in range(n):
        pivot_row = next((i for i in range(c, n) if work[i][c] != 0), None)
        if pivot_row is None:
            return F(0)
        if pivot_row != c:
            work[c], work[pivot_row] = work[pivot_row], work[c]
            result = -result
        result *= work[c][c]
        inv = 1 / work[c][c]
        for i in range(c + 1, n):
            if work[i][c] != 0:
                f = work[i][c] * inv
                work[i] = [x - f * y for x, y in zip(work[i], work[c])]
    return result


def mat_mul(a, b):
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


def mat_combination(coeffs, mats, size: int):
    """The size x size matrix sum of coeffs[i] * mats[i]; zero terms and zero
    entries are skipped."""
    out = tuple(zero_vector(size) for _ in range(size))
    for c, m in zip(coeffs, mats, strict=True):
        if c != 0:
            out = tuple(
                tuple(x + c * y if y else x for x, y in zip(r, s)) for r, s in zip(out, m)
            )
    return out


def corpus_text(name: str) -> str:
    return (CORPUS_DIR / name).read_text(encoding="utf-8")


def corpus_json(name: str) -> dict:
    return json.loads(corpus_text(name))
