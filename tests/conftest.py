"""Shared builders for the algebra corpus used across the test modules.

The exact reference routes are in `reference.py` and the seeded cases in
`cases.py`; a test module imports those two, this one, `lcplie`, pytest and
the standard library, and no other test module.
"""
from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.dont_write_bytecode = True  # before the first import of lcplie: leave no cache in src/

from lcplie.connections import InnerProduct  # noqa: E402
from lcplie.lcp import LCPStructure, LCPTriple, build_from_triple, validate_lcp  # noqa: E402
from lcplie.liealg import Covector, LieAlgebra  # noqa: E402
from lcplie.linalg import Subspace  # noqa: E402

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


def corpus_text(name: str) -> str:
    return (CORPUS_DIR / name).read_text(encoding="utf-8")


def corpus_json(name: str) -> dict:
    return json.loads(corpus_text(name))
