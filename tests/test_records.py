"""The frozen record classes share one base, `linalg._Record`: construction by
position or by name, frozen fields, equality within one class, a hash that
agrees with it and a repr of exactly the fields. Importing the CLI generates
no code for them, so it loads neither `dataclasses` nor `inspect`."""
from __future__ import annotations

import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import lcplie
from lcplie import documents
from lcplie.connections import Connection, CurvatureTensor, InnerProduct
from lcplie.lattice import IntegerEndomorphism, NonDensityWitness, SplitDecomposition, SplittingVerdict
from lcplie.lcp import ConformalAnalysis, ConstraintReport, FlatFactorResult, LCPStructure, LCPTriple
from lcplie.liealg import Covector, LieAlgebra
from lcplie.linalg import Subspace, _Record, identity_matrix

from conftest import ROTATION, ZERO2, make_aff, make_sol3, sol3_theta

F = Fraction


def line() -> Subspace:
    return Subspace(3, ((1, 0, 0),))


def algebra_document() -> dict:
    return dict(dim=1, basis=("a",), brackets=(), metric=None, theta=None, flat_factor=None, triple=None)


# Each class with a function giving the keyword arguments of one valid record,
# built afresh on every call.
RECORDS = {
    Subspace: lambda: dict(ambient_dim=3, rows=((1, 0, 0), (0, 1, 2))),
    InnerProduct: lambda: dict(gram=((F(2), F(1)), (F(1), F(2)))),
    Connection: lambda: dict(dim=2, denominator=3, rows=(((0, ((1, 1),)),), ())),
    CurvatureTensor: lambda: dict(dim=2, denominator=1, rows=(((1, ((0, 2),)),),)),
    documents.AlgebraDocument: algebra_document,
    documents.TripleBlock: lambda: dict(
        h=documents.AlgebraDocument(**algebra_document()), q=1, beta=(((F(0),),),)
    ),
    documents.LatticeDocument: lambda: dict(
        endomorphism=IntegerEndomorphism(((2, 1), (1, 1))), e1=None, e2=None
    ),
    IntegerEndomorphism: lambda: dict(matrix=((2, 1), (1, 1))),
    SplitDecomposition: lambda: dict(e1=Subspace(2, ((1, 0),)), e2=Subspace(2, ((0, 1),))),
    NonDensityWitness: lambda: dict(vector=(1, 0), hyperplane=Subspace(2, ((0, 1),))),
    SplittingVerdict: lambda: dict(
        integral=True, e1_invariant=True, e2_invariant=False, restriction_invertible=True,
        det_minus_identity=-1, index=None, witness=None,
    ),
    FlatFactorResult: lambda: dict(subspace=line(), classification="lcp", adapted=True),
    ConstraintReport: lambda: dict(
        candidate=line(), theta_vanishes=True, action_trivial=False, is_abelian=True,
        in_radical=True, in_commutator=False, linear_bound=line(),
    ),
    ConformalAnalysis: lambda: dict(
        algebra=make_sol3(), metric=InnerProduct.identity(3), theta=sol3_theta()
    ),
    LCPStructure: lambda: dict(
        algebra=make_sol3(), metric=InnerProduct.identity(3), lee_form=sol3_theta(),
        flat_factor=line(), adapted=True, maximal=True,
    ),
    LCPTriple: lambda: dict(h_algebra=make_aff(), h_metric=InnerProduct.identity(2), q=2, beta=(ROTATION, ZERO2)),
    Covector: lambda: dict(coefficients=(F(1), F(-1, 2))),
    LieAlgebra: lambda: dict(dim=2, labels=("a", "b"), table=((0, 1, ((1, F(1)),)),)),
}

# Values set beside the fields, which take no part in equality, hash or repr.
DERIVED = {Subspace: "pivots", InnerProduct: "lifted_inverse", LCPStructure: "analysis"}

CLASSES = pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)


def test_every_record_class_is_covered():
    assert set(_Record.__subclasses__()) == set(RECORDS)
    assert len(RECORDS) == 18


@CLASSES
def test_positional_and_keyword_construction_agree(cls):
    kwargs = RECORDS[cls]()
    record = cls(**kwargs)
    assert cls._fields == tuple(kwargs)
    assert cls(*kwargs.values()) == record
    first, *rest = kwargs
    assert cls(kwargs[first], **{key: kwargs[key] for key in rest}) == record


@CLASSES
def test_missing_extra_and_unknown_arguments_raise(cls):
    kwargs = RECORDS[cls]()
    values = list(kwargs.values())
    first, *rest = kwargs
    for args, named in (
        (values[:-1], {}),  # missing by position
        ((), {key: kwargs[key] for key in rest}),  # missing by name
        (values + [values[0]], {}),  # one too many
        (values, {"extra": 1}),  # unknown name
        ((), {**kwargs, "extra": 1}),
        (values[:1], kwargs),  # the first given twice
    ):
        with pytest.raises(TypeError):
            cls(*args, **named)


@CLASSES
def test_fields_are_frozen(cls):
    record = cls(**RECORDS[cls]())
    before = repr(record)
    for name in cls._fields + ((DERIVED[cls],) if cls in DERIVED else ()) + ("other",):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert repr(record) == before


@CLASSES
def test_equal_values_hash_equal(cls):
    a, b = cls(**RECORDS[cls]()), cls(**RECORDS[cls]())
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@CLASSES
def test_never_equals_a_record_of_another_class(cls):
    record = cls(**RECORDS[cls]())
    others = [other(**make()) for other, make in RECORDS.items() if other is not cls]
    assert all(record != other and not record == other for other in others)
    assert record != tuple(getattr(record, key) for key in cls._fields)


@CLASSES
def test_repr_lists_exactly_the_fields(cls):
    record = cls(**RECORDS[cls]())
    shown = ", ".join(f"{key}={getattr(record, key)!r}" for key in cls._fields)
    assert repr(record) == f"{cls.__name__}({shown})"
    if cls in DERIVED:
        assert DERIVED[cls] in vars(record)
        assert f"{DERIVED[cls]}=" not in repr(record)


def test_derived_values_take_no_part_in_equality():
    a, b = Subspace(**RECORDS[Subspace]()), Subspace._canonical(3, ([[1, 0, 0], [0, 1, 2]], (0, 1)))
    assert a == b and hash(a) == hash(b)
    c, d = InnerProduct._orthogonal_sum(1, InnerProduct.identity(1)), InnerProduct(identity_matrix(2))
    assert c == d and hash(c) == hash(d)


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    """In a fresh interpreter without site, so that no installed package's
    start-up hook loads them first, and with -B, so that it writes no bytecode
    into the source tree."""
    src = Path(lcplie.__file__).resolve().parent.parent
    code = "import sys, lcplie.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-S", "-B", "-c", code], env={"PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "[]"
