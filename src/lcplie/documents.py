"""Strict JSON document schema for algebras, structures and integer matrices.

Rationals travel as decimal-free strings "p/q" or "p". Unknown fields are
rejected at every level. Emission is canonical: parsing a canonical file and
emitting it reproduces the bytes.
"""
from __future__ import annotations

import json
import re
import sys
from fractions import Fraction
from functools import partial
from typing import Callable, NoReturn

from .connections import InnerProduct
from .lcp import LCPStructure, LCPTriple
from .liealg import BracketTable, LieAlgebra
from .linalg import ZERO, Matrix, Vector, _Record, as_fraction, identity_matrix
from .lattice import IntegerEndomorphism

_INDEX_RE = re.compile(r"0|[1-9][0-9]*")


class DocumentError(Exception):
    """Malformed document: I/O shape, schema or rational-format problems."""


def _fail(where: str, message: str) -> NoReturn:
    raise DocumentError(f"{where}: {message}")


# A reader called with where="" reports a failure relative to the value it reads
# (": message", "[2]: message", ".c[0]: message"); the caller puts its own
# location in front. So a location string is built only on the branch that raises.


def _read_each(read: Callable, items: list, where: str) -> tuple:
    """read(item) for every item, where read reports failures relative to the item.
    On a failure the items are read again up to the first one that fails, and its
    message is placed at where[index]."""
    try:
        return tuple(map(read, items))
    except DocumentError:
        for index, item in enumerate(items):
            try:
                read(item)
            except DocumentError as exc:
                raise DocumentError(f"{where}[{index}]{exc}") from None
        raise


def _rational(value: object, where: str = "") -> Fraction:
    if not isinstance(value, str):
        _fail(where, f"rationals must be strings like '3' or '-2/5', got {value!r}")
    if value == "0":  # the shared ZERO, which the integer lifts skip by identity
        return ZERO
    try:
        return as_fraction(value)
    except ValueError as exc:
        raise DocumentError(f"{where}: {exc}") from None


def _strict_int(value: object, where: str, minimum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(where, f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        _fail(where, f"expected an integer >= {minimum}, got {value}")
    return value


def _strict_keys(obj: object, allowed: set[str], where: str) -> dict:
    if not isinstance(obj, dict):
        _fail(where, "expected a JSON object")
    if not allowed.issuperset(obj):
        _fail(where, f"unknown field(s): {', '.join(sorted(set(obj) - allowed))}")
    return obj


def _rational_vector(value: object, length: int, where: str) -> Vector:
    if not isinstance(value, list) or len(value) != length:
        _fail(where, f"expected a list of {length} rational strings")
    return _read_each(_rational, value, where)


def _rational_matrix(value: object, nrows: int | None, ncols: int, where: str) -> Matrix:
    if not isinstance(value, list) or (nrows is not None and len(value) != nrows):
        _fail(where, f"expected a list of {nrows} rows" if nrows is not None else "expected a list of rows")
    return _read_each(partial(_rational_vector, length=ncols, where=""), value, where)


class AlgebraDocument(_Record):
    dim: int | None
    basis: tuple[str, ...] | None
    brackets: BracketTable | None
    metric: Matrix | None
    theta: Vector | None
    flat_factor: Matrix | None
    triple: "TripleBlock | None"

    @property
    def has_algebra(self) -> bool:
        return self.dim is not None


class TripleBlock(_Record):
    h: AlgebraDocument
    q: int
    beta: tuple[Matrix, ...]


class LatticeDocument(_Record):
    endomorphism: IntegerEndomorphism
    e1: Matrix | None
    e2: Matrix | None


_ENTRY_KEYS = {"i", "j", "c"}


def _parse_brackets(value: object, dim: int, where: str) -> BracketTable:
    if not isinstance(value, list):
        _fail(where, "expected a list of bracket entries")
    entries: dict[tuple[int, int], tuple[tuple[int, Fraction], ...]] = {}
    seen: set[tuple[int, int]] = set()
    width = len(str(dim))
    pos = 0
    try:  # every failure below is relative to the entry at pos
        for pos, raw in enumerate(value):
            entry = _strict_keys(raw, _ENTRY_KEYS, "")
            for key in ("i", "j", "c"):
                if key not in entry:
                    _fail("", f"missing field '{key}'")
            i = _strict_int(entry["i"], ".i", minimum=0)
            j = _strict_int(entry["j"], ".j", minimum=0)
            if i >= dim or j >= dim:
                _fail("", f"bracket indices ({i}, {j}) out of range for dim {dim}")
            if i == j:
                _fail("", f"bracket ({i}, {i}) is zero by antisymmetry; do not list it")
            flip = i > j
            if flip:
                i, j = j, i
            if (i, j) in seen:
                _fail("", f"bracket pair ({i}, {j}) appears more than once")
            seen.add((i, j))
            cmap = entry["c"]
            if not isinstance(cmap, dict) or not cmap:
                _fail(".c", "expected a nonempty object of index -> rational string")
            coeffs = []
            for key, val in cmap.items():
                if not isinstance(key, str) or not _INDEX_RE.fullmatch(key):
                    _fail(".c", f"coefficient keys must be index strings, got {key!r}")
                # keys have no leading zeros, so a longer key than dim is larger
                if len(key) > width or (k := int(key)) >= dim:
                    _fail(".c", f"coefficient index {key} out of range for dim {dim}")
                try:
                    c = _rational(val)
                except DocumentError as exc:
                    raise DocumentError(f".c[{key}]{exc}") from None
                if c:  # zero coefficients are dropped: the canonical form is unique
                    coeffs.append((k, -c if flip else c))
            if coeffs:
                entries[(i, j)] = tuple(sorted(coeffs))
    except DocumentError as exc:
        raise DocumentError(f"{where}[{pos}]{exc}") from None
    return tuple((i, j, coeffs) for (i, j), coeffs in sorted(entries.items()))


def _parse_algebra_fields(obj: dict, where: str, allow: set[str]) -> AlgebraDocument:
    data = _strict_keys(obj, allow, where)
    group = [k for k in ("dim", "basis", "brackets") if k in data]
    if group and len(group) != 3:
        _fail(where, "fields dim, basis and brackets must appear together")

    dim = basis = brackets = None
    if group:
        dim = _strict_int(data["dim"], f"{where}.dim", minimum=1)
        raw_basis = data["basis"]
        if (
            not isinstance(raw_basis, list)
            or len(raw_basis) != dim
            or any(not isinstance(s, str) or not s for s in raw_basis)
        ):
            _fail(f"{where}.basis", f"expected {dim} nonempty label strings")
        if not all(map(str.isascii, raw_basis)) and any(  # not UTF-8 text
            0xD800 <= ord(c) <= 0xDFFF for s in raw_basis for c in s
        ):
            _fail(f"{where}.basis", "labels must not contain unpaired surrogates")
        if len(set(raw_basis)) != dim:
            _fail(f"{where}.basis", "labels must be distinct")
        basis = tuple(raw_basis)
        brackets = _parse_brackets(data["brackets"], dim, f"{where}.brackets")

    metric = theta = flat_factor = None
    for key in ("metric", "theta", "flat_factor"):
        if key in data and dim is None:
            _fail(where, f"field '{key}' requires the algebra fields")
    if "metric" in data:
        if data["metric"] == "identity":
            metric = identity_matrix(dim)
        else:
            metric = _rational_matrix(data["metric"], dim, dim, f"{where}.metric")
    if "theta" in data:
        theta = _rational_vector(data["theta"], dim, f"{where}.theta")
    if "flat_factor" in data:
        flat_factor = _rational_matrix(data["flat_factor"], None, dim, f"{where}.flat_factor")

    triple = None
    if "triple" in data:
        triple = _parse_triple(data["triple"], f"{where}.triple")
    if dim is None and triple is None:
        _fail(where, "document contains neither algebra fields nor a triple block")
    return AlgebraDocument(dim, basis, brackets, metric, theta, flat_factor, triple)


def _parse_triple(obj: object, where: str) -> TripleBlock:
    data = _strict_keys(obj, {"h", "q", "beta"}, where)
    for key in ("h", "q", "beta"):
        if key not in data:
            _fail(where, f"missing field '{key}'")
    h = _parse_algebra_fields(data["h"], f"{where}.h", {"dim", "basis", "brackets", "metric"})
    if not h.has_algebra:
        _fail(f"{where}.h", "the acting algebra needs dim, basis and brackets")
    q = _strict_int(data["q"], f"{where}.q", minimum=1)
    raw_beta = data["beta"]
    if not isinstance(raw_beta, list) or len(raw_beta) != h.dim:
        _fail(f"{where}.beta", f"expected {h.dim} matrices, one per basis vector")
    beta = tuple(
        _rational_matrix(mat, q, q, f"{where}.beta[{idx}]")
        for idx, mat in enumerate(raw_beta)
    )
    return TripleBlock(h, q, beta)


_TOP_LEVEL_KEYS = {"dim", "basis", "brackets", "metric", "theta", "flat_factor", "triple"}


def _load_json(text: str) -> object:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"invalid JSON: {exc}") from exc
    except ValueError as exc:  # an integer beyond Python's digit limit
        raise DocumentError(
            f"invalid JSON: an integer has more than {sys.get_int_max_str_digits()} digits"
        ) from exc
    except RecursionError as exc:
        raise DocumentError("invalid JSON: nested too deeply") from exc


def parse_algebra_document(text: str) -> AlgebraDocument:
    raw = _load_json(text)
    return _parse_algebra_fields(raw, "document", _TOP_LEVEL_KEYS)


def parse_lattice_document(text: str) -> LatticeDocument:
    raw = _load_json(text)
    data = _strict_keys(raw, {"matrix", "split"}, "document")
    if "matrix" not in data:
        _fail("document", "missing field 'matrix'")
    rows = data["matrix"]
    if not isinstance(rows, list) or not rows or any(not isinstance(r, list) for r in rows):
        _fail("document.matrix", "expected a nonempty list of rows")
    try:
        endomorphism = IntegerEndomorphism(rows)
    except ValueError as exc:
        for r, row in enumerate(rows):  # name the first entry that is not an integer
            for c, x in enumerate(row):
                _strict_int(x, f"document.matrix[{r}][{c}]")
        raise DocumentError(f"document.matrix: {exc}") from exc
    e1 = e2 = None
    if "split" in data:
        split = _strict_keys(data["split"], {"e1", "e2"}, "document.split")
        for key in ("e1", "e2"):
            if key not in split:
                _fail("document.split", f"missing field '{key}'")
        k = endomorphism.size
        e1 = _rational_matrix(split["e1"], None, k, "document.split.e1")
        e2 = _rational_matrix(split["e2"], None, k, "document.split.e2")
    return LatticeDocument(endomorphism, e1, e2)


def _emit_rational(f: Fraction) -> str:
    return str(f)


def _emit_matrix(m: Matrix) -> list[list[str]]:
    return [[_emit_rational(x) for x in row] for row in m]


def _algebra_fields(doc: AlgebraDocument) -> dict:
    out: dict = {}
    if doc.has_algebra:
        out["dim"] = doc.dim
        out["basis"] = list(doc.basis)
        out["brackets"] = [
            {"i": i, "j": j, "c": {str(k): _emit_rational(c) for k, c in terms}}
            for i, j, terms in doc.brackets
        ]
    if doc.metric is not None:
        if doc.metric == identity_matrix(doc.dim):
            out["metric"] = "identity"
        else:
            out["metric"] = _emit_matrix(doc.metric)
    if doc.theta is not None:
        out["theta"] = [_emit_rational(x) for x in doc.theta]
    if doc.flat_factor is not None:
        out["flat_factor"] = _emit_matrix(doc.flat_factor)
    if doc.triple is not None:
        t = doc.triple
        out["triple"] = {
            "h": _algebra_fields(t.h),
            "q": t.q,
            "beta": [_emit_matrix(b) for b in t.beta],
        }
    return out


def emit_algebra_document(doc: AlgebraDocument) -> str:
    return json.dumps(_algebra_fields(doc), indent=2) + "\n"


def emit_lattice_document(doc: LatticeDocument) -> str:
    out: dict = {"matrix": [list(row) for row in doc.endomorphism.matrix]}
    if doc.e1 is not None and doc.e2 is not None:
        out["split"] = {"e1": _emit_matrix(doc.e1), "e2": _emit_matrix(doc.e2)}
    return json.dumps(out, indent=2) + "\n"


def emit_any_document(text: str) -> str:
    """Parse either document kind and re-emit canonically (round-trip helper)."""
    raw = _load_json(text)
    if isinstance(raw, dict) and "matrix" in raw:
        return emit_lattice_document(parse_lattice_document(text))
    return emit_algebra_document(parse_algebra_document(text))


def document_algebra(doc: AlgebraDocument, *, parsed: bool = False) -> LieAlgebra:
    """Build the validated algebra; raises ValueError if the document has no
    algebra fields, on a Jacobi failure, or on a bracket table that is not in
    the canonical sparse form. Set `parsed` only for a document from
    `parse_algebra_document` or `structure_document`, whose tables are
    canonical by construction: then only the Jacobi identity is checked."""
    if not doc.has_algebra:
        raise ValueError("document has no algebra fields (dim, basis, brackets)")
    build = LieAlgebra._canonical if parsed else LieAlgebra
    return build(doc.dim, doc.basis, doc.brackets)


def document_metric(doc: AlgebraDocument) -> InnerProduct | None:
    return None if doc.metric is None else InnerProduct(doc.metric)


def document_triple(doc: AlgebraDocument, *, parsed: bool = False) -> LCPTriple:
    """The triple of the document's triple block; raises ValueError if there is
    none. `parsed` as in `document_algebra`."""
    if doc.triple is None:
        raise ValueError("document has no triple block")
    block = doc.triple
    h = document_algebra(block.h, parsed=parsed)
    h_metric = document_metric(block.h)
    if h_metric is None:
        h_metric = InnerProduct.identity(h.dim)
    return LCPTriple(h, h_metric, block.q, block.beta)


def structure_document(structure: LCPStructure) -> AlgebraDocument:
    """Canonical document of a validated structure (used by construction)."""
    algebra = structure.algebra
    return AlgebraDocument(
        dim=algebra.dim,
        basis=algebra.labels,
        brackets=algebra.table,
        metric=structure.metric.gram,
        theta=structure.lee_form.coefficients,
        flat_factor=structure.flat_factor.basis,
        triple=None,
    )
