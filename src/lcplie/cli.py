"""Command line interface.

Exit codes: 0 success, 1 file/parse problems, 2 semantic invalidity.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys

from . import documents
from .connections import InnerProduct, is_closed
from .documents import AlgebraDocument, DocumentError
from .lattice import (
    IntegerEndomorphism,
    SplitDecomposition,
    check_splitting,
    lattice_index,
    smith_normal_form,
)
from .lcp import (
    CLASS_CONFORMALLY_FLAT,
    CLASS_LCP,
    LCPValidationError,
    build_from_triple,
    characteristic_constraint_space,
    check_candidate,
    maximal_flat_factor,
    validate_lcp,
)
from .liealg import (
    Covector,
    LieAlgebra,
    _jacobi_defects,
    center,
    derived_algebra,
    is_abelian,
    is_nilpotent,
    is_solvable,
    is_unimodular,
    killing_form,
    radical,
    trace_form,
)
from .linalg import Subspace, symmetric_signature


class CommandError(Exception):
    """Semantic failure of an otherwise well-formed command (exit code 2)."""


def _load(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc.strerror}") from exc


def _format_combination(coeffs, labels, dual: bool = False) -> str:
    terms = []
    for c, label in zip(coeffs, labels, strict=True):
        if c == 0:
            continue
        name = label + ("*" if dual else "")
        if c == 1:
            terms.append(("+", name))
        elif c == -1:
            terms.append(("-", name))
        else:
            sign = "-" if c < 0 else "+"
            terms.append((sign, f"{abs(c)}*{name}"))
    if not terms:
        return "0"
    first_sign, first = terms[0]
    out = first if first_sign == "+" else f"-{first}"
    for sign, term in terms[1:]:
        out += f" {sign} {term}"
    return out


def _format_subspace(s: Subspace, labels) -> str:
    if s.is_zero():
        return "0"
    rows = ", ".join(_format_combination(row, labels) for row in s.basis)
    return "span{" + rows + "}"


def _subspace_rows(s: Subspace) -> list[list[str]]:
    return [[str(x) for x in row] for row in s.basis]


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


def _require_algebra(doc: AlgebraDocument) -> None:
    if not doc.has_algebra:
        raise CommandError("document has no algebra fields (dim, basis, brackets)")


def _algebra(doc: AlgebraDocument) -> LieAlgebra:
    _require_algebra(doc)
    try:
        return documents.document_algebra(doc)
    except ValueError as exc:
        raise CommandError(str(exc)) from exc


def _metric(doc: AlgebraDocument) -> InnerProduct:
    if doc.metric is None:
        raise CommandError("document has no metric")
    try:
        return documents.document_metric(doc)
    except ValueError as exc:
        raise CommandError(f"invalid metric: {exc}") from exc


def _theta(doc: AlgebraDocument) -> Covector:
    if doc.theta is None:
        raise CommandError("document has no theta covector")
    return Covector(doc.theta)


def _flat_factor(doc: AlgebraDocument) -> Subspace:
    if doc.flat_factor is None:
        raise CommandError("document has no flat_factor")
    return Subspace.from_vectors(doc.flat_factor, doc.dim)


def cmd_validate(args: argparse.Namespace) -> int:
    doc = documents.parse_algebra_document(_load(args.file))
    problems = 0
    if doc.has_algebra:
        try:
            algebra = documents.document_algebra(doc)
        except ValueError:
            # Only a Jacobi failure gets here from a parsed document; name its triples.
            algebra = None
            names = ", ".join(
                "(" + ", ".join(doc.basis[t] for t in triple) + ")"
                for triple, _ in _jacobi_defects(doc.dim, doc.brackets)
            )
            print(f"jacobi: FAIL at basis triples {names}")
            problems += 1
        else:
            print("jacobi: ok")
        if doc.metric is None:
            print("metric: absent")
        else:
            try:
                InnerProduct(doc.metric)
                print("metric: ok")
            except ValueError as exc:
                print(f"metric: FAIL ({exc})")
                problems += 1
        if doc.theta is None:
            print("theta: absent")
        elif algebra is not None:
            closed = is_closed(algebra, Covector(doc.theta))
            print(f"theta: ok ({'closed' if closed else 'not closed'})")
        else:
            print("theta: present")
    if doc.triple is not None:
        try:
            documents.document_triple(doc)
            print("triple: ok")
        except ValueError as exc:
            print(f"triple: FAIL ({exc})")
            problems += 1
    if problems:
        print("valid: no")
        return 2
    print("valid: yes")
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    doc = documents.parse_algebra_document(_load(args.file))
    algebra = _algebra(doc)
    labels = algebra.labels
    rad = radical(algebra)
    print(f"dim: {algebra.dim}")
    print(f"abelian: {_yesno(is_abelian(algebra))}")
    print(f"unimodular: {_yesno(is_unimodular(algebra))}")
    print(f"solvable: {_yesno(is_solvable(algebra))}")
    print(f"nilpotent: {_yesno(is_nilpotent(algebra))}")
    print(f"semisimple: {_yesno(rad.is_zero())}")
    derived = derived_algebra(algebra)
    print(f"derived algebra: {_format_subspace(derived, labels)} (dim {derived.dim})")
    print(f"radical: {_format_subspace(rad, labels)} (dim {rad.dim})")
    zen = center(algebra)
    print(f"center: {_format_subspace(zen, labels)} (dim {zen.dim})")
    print(f"trace form: {_format_combination(trace_form(algebra).coefficients, labels, dual=True)}")
    pos, neg, zero = symmetric_signature(killing_form(algebra))
    print(f"killing signature: ({pos}, {neg}, {zero})")
    return 0


def _detect_payload(doc: AlgebraDocument):
    algebra = _algebra(doc)
    metric = _metric(doc)
    theta = _theta(doc)
    u = _flat_factor(doc)
    return algebra, metric, theta, u


def cmd_lcp(args: argparse.Namespace) -> int:
    doc = documents.parse_algebra_document(_load(args.file))
    if args.action == "detect":
        try:
            structure = validate_lcp(*_detect_payload(doc))
        except LCPValidationError as exc:
            if args.json:
                print(json.dumps({"valid": False, "violations": list(exc.violations)}, indent=2))
            else:
                print("valid: no")
                for v in exc.violations:
                    print(f"violation: {v}")
            return 2
        if args.json:
            payload = {
                "valid": True,
                "violations": [],
                "adapted": structure.adapted,
                "maximal": structure.maximal,
                "flat_factor": _subspace_rows(structure.flat_factor),
            }
            print(json.dumps(payload, indent=2))
        else:
            print("valid: yes")
            print(f"adapted: {_yesno(structure.adapted)}")
            maximal = "unknown" if structure.maximal is None else _yesno(structure.maximal)
            print(f"maximal: {maximal}")
            u = structure.flat_factor
            print(f"flat factor: {_format_subspace(u, structure.algebra.labels)} (dim {u.dim})")
        return 0

    if args.action == "max-flat":
        algebra = _algebra(doc)
        metric = _metric(doc)
        theta = _theta(doc)
        try:
            result = maximal_flat_factor(algebra, metric, theta)
        except ValueError as exc:
            raise CommandError(str(exc)) from exc
        if args.json:
            payload = {
                "flat_factor": _subspace_rows(result.subspace),
                "dim": result.subspace.dim,
                "classification": result.classification,
                "adapted": result.adapted,
            }
            print(json.dumps(payload, indent=2))
        else:
            print(
                f"flat factor = {_format_subspace(result.subspace, algebra.labels)}"
                f" (dim {result.subspace.dim})"
            )
            if result.classification == CLASS_LCP:
                print("classification: lcp")
                print(f"adapted: {_yesno(result.adapted)}")
            elif result.classification == CLASS_CONFORMALLY_FLAT:
                print("classification: conformally-flat (whole algebra; not LCP)")
            else:
                print("classification: none (no LCP structure with this metric and covector)")
        return 0

    if args.action == "from-triple":
        if doc.triple is None:
            raise CommandError("document has no triple block")
        try:
            triple = documents.document_triple(doc)
            structure = build_from_triple(triple)
        except ValueError as exc:
            raise CommandError(str(exc)) from exc
        sys.stdout.write(documents.emit_algebra_document(documents.structure_document(structure)))
        return 0

    if args.action == "char-bound":
        try:
            structure = validate_lcp(*_detect_payload(doc))
        except LCPValidationError as exc:
            raise CommandError(f"document is not a valid LCP structure: {exc}") from exc
        algebra = structure.algebra
        bound = characteristic_constraint_space(structure)
        payload: dict = {"bound": _subspace_rows(bound), "dim": bound.dim}
        lines = [f"bound = {_format_subspace(bound, algebra.labels)} (dim {bound.dim})"]
        if args.candidate is not None:
            try:
                raw = json.loads(args.candidate)
                rows = documents._rational_matrix(raw, None, algebra.dim, "candidate")
                candidate = Subspace.from_vectors(rows, algebra.dim)
            except (ValueError, DocumentError, RecursionError) as exc:
                raise CommandError(f"invalid candidate basis: {exc}") from exc
            try:
                report = check_candidate(structure, candidate)
            except ValueError as exc:
                raise CommandError(str(exc)) from exc
            payload["candidate"] = {
                "basis": _subspace_rows(report.candidate),
                "theta_vanishes": report.theta_vanishes,
                "action_trivial": report.action_trivial,
                "abelian": report.is_abelian,
                "in_radical": report.in_radical,
                "in_commutator": report.in_commutator,
            }
            lines.append(f"candidate: {_format_subspace(candidate, algebra.labels)} (dim {candidate.dim})")
            lines.append(f"theta vanishes: {_yesno(report.theta_vanishes)}")
            lines.append(f"action trivial: {_yesno(report.action_trivial)}")
            lines.append(f"abelian: {_yesno(report.is_abelian)}")
            lines.append(f"in radical: {_yesno(report.in_radical)}")
            lines.append(f"in commutator: {_yesno(report.in_commutator)}")
        if args.json:
            print(json.dumps(payload, indent=2))
        else:
            for line in lines:
                print(line)
        return 0

    raise AssertionError(f"unhandled action {args.action}")


def cmd_lattice(args: argparse.Namespace) -> int:
    doc = documents.parse_lattice_document(_load(args.file))
    endo = IntegerEndomorphism(doc.matrix)

    if args.action == "snf":
        u, d, v = smith_normal_form(endo)
        if args.json:
            payload = {
                "u": [list(r) for r in u],
                "d": [list(r) for r in d],
                "v": [list(r) for r in v],
                "divisors": [d[i][i] for i in range(len(d))],
            }
            print(json.dumps(payload, indent=2))
        else:
            print(f"divisors: ({', '.join(str(d[i][i]) for i in range(len(d)))})")
            print(f"U = {[list(r) for r in u]}")
            print(f"D = {[list(r) for r in d]}")
            print(f"V = {[list(r) for r in v]}")
        return 0

    if args.action == "index":
        idx = lattice_index(endo)
        if args.json:
            print(json.dumps({"index": "infinite" if idx is None else idx}, indent=2))
        else:
            print(f"index: {'infinite' if idx is None else idx}")
        return 0

    if args.action == "lemma51":
        if doc.e1 is None or doc.e2 is None:
            raise CommandError("document has no split block (e1/e2 bases)")
        k = endo.size
        try:
            split = SplitDecomposition(
                Subspace.from_vectors(doc.e1, k), Subspace.from_vectors(doc.e2, k)
            )
        except ValueError as exc:
            raise CommandError(f"invalid decomposition: {exc}") from exc
        verdict = check_splitting(endo, split)
        if args.json:
            payload = {
                "hypotheses": {
                    "integral": verdict.integral,
                    "e1_invariant": verdict.e1_invariant,
                    "e2_invariant": verdict.e2_invariant,
                    "restriction_invertible": verdict.restriction_invertible,
                },
                "det_a_minus_i": verdict.det_minus_identity,
                "index": verdict.index,
                "witness": None
                if verdict.witness is None
                else {
                    "x": list(verdict.witness.vector),
                    "hyperplane": _subspace_rows(verdict.witness.hyperplane),
                },
            }
            print(json.dumps(payload, indent=2))
        else:
            print(
                "hypotheses: integral: {}; E1 invariant: {}; E2 invariant: {}; "
                "(A - I)|E1 invertible: {}".format(
                    _yesno(verdict.integral),
                    _yesno(verdict.e1_invariant),
                    _yesno(verdict.e2_invariant),
                    _yesno(verdict.restriction_invertible),
                )
            )
            print(f"det(A - I) = {verdict.det_minus_identity}")
            if verdict.index is not None:
                print(f"conclusion holds: finite index {verdict.index}")
            elif verdict.witness is not None:
                x = verdict.witness.vector
                print(f"witness x = ({', '.join(str(c) for c in x)})")
                coords = [f"x{i + 1}" for i in range(k)]
                print(
                    f"hyperplane W = {_format_subspace(verdict.witness.hyperplane, coords)}"
                    f" (dim {verdict.witness.hyperplane.dim})"
                )
                print(
                    "density refuted: projections of lattice points onto E2 lie in "
                    "W + Z * p2(x/|x|^2)"
                )
            else:
                print("no conclusion: hypotheses fail and det(A - I) is nonzero")
        return 0

    raise AssertionError(f"unhandled action {args.action}")


# Built on the first call, not at import. Sharing one parser between calls is
# safe: every action is `store` or `store_true` and every default is an
# immutable value or a `set_defaults(func=...)` command, so parse_args
# mutates nothing in the parser.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lcplie",
        description="Exact analysis of conformal product structures on metric Lie algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="check a document's algebra, metric and covector")
    p_validate.add_argument("file")
    p_validate.set_defaults(func=cmd_validate)

    p_analyze = sub.add_parser("analyze", help="structural invariants of the algebra")
    p_analyze.add_argument("file")
    p_analyze.set_defaults(func=cmd_analyze)

    p_lcp = sub.add_parser("lcp", help="conformal product structure analysis")
    p_lcp.add_argument("action", choices=["detect", "max-flat", "from-triple", "char-bound"])
    p_lcp.add_argument("file")
    p_lcp.add_argument("--candidate", help="JSON basis (list of rational-string vectors)")
    p_lcp.add_argument("--json", action="store_true")
    p_lcp.set_defaults(func=cmd_lcp)

    p_lattice = sub.add_parser("lattice", help="integer matrix normal forms and splitting checks")
    p_lattice.add_argument("action", choices=["snf", "index", "lemma51"])
    p_lattice.add_argument("file")
    p_lattice.add_argument("--json", action="store_true")
    p_lattice.set_defaults(func=cmd_lattice)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DocumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CommandError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
