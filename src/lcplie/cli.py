"""Command line interface.

Exit codes: 0 success, 1 file/parse problems, 2 semantic invalidity. Commands
only print: `main` alone writes stdout and maps failures to exit codes: a
`DocumentError` to 1, and a `ValueError` to 2, including a field that the
command needs and `documents` finds missing.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import sys
from math import gcd

from . import documents
from .connections import InnerProduct, is_closed
from .documents import AlgebraDocument, DocumentError
from .lattice import (
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
    center,
    check_jacobi,
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


def _load(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from exc


def _ratio(x, d: int) -> str:
    """str(Fraction(x, d)) for an int x and an int d > 0, from one gcd; for d == 1,
    str(x), so x may then be a Fraction."""
    if d == 1:
        return str(x)
    g = gcd(x, d)
    return str(x // g) if g == d else f"{x // g}/{d // g}"


def _format_combination(coeffs, labels, dual: bool = False, denominator: int = 1) -> str:
    """The sum of c / denominator times each label, for a positive int denominator."""
    out = ""
    for c, label in zip(coeffs, labels, strict=True):
        if not c:
            continue
        name = label + ("*" if dual else "")
        a = abs(c)
        term = name if a == denominator else f"{_ratio(a, denominator)}*{name}"
        if out:
            out += f" - {term}" if c < 0 else f" + {term}"
        else:
            out = f"-{term}" if c < 0 else term
    return out or "0"


def _format_subspace(s: Subspace, labels) -> str:
    if s.is_zero():
        return "0"
    # each canonical row is its integer row over its positive pivot entry
    rows = ", ".join(
        _format_combination(row, labels, denominator=row[p]) for row, p in zip(s.rows, s.pivots)
    )
    return "span{" + rows + "}"


def _subspace_rows(s: Subspace) -> list[list[str]]:
    return [[_ratio(x, row[p]) for x in row] for row, p in zip(s.rows, s.pivots)]


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


def _metric(doc: AlgebraDocument) -> InnerProduct:
    if doc.metric is None:
        raise ValueError("document has no metric")
    try:
        return documents.document_metric(doc)
    except ValueError as exc:
        raise ValueError(f"invalid metric: {exc}") from exc


def _theta(doc: AlgebraDocument) -> Covector:
    if doc.theta is None:
        raise ValueError("document has no theta covector")
    return Covector(doc.theta)


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
                for triple in check_jacobi(doc.dim, {(i, j): dict(t) for i, j, t in doc.brackets})
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
    algebra = documents.document_algebra(doc)
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
    algebra = documents.document_algebra(doc)
    metric, theta = _metric(doc), _theta(doc)
    if doc.flat_factor is None:
        raise ValueError("document has no flat_factor")
    return algebra, metric, theta, Subspace.from_vectors(doc.flat_factor, doc.dim)


def cmd_lcp(args: argparse.Namespace) -> int:
    if args.candidate is not None and args.action != "char-bound":
        raise ValueError("--candidate applies only to lcp char-bound")
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
        algebra = documents.document_algebra(doc)
        result = maximal_flat_factor(algebra, _metric(doc), _theta(doc))
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
        structure = build_from_triple(documents.document_triple(doc))
        print(documents.emit_algebra_document(documents.structure_document(structure)), end="")
        return 0

    if args.action == "char-bound":
        try:
            structure = validate_lcp(*_detect_payload(doc))
        except LCPValidationError as exc:
            raise ValueError(f"document is not a valid LCP structure: {exc}") from exc
        algebra = structure.algebra
        bound = characteristic_constraint_space(structure)
        report = None
        if args.candidate is not None:
            try:
                raw = json.loads(args.candidate)
                rows = documents._rational_matrix(raw, None, algebra.dim, "candidate")
                candidate = Subspace.from_vectors(rows, algebra.dim)
            except (ValueError, DocumentError, RecursionError) as exc:
                raise ValueError(f"invalid candidate basis: {exc}") from exc
            report = check_candidate(structure, candidate)
        if args.json:
            payload: dict = {"bound": _subspace_rows(bound), "dim": bound.dim}
            if report is not None:
                payload["candidate"] = {
                    "basis": _subspace_rows(report.candidate),
                    "theta_vanishes": report.theta_vanishes,
                    "action_trivial": report.action_trivial,
                    "abelian": report.is_abelian,
                    "in_radical": report.in_radical,
                    "in_commutator": report.in_commutator,
                }
            print(json.dumps(payload, indent=2))
            return 0
        print(f"bound = {_format_subspace(bound, algebra.labels)} (dim {bound.dim})")
        if report is not None:
            c = report.candidate
            print(f"candidate: {_format_subspace(c, algebra.labels)} (dim {c.dim})")
            print(f"theta vanishes: {_yesno(report.theta_vanishes)}")
            print(f"action trivial: {_yesno(report.action_trivial)}")
            print(f"abelian: {_yesno(report.is_abelian)}")
            print(f"in radical: {_yesno(report.in_radical)}")
            print(f"in commutator: {_yesno(report.in_commutator)}")
        return 0

    raise AssertionError(f"unhandled action {args.action}")


def cmd_lattice(args: argparse.Namespace) -> int:
    doc = documents.parse_lattice_document(_load(args.file))

    if args.action == "snf":
        u, d, v = smith_normal_form(doc.endomorphism)
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
            for name, m in zip("UDV", (u, d, v)):
                print(f"{name} = {[list(r) for r in m]}")

    elif args.action == "index":
        idx = lattice_index(doc.endomorphism)
        idx = "infinite" if idx is None else idx
        print(json.dumps({"index": idx}, indent=2) if args.json else f"index: {idx}")

    elif args.action == "lemma51":
        if doc.e1 is None or doc.e2 is None:
            raise ValueError("document has no split block (e1/e2 bases)")
        k = doc.endomorphism.size
        try:
            split = SplitDecomposition(
                Subspace.from_vectors(doc.e1, k), Subspace.from_vectors(doc.e2, k)
            )
        except ValueError as exc:
            raise ValueError(f"invalid decomposition: {exc}") from exc
        verdict = check_splitting(doc.endomorphism, split)
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
            hypotheses = (verdict.integral, verdict.e1_invariant, verdict.e2_invariant,
                          verdict.restriction_invertible)
            print(
                "hypotheses: integral: {}; E1 invariant: {}; E2 invariant: {}; "
                "(A - I)|E1 invertible: {}".format(*map(_yesno, hypotheses))
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

    else:
        raise AssertionError(f"unhandled action {args.action}")
    return 0


# The grammar, written once: command -> (action choices, handler, options, help).
# `build_parser` makes one subparser per entry and `_read_plain` reads the same
# entries. An option with action "store_true" is a flag; any other takes one value.
_OPTIONS = {
    "--candidate": {"help": "JSON basis (list of rational-string vectors)"},
    "--json": {"action": "store_true"},
}
_FLAGS = {option for option, spec in _OPTIONS.items() if spec.get("action") == "store_true"}
_COMMANDS = {
    "validate": ((), cmd_validate, (), "check a document's algebra, metric and covector"),
    "analyze": ((), cmd_analyze, (), "structural invariants of the algebra"),
    "lcp": (
        ("detect", "max-flat", "from-triple", "char-bound"),
        cmd_lcp,
        ("--candidate", "--json"),
        "conformal product structure analysis",
    ),
    "lattice": (
        ("snf", "index", "lemma51"),
        cmd_lattice,
        ("--json",),
        "integer matrix normal forms and splitting checks",
    ),
}


# Built on the first line that `_read_plain` leaves to argparse. Sharing one
# parser between calls is safe: every action is `store` or `store_true` and
# every default is an immutable value or a `set_defaults(func=...)` command, so
# parse_args mutates nothing in the parser.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lcplie",
        description="Exact analysis of conformal product structures on metric Lie algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (choices, func, options, help_text) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        if choices:
            p.add_argument("action", choices=list(choices))
        p.add_argument("file")
        for option in options:
            p.add_argument(option, **_OPTIONS[option])
        p.set_defaults(func=func)
    return parser


def _read_plain(argv) -> argparse.Namespace | None:
    """The namespace `build_parser().parse_args(argv)` gives, for a plain line:
    a command, its action if it has choices, one file, then only the exact
    options the command allows, each flag alone and each other option with one
    value. None for any other line (help, abbreviations, `--opt=value`, `--`,
    a token that is empty or starts with "-", a usage error), which argparse
    reads instead."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    choices, func, options, _ = _COMMANDS[argv[0]]
    at = 2 if choices else 1  # the file's index
    if len(argv) <= at or any(not t or t[0] == "-" for t in argv[1 : at + 1]):
        return None
    if choices and argv[1] not in choices:
        return None
    values = {"command": argv[0], "func": func, "file": argv[at]}
    if choices:
        values["action"] = argv[1]
    for option in options:  # argparse's defaults
        values[option[2:]] = False if option in _FLAGS else None
    rest = iter(argv[at + 1 :])
    for token in rest:
        if token not in options:
            return None
        if token in _FLAGS:
            values[token[2:]] = True
            continue
        value = next(rest, "")
        if not value or value[0] == "-":
            return None
        values[token[2:]] = value
    return argparse.Namespace(**values)


def main(argv=None) -> int:
    """Run the command with stdout on a buffer, written once it returns, so a
    failed command writes no stdout; a RuntimeError (a failed self-check) propagates."""
    if argv is None:
        argv = sys.argv[1:]
    args = _read_plain(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = args.func(args)
    except DocumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        message = str(exc)
        if "integer string conversion" in message:  # Python's int-to-string digit limit
            limit = sys.get_int_max_str_digits()
            message = f"result has an integer of more than {limit} digits to print"
        print(f"error: {message}", file=sys.stderr)
        return 2
    sys.stdout.write(out.getvalue())
    return code


if __name__ == "__main__":
    sys.exit(main())
