"""Command line interface.

Exit codes: 0 success, 1 file/parse problems, 2 semantic invalidity. Commands
only print: `main` alone writes stdout and maps failures to exit codes: a
`DocumentError` to 1, and a `ValueError` to 2, including a field that the
command needs and `documents` finds missing. Each action of `analyze`, `lcp`
and `lattice` builds one report, which `_render` prints as text or `--json`.
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
from .documents import DocumentError
from .lattice import check_splitting, lattice_index, smith_normal_form
from .lcp import (
    CLASS_CONFORMALLY_FLAT,
    CLASS_LCP,
    CLASS_NONE,
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


def _parenthesized(values) -> str:
    return f"({', '.join(map(str, values))})"


def _render(args: argparse.Namespace, entries, labels=()) -> None:
    """Print a report: entries (key, label, value) in order. The one place that
    reads `--json`. JSON prints the keyed entries, a dotted key nested and a
    Subspace as its rows. Text prints "label value" for each labelled entry: a
    bool as yes/no, None as unknown, a Subspace over labels with its dimension,
    and a tuple as one line per item. An entry that one form leaves out has
    key or label None."""
    if getattr(args, "json", False):
        payload: dict = {}
        for key, _, value in entries:
            if key is not None:
                *path, last = key.split(".")
                node = payload
                for part in path:
                    node = node.setdefault(part, {})
                node[last] = _subspace_rows(value) if isinstance(value, Subspace) else value
        print(json.dumps(payload, indent=2))
        return
    for _, label, value in entries:
        if label is None:
            continue
        if isinstance(value, bool):
            value = _yesno(value)
        elif value is None:
            value = "unknown"
        elif isinstance(value, Subspace):
            value = f"{_format_subspace(value, labels)} (dim {value.dim})"
        for item in value if isinstance(value, tuple) else (value,):
            print(f"{label} {item}")


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
                _parenthesized(doc.basis[t] for t in triple)
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
    algebra = documents.document_algebra(documents.parse_algebra_document(_load(args.file)))
    rad = radical(algebra)
    trace = _format_combination(trace_form(algebra).coefficients, algebra.labels, dual=True)
    signature = _parenthesized(symmetric_signature(killing_form(algebra)))
    _render(args, [
        ("dim", "dim:", algebra.dim),
        ("abelian", "abelian:", is_abelian(algebra)),
        ("unimodular", "unimodular:", is_unimodular(algebra)),
        ("solvable", "solvable:", is_solvable(algebra)),
        ("nilpotent", "nilpotent:", is_nilpotent(algebra)),
        ("semisimple", "semisimple:", rad.is_zero()),
        ("derived_algebra", "derived algebra:", derived_algebra(algebra)),
        ("radical", "radical:", rad),
        ("center", "center:", center(algebra)),
        ("trace_form", "trace form:", trace),
        ("killing_signature", "killing signature:", signature),
    ], algebra.labels)
    return 0


# The classification line of `lcp max-flat`'s text, by classification
_CLASSIFICATION_TEXT = {
    CLASS_LCP: "lcp",
    CLASS_CONFORMALLY_FLAT: "conformally-flat (whole algebra; not LCP)",
    CLASS_NONE: "none (no LCP structure with this metric and covector)",
}


def cmd_lcp(args: argparse.Namespace) -> int:
    if args.candidate is not None and args.action != "char-bound":
        raise ValueError("--candidate applies only to lcp char-bound")
    doc = documents.parse_algebra_document(_load(args.file))
    if args.action == "from-triple":
        structure = build_from_triple(documents.document_triple(doc))
        print(documents.emit_algebra_document(documents.structure_document(structure)), end="")
        return 0

    if args.action == "max-flat":
        algebra, metric, theta = documents.document_conformal(doc)
        result = maximal_flat_factor(algebra, metric, theta)
        is_lcp = result.classification == CLASS_LCP
        _render(args, [
            ("flat_factor", "flat factor =", result.subspace),
            ("dim", None, result.subspace.dim),
            ("classification", None, result.classification),
            (None, "classification:", _CLASSIFICATION_TEXT[result.classification]),
            ("adapted", "adapted:" if is_lcp else None, result.adapted),
        ], algebra.labels)
        return 0

    try:
        structure = validate_lcp(*documents.document_lcp_arguments(doc))
    except LCPValidationError as exc:
        if args.action == "char-bound":
            raise ValueError(f"document is not a valid LCP structure: {exc}") from exc
        _render(args, [("valid", "valid:", False), ("violations", "violation:", exc.violations)])
        return 2
    labels = structure.algebra.labels

    if args.action == "detect":
        _render(args, [
            ("valid", "valid:", True),
            ("violations", "violation:", ()),
            ("adapted", "adapted:", structure.adapted),
            ("maximal", "maximal:", structure.maximal),
            ("flat_factor", "flat factor:", structure.flat_factor),
        ], labels)
        return 0

    if args.action == "char-bound":
        bound = characteristic_constraint_space(structure)
        entries = [("bound", "bound =", bound), ("dim", None, bound.dim)]
        if args.candidate is not None:
            candidate = documents.parse_candidate(args.candidate, structure.algebra.dim)
            report = check_candidate(structure, candidate)
            entries += [
                ("candidate.basis", "candidate:", report.candidate),
                ("candidate.theta_vanishes", "theta vanishes:", report.theta_vanishes),
                ("candidate.action_trivial", "action trivial:", report.action_trivial),
                ("candidate.abelian", "abelian:", report.is_abelian),
                ("candidate.in_radical", "in radical:", report.in_radical),
                ("candidate.in_commutator", "in commutator:", report.in_commutator),
            ]
        _render(args, entries, labels)
        return 0

    raise AssertionError(f"unhandled action {args.action}")


def cmd_lattice(args: argparse.Namespace) -> int:
    doc = documents.parse_lattice_document(_load(args.file))
    a = doc.endomorphism

    if args.action == "snf":
        u, d, v = smith_normal_form(a)
        divisors = [d[i][i] for i in range(a.size)]
        _render(args, [
            (None, "divisors:", _parenthesized(divisors)),
            *((name.lower(), f"{name} =", list(map(list, m))) for name, m in zip("UDV", (u, d, v))),
            ("divisors", None, divisors),
        ])

    elif args.action == "index":
        idx = lattice_index(a)
        _render(args, [("index", "index:", "infinite" if idx is None else idx)])

    elif args.action == "lemma51":
        verdict = check_splitting(a, documents.document_split(doc))
        hypotheses = (
            ("integral", "integral", verdict.integral),
            ("e1_invariant", "E1 invariant", verdict.e1_invariant),
            ("e2_invariant", "E2 invariant", verdict.e2_invariant),
            ("restriction_invertible", "(A - I)|E1 invertible", verdict.restriction_invertible),
        )
        conclusion = None if verdict.index is None else "conclusion holds: finite index"
        entries = [
            *((f"hypotheses.{key}", None, flag) for key, _, flag in hypotheses),
            (None, "hypotheses:", "; ".join(f"{name}: {_yesno(f)}" for _, name, f in hypotheses)),
            ("det_a_minus_i", "det(A - I) =", verdict.det_minus_identity),
            ("index", conclusion, verdict.index),
        ]
        if (witness := verdict.witness) is not None:
            entries += [
                ("witness.x", None, list(witness.vector)),
                (None, "witness x =", _parenthesized(witness.vector)),
                ("witness.hyperplane", "hyperplane W =", witness.hyperplane),
                (None, "density refuted:",
                 "projections of lattice points onto E2 lie in W + Z * p2(x/|x|^2)"),
            ]
        else:
            entries.append(("witness", None, None))
            if conclusion is None:
                entries.append((None, "no conclusion:", "hypotheses fail and det(A - I) is nonzero"))
        _render(args, entries, [f"x{i + 1}" for i in range(a.size)])

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
