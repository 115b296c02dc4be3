"""Seeded workload generators.

A workload is a set of documents plus the list of `lcplie` invocations one
pass makes over them. Each seeded document fills a *slot* (for example "the
n=6 triple") and is drawn from a fixed pool of POOL variants of that slot;
the seed only picks which variant fills each slot. So the same seed always
gives the same inputs, different seeds give different inputs of the same
size and shape, and every document any seed can produce has its expected
output bytes recorded in goldens.json (see record_goldens.py).

NOTES.md gives the family parameters and why each workload exists.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Callable

import oracles

POOL = 8
WORKLOADS = ("corpus", "lcp-scaling", "wide-algebras")


@dataclass(frozen=True)
class Invocation:
    """One CLI call: argv for `lcplie.cli.main`, with file names relative to
    the work directory. `check` is an independent oracle taking stdout and
    raising OracleError; `stdout_to` names a file the stdout is saved to, as
    in `lcplie lcp from-triple t.json > s.json`."""

    key: str
    argv: tuple[str, ...]
    check: Callable[[str], None] | None = None
    stdout_to: str | None = None


@dataclass
class Workload:
    files: dict[str, str] = field(default_factory=dict)
    invocations: list[Invocation] = field(default_factory=list)


Chooser = Callable[[str], int]


def seeded(seed: int) -> Chooser:
    """The variant of each slot for a seed."""
    return lambda slot: random.Random(f"{seed}/{slot}").randrange(POOL)


def fixed(variant: int) -> Chooser:
    """Every slot filled by one variant (used to record goldens)."""
    return lambda slot: variant


def build(name: str, choose: Chooser, corpus_dir: Path) -> Workload:
    if name == "corpus":
        return corpus(choose, corpus_dir)
    if name == "lcp-scaling":
        return lcp_scaling(choose)
    if name == "wide-algebras":
        return wide_algebras(choose)
    raise ValueError(f"unknown workload {name!r}")


def _variant_rng(workload: str, slot: str, variant: int) -> random.Random:
    return random.Random(f"{workload}/{slot}/v{variant}")


def _forms(argv: tuple[str, ...]) -> tuple[tuple[str, ...], tuple[str, ...]]:
    return argv, argv + ("--json",)


# ------------------------------------------------------------------ corpus

ALGEBRA_ACTIONS = ("detect", "max-flat", "from-triple", "char-bound")
LATTICE_ACTIONS = ("snf", "index", "lemma51")
# Candidates inside the metric complement of the flat factor (identity metric).
CANDIDATES = {
    "sol3": '[["0", "1", "0"]]',
    "rot4": '[["0", "0", "0", "1"]]',
    "rot5": '[["0", "0", "0", "1", "0"]]',
}
LATTICE_SIZES = range(4, 13)
LATTICE_ENTRY = 3


def _lattice_check(action: str, matrix, argv: tuple[str, ...]):
    as_json = "--json" in argv
    if action == "snf" and as_json:
        return partial(oracles.check_snf, matrix)
    if action == "index":
        return partial(oracles.check_index, matrix, as_json=as_json)
    return None


def corpus(choose: Chooser, corpus_dir: Path) -> Workload:
    """Every applicable subcommand, text and --json, on each corpus file;
    char-bound with known candidates; a seeded batch of integer matrices."""
    wl = Workload()
    paths = sorted(corpus_dir.glob("*.json"))
    if not paths:
        raise FileNotFoundError(f"no corpus documents in {corpus_dir}")
    for path in paths:
        text = path.read_text(encoding="utf-8")
        fname, stem = path.name, path.stem
        wl.files[fname] = text
        raw = json.loads(text)
        argvs: list[tuple[tuple[str, ...], Callable | None]] = []
        if "matrix" in raw:
            for action in LATTICE_ACTIONS:
                for argv in _forms(("lattice", action, fname)):
                    argvs.append((argv, _lattice_check(action, raw["matrix"], argv)))
        else:
            argvs.append((("validate", fname), None))
            argvs.append((("analyze", fname), None))
            for action in ALGEBRA_ACTIONS:
                check = None
                if action == "from-triple" and "triple" in raw:
                    check = partial(oracles.check_from_triple, raw["triple"])
                for argv in _forms(("lcp", action, fname)):
                    argvs.append((argv, check))
        if stem in CANDIDATES:
            for argv in _forms(("lcp", "char-bound", fname, "--candidate", CANDIDATES[stem])):
                argvs.append((argv, None))
        for argv, check in argvs:
            key = f"corpus/{stem}/" + " ".join(a for a in argv if a != fname)
            wl.invocations.append(Invocation(key, argv, check))
    for k in LATTICE_SIZES:
        slot = f"lattice-k{k}"
        v = choose(slot)
        rng = _variant_rng("corpus", slot, v)
        matrix = [[rng.randint(-LATTICE_ENTRY, LATTICE_ENTRY) for _ in range(k)] for _ in range(k)]
        fname = f"int{k}.json"
        wl.files[fname] = json.dumps({"matrix": matrix}) + "\n"
        for action in ("snf", "index"):
            for argv in _forms(("lattice", action, fname)):
                key = f"corpus/{slot}/v{v}/" + " ".join(a for a in argv if a != fname)
                wl.invocations.append(Invocation(key, argv, _lattice_check(action, matrix, argv)))
    return wl


# ------------------------------------------------------------- lcp-scaling

SCALING_DIMS = (4, 5, 6)


def scaling_triple(n: int, rng: random.Random) -> dict:
    """Triple with q = n // 2 and h = aff(R) (+) R^(m-2), m = n - q.

    h has basis a, b, z1.. with [a, b] = b. Its metric is L L^T / 2 with L
    the identity plus random signs on the first subdiagonal, so it is
    rational, positive definite and tridiagonal, not diagonal. beta acts by
    one 2x2 rotation block J (plus a fixed line when q is odd):
    beta(a) = +-J, beta(z_i) = +-(i + 1) J and beta(b) = 0. All beta commute
    and beta(b) = [beta(a), beta(b)] = 0, so beta is a homomorphism into
    so(q). Only signs are random: every variant has entries of the same
    sizes, so the exact arithmetic costs the same for every seed.
    """
    q = n // 2
    m = n - q
    lower = [[int(r == c) for c in range(m)] for r in range(m)]
    for r in range(1, m):
        lower[r][r - 1] = rng.choice((1, -1))
    gram = [
        [Fraction(sum(lower[r][t] * lower[c][t] for t in range(m)), 2) for c in range(m)]
        for r in range(m)
    ]

    def rotation(scale: int) -> list[list[str]]:
        block = [["0"] * q for _ in range(q)]
        block[0][1], block[1][0] = str(-scale), str(scale)
        return block

    beta = [rotation(rng.choice((1, -1))), rotation(0)]
    beta += [rotation(rng.choice((1, -1)) * (i + 2)) for i in range(m - 2)]
    h = {
        "dim": m,
        "basis": ["a", "b"] + [f"z{i + 1}" for i in range(m - 2)],
        "brackets": [{"i": 0, "j": 1, "c": {"1": "1"}}],
        "metric": [[str(x) for x in row] for row in gram],
    }
    return {"triple": {"h": h, "q": q, "beta": beta}}


def perturbed_structure(triple: dict) -> dict:
    """The built structure with u_1 replaced by u_1 + a. The lee covector is
    -1/q on a, so the flat factor is not adapted on a unimodular algebra and
    `detect` must reject it."""
    structure = oracles.expected_structure(triple)
    q = triple["q"]
    flat = [list(row) for row in structure["flat_factor"]]
    flat[0][q] = Fraction(1)
    return oracles.structure_document(structure, flat)


def lcp_scaling(choose: Chooser) -> Workload:
    """Construct, accept and reject: from-triple, then detect, max-flat and
    char-bound on its output, then detect on a perturbed copy."""
    wl = Workload()
    for n in SCALING_DIMS:
        slot = f"n{n}"
        v = choose(slot)
        doc = scaling_triple(n, _variant_rng("lcp-scaling", slot, v))
        triple = doc["triple"]
        t, s, p = f"t{n}.json", f"s{n}.json", f"p{n}.json"
        wl.files[t] = json.dumps(doc, indent=2) + "\n"
        wl.files[p] = json.dumps(perturbed_structure(triple), indent=2) + "\n"
        steps = [
            (("lcp", "from-triple", t), partial(oracles.check_from_triple, triple), s),
            (("lcp", "detect", s), oracles.check_detect_valid, None),
            (("lcp", "max-flat", s, "--json"), partial(oracles.check_max_flat_json, triple["q"]), None),
            (("lcp", "char-bound", s, "--json"), oracles.check_char_bound_json, None),
            (("lcp", "detect", p, "--json"), oracles.check_detect_rejected, None),
        ]
        for argv, check, stdout_to in steps:
            key = f"lcp-scaling/{slot}/v{v}/" + " ".join(argv)
            wl.invocations.append(Invocation(key, argv, check, stdout_to))
    return wl


# ----------------------------------------------------------- wide-algebras

# slot -> family parts. A "diag" part of size m has weights of sizes
# 1, 2, 3, 1, 2, ... in a random order with random signs, so the variants of
# a slot differ in signs and basis order but not in the size of any entry.
ANALYZE_SLOTS = {
    "heis9": (("heis", 4),),
    "diag10": (("diag", 9),),
    "abelian10": (("abelian", 10),),
    "heis5+diag6": (("heis", 2), ("diag", 5)),
}
VALIDATE_SLOTS = {
    "abelian32": (("abelian", 32),),
    "heis15+diag16": (("heis", 7), ("diag", 15)),
}


def _part_brackets(kind: str, arg, offset: int):
    """(labels, brackets) of one summand, indices shifted by offset."""
    if kind == "heis":  # [x_i, y_i] = z
        k = arg
        labels = [f"x{i + 1}" for i in range(k)] + [f"y{i + 1}" for i in range(k)] + ["z"]
        return labels, {(offset + i, offset + k + i): {offset + 2 * k: 1} for i in range(k)}
    if kind == "diag":  # [t, v_i] = w_i v_i
        m = len(arg)
        labels = [f"v{i + 1}" for i in range(m)] + ["t"]
        return labels, {(offset + i, offset + m): {offset + i: -w} for i, w in enumerate(arg)}
    return [f"e{i + 1}" for i in range(arg)], {}


def _weights(m: int, rng: random.Random) -> tuple[int, ...]:
    sizes = [1 + i % 3 for i in range(m)]
    rng.shuffle(sizes)
    return tuple(rng.choice((1, -1)) * size for size in sizes)


def sparse_algebra(parts, rng: random.Random) -> tuple[dict, tuple]:
    """Document of a direct sum of family members under a random basis order.

    Returns the document and the parts with the diag weights filled in."""
    filled = tuple((kind, _weights(arg, rng) if kind == "diag" else arg) for kind, arg in parts)
    labels: list[str] = []
    brackets: dict = {}
    for index, (kind, arg) in enumerate(filled):
        part_labels, part_brackets = _part_brackets(kind, arg, len(labels))
        labels += [f"{label}_{index + 1}" for label in part_labels]
        brackets.update(part_brackets)
    order = list(range(len(labels)))
    rng.shuffle(order)  # old index i moves to position order[i]
    entries = []
    for (i, j), coeffs in brackets.items():
        a, b, sign = order[i], order[j], 1
        if a > b:
            a, b, sign = b, a, -1
        entries.append({"i": a, "j": b, "c": {str(order[k]): str(sign * c) for k, c in coeffs.items()}})
    entries.sort(key=lambda e: (e["i"], e["j"]))
    basis = [""] * len(labels)
    for i, label in enumerate(labels):
        basis[order[i]] = label
    return {"dim": len(labels), "basis": basis, "brackets": entries}, filled


def wide_algebras(choose: Chooser) -> Workload:
    """`analyze` at dimension 9-11 and `validate` at dimension 31-32, on
    sparse algebras without metric, so no connection is ever built."""
    wl = Workload()
    for slots, analyze in ((ANALYZE_SLOTS, True), (VALIDATE_SLOTS, False)):
        for slot, parts in slots.items():
            v = choose(slot)
            doc, filled = sparse_algebra(parts, _variant_rng("wide-algebras", slot, v))
            fname = f"{slot}.json"
            wl.files[fname] = json.dumps(doc, indent=2) + "\n"
            steps = [(("validate", fname), oracles.check_validate)]
            if analyze:
                steps.append((("analyze", fname), partial(oracles.check_analyze, filled)))
            for argv, check in steps:
                key = f"wide-algebras/{slot}/v{v}/{argv[0]}"
                wl.invocations.append(Invocation(key, argv, check))
    return wl
