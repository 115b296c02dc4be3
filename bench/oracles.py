"""Independent checks of lcplie's outputs.

Nothing here imports lcplie: each check recomputes what the program should
have printed from the input document and textbook formulas, so a bug shared
by the program and its checker cannot hide.
"""
from __future__ import annotations

import json
import re
from fractions import Fraction


class OracleError(Exception):
    """An output disagrees with the independently computed expectation."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise OracleError(message)


# ---------------------------------------------------------------- integers


def int_matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def det_cofactor(a) -> int:
    """Determinant by Laplace expansion along the rows.

    Minors are memoised on the set of columns still free, which makes the
    expansion O(k 2^k) instead of O(k!); k <= 12 stays in milliseconds.
    """
    k = len(a)
    memo: dict[tuple[int, ...], int] = {(): 1}

    def expand(free: tuple[int, ...]) -> int:
        if free in memo:
            return memo[free]
        row = a[k - len(free)]
        total = 0
        for pos, col in enumerate(free):
            if row[col]:
                sign = -1 if pos % 2 else 1
                total += sign * row[col] * expand(free[:pos] + free[pos + 1:])
        memo[free] = total
        return total

    return expand(tuple(range(k)))


def check_snf(a, stdout: str) -> None:
    """`lattice snf --json`: U A V = D, D a divisor chain, U and V unimodular."""
    payload = json.loads(stdout)
    u, d, v = payload["u"], payload["d"], payload["v"]
    k = len(a)
    expect(int_matmul(int_matmul(u, a), v) == d, "U*A*V differs from D")
    diag = [d[i][i] for i in range(k)]
    expect(
        all(d[r][c] == 0 for r in range(k) for c in range(k) if r != c),
        "D is not diagonal",
    )
    expect(all(x >= 0 for x in diag), "negative elementary divisor")
    for x, y in zip(diag, diag[1:]):
        expect(y == 0 if x == 0 else y % x == 0, f"divisor chain breaks at {x}, {y}")
    expect(payload["divisors"] == diag, "divisors list differs from diag(D)")
    expect(abs(det_cofactor(u)) == 1, "U is not unimodular")
    expect(abs(det_cofactor(v)) == 1, "V is not unimodular")


def check_index(a, stdout: str, *, as_json: bool) -> None:
    """`lattice index`: |det A| by cofactor expansion, 'infinite' when zero."""
    det = det_cofactor(a)
    expected = "infinite" if det == 0 else abs(det)
    if as_json:
        got = json.loads(stdout)["index"]
    else:
        match = re.fullmatch(r"index: (\S+)\n", stdout)
        expect(match is not None, "index line missing")
        got = match.group(1) if match.group(1) == "infinite" else int(match.group(1))
    expect(got == expected, f"index {got} != |det A| = {expected}")


# --------------------------------------------------------------- rationals


def rational_matrix(rows):
    return [[Fraction(x) for x in row] for row in rows]


def identity(n: int):
    return [[Fraction(int(r == c)) for c in range(n)] for r in range(n)]


def bracket_map(entries) -> dict[tuple[int, int], dict[int, Fraction]]:
    """Document bracket list -> {(i, j): {k: c}} with i < j and no zeros."""
    out: dict[tuple[int, int], dict[int, Fraction]] = {}
    for entry in entries:
        i, j, sign = entry["i"], entry["j"], 1
        if i > j:
            i, j, sign = j, i, -1
        coeffs = {int(k): sign * Fraction(c) for k, c in entry["c"].items()}
        out[(i, j)] = {k: c for k, c in coeffs.items() if c != 0}
    return out


def document_metric(raw, n: int):
    return identity(n) if raw in (None, "identity") else rational_matrix(raw)


def jacobi_holds(dim: int, brackets: dict[tuple[int, int], dict[int, Fraction]]) -> bool:
    """Jacobi identity on every basis triple, over the sparse table."""

    def br(i: int, j: int) -> dict[int, Fraction]:
        if i < j:
            return brackets.get((i, j), {})
        if i > j:
            return {k: -c for k, c in brackets.get((j, i), {}).items()}
        return {}

    def br_vec(x: dict[int, Fraction], m: int) -> dict[int, Fraction]:
        out: dict[int, Fraction] = {}
        for idx, c in x.items():
            for k, d in br(idx, m).items():
                out[k] = out.get(k, 0) + c * d
        return out

    for i in range(dim):
        for j in range(i + 1, dim):
            for k in range(j + 1, dim):
                acc: dict[int, Fraction] = {}
                for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
                    for t, c in br_vec(br(x, y), z).items():
                        acc[t] = acc.get(t, 0) + c
                if any(c != 0 for c in acc.values()):
                    return False
    return True


# ------------------------------------------------------ triple correspondence


def expected_structure(triple: dict) -> dict:
    """The structure `lcp from-triple` must emit, from the semidirect-sum formula.

    For a triple (h, g_h, q, beta) the algebra is R^q extended by h acting
    through alpha(x) = w(x) I + beta(x), with the conformal weight
    w = -tr(ad_x) / q. So [u_i, x_j] = -alpha_j u_i, brackets inside h shift
    by q, the metric is I_q (+) g_h, the lee covector is (0, w), and the flat
    factor is spanned by the first q basis vectors.
    """
    h, q = triple["h"], triple["q"]
    m = h["dim"]
    hb = bracket_map(h["brackets"])

    def h_bracket(i: int, j: int) -> dict[int, Fraction]:
        if i < j:
            return hb.get((i, j), {})
        return {k: -c for k, c in hb.get((j, i), {}).items()} if i > j else {}

    weight = [-sum((h_bracket(i, j).get(j, 0) for j in range(m)), Fraction(0)) / q for i in range(m)]
    betas = [rational_matrix(b) for b in triple["beta"]]
    brackets: dict[tuple[int, int], dict[int, Fraction]] = {}
    for j in range(m):
        alpha = [
            [weight[j] * (r == c) + betas[j][r][c] for c in range(q)] for r in range(q)
        ]
        for i in range(q):
            col = {r: -alpha[r][i] for r in range(q) if alpha[r][i] != 0}
            if col:
                brackets[(i, q + j)] = col
    for (i, j), coeffs in hb.items():
        if coeffs:
            brackets[(q + i, q + j)] = {q + k: c for k, c in coeffs.items()}
    n = q + m
    gram = identity(n)
    g_h = document_metric(h.get("metric"), m)
    for r in range(m):
        for c in range(m):
            gram[q + r][q + c] = g_h[r][c]
    return {
        "dim": n,
        "brackets": brackets,
        "metric": gram,
        "theta": [Fraction(0)] * q + weight,
        "flat_factor": identity(n)[:q],
    }


def check_from_triple(triple: dict, stdout: str) -> None:
    """`lcp from-triple`: the emitted structure matches the semidirect sum."""
    doc = json.loads(stdout)
    want = expected_structure(triple)
    n = want["dim"]
    expect(doc["dim"] == n, f"dim {doc['dim']} != {n}")
    expect(bracket_map(doc["brackets"]) == want["brackets"], "bracket table differs from the semidirect sum")
    expect(document_metric(doc.get("metric"), n) == want["metric"], "metric is not I_q (+) g_h")
    expect([Fraction(x) for x in doc["theta"]] == want["theta"], "lee covector differs from the conformal weight")
    expect(rational_matrix(doc["flat_factor"]) == want["flat_factor"], "flat factor is not the first q basis vectors")


def structure_document(structure: dict, flat_factor) -> dict:
    """A schema-valid algebra document for an expected structure."""
    n = structure["dim"]
    return {
        "dim": n,
        "basis": [f"e{i + 1}" for i in range(n)],
        "brackets": [
            {"i": i, "j": j, "c": {str(k): str(c) for k, c in sorted(coeffs.items())}}
            for (i, j), coeffs in sorted(structure["brackets"].items())
        ],
        "metric": [[str(x) for x in row] for row in structure["metric"]],
        "theta": [str(x) for x in structure["theta"]],
        "flat_factor": [[str(x) for x in row] for row in flat_factor],
    }


# ------------------------------------------------------------ LCP verdicts


def check_detect_valid(stdout: str) -> None:
    lines = stdout.splitlines()
    expect(lines[:2] == ["valid: yes", "adapted: yes"], "structure built from a triple must be valid and adapted")


def check_max_flat_json(q: int, stdout: str) -> None:
    payload = json.loads(stdout)
    expect(payload["classification"] == "lcp", f"classification {payload['classification']!r}, expected 'lcp'")
    expect(payload["adapted"] is True, "maximal flat factor of a triple structure must be adapted")
    expect(payload["dim"] == len(payload["flat_factor"]) >= q, "maximal flat factor is smaller than the built one")


def check_char_bound_json(stdout: str) -> None:
    payload = json.loads(stdout)
    expect(payload["dim"] == len(payload["bound"]), "bound dimension disagrees with its basis")


def check_detect_rejected(stdout: str) -> None:
    payload = json.loads(stdout)
    expect(payload["valid"] is False and payload["violations"], "perturbed flat factor must be rejected")


# ------------------------------------------------------- algebra invariants


def algebra_facts(parts) -> dict[str, str]:
    """Invariants `analyze` must print for a direct sum of family members.

    Parts are ("heis", k) for the Heisenberg algebra of dimension 2k + 1,
    ("diag", weights) for R^m x R with t acting by diag(weights), all weights
    nonzero, and ("abelian", n). Dimensions of the derived algebra, radical
    and center add over direct summands, and so does the Killing signature.
    """
    dim = derived = center = pos = 0
    abelian = nilpotent = unimodular = True
    for kind, arg in parts:
        if kind == "heis":
            n = 2 * arg + 1
            derived += 1
            center += 1
            abelian = False
        elif kind == "diag":
            n = len(arg) + 1
            derived += len(arg)
            pos += 1  # K(t, t) = sum of squared weights > 0, zero elsewhere
            abelian = nilpotent = False
            unimodular = unimodular and sum(arg) == 0
        else:
            n = arg
            center += n
        dim += n
    yes = {True: "yes", False: "no"}
    return {
        "dim": str(dim),
        "abelian": yes[abelian],
        "unimodular": yes[unimodular],
        "solvable": "yes",
        "nilpotent": yes[nilpotent],
        "semisimple": "no",
        "derived algebra dim": str(derived),
        "radical dim": str(dim),
        "center dim": str(center),
        "killing signature": f"({pos}, 0, {dim - pos})",
    }


def check_analyze(parts, stdout: str) -> None:
    got: dict[str, str] = {}
    for line in stdout.splitlines():
        key, _, value = line.partition(": ")
        dim_match = re.search(r"\(dim (\d+)\)$", value)
        if dim_match:
            got[f"{key} dim"] = dim_match.group(1)
        else:
            got[key] = value
    for key, value in algebra_facts(parts).items():
        expect(got.get(key) == value, f"{key}: got {got.get(key)!r}, expected {value!r}")


VALIDATE_OK = "jacobi: ok\nmetric: absent\ntheta: absent\nvalid: yes\n"


def check_validate(stdout: str) -> None:
    expect(stdout == VALIDATE_OK, "a Jacobi-valid algebra without metric must validate")
