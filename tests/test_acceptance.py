"""Acceptance gate: one test and one printed PASS/FAIL line per criterion.

Every check here is end to end: corpus files and public entry points only,
exact arithmetic unless a tolerance is part of the contract.
"""
from __future__ import annotations

import json
import random
import time
from fractions import Fraction
from itertools import combinations

from lcplie.cli import main
from lcplie.connections import (
    InnerProduct,
    curvature,
    levi_civita,
    weyl_connection,
)
from lcplie.documents import (
    document_triple,
    emit_any_document,
    parse_algebra_document,
)
from lcplie.lattice import (
    IntegerEndomorphism,
    SplitDecomposition,
    check_splitting,
    det_integer,
    lattice_index,
    smith_normal_form,
)
from lcplie.lcp import (
    build_from_triple,
    characteristic_constraint_space,
    conformal_exponential_residual,
    flat_factor_action,
    is_flat_subspace,
    maximal_flat_factor,
    triple_from_lcp,
    verify_conformal_exponential,
)
from lcplie.liealg import (
    Covector,
    derived_algebra,
    is_abelian_subspace,
    is_ideal,
    is_unimodular,
    radical,
)
from lcplie.linalg import Subspace, mat_vec, vector

from cases import closed_covectors, corpus_structures, random_matrix
from conftest import (
    CORPUS_DIR,
    corpus_text,
    make_abelian,
    make_aff,
    make_heis3,
    make_rot4_structure,
    make_sl2,
    make_sol3,
)
from reference import mat_mul

F = Fraction


def announce(capsys, number: int, name: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"criterion {number} ({name}): {'PASS' if ok else 'FAIL'} ({detail})")


def algebra_corpus():
    rot4 = make_rot4_structure()
    return (
        (make_abelian(3), InnerProduct.identity(3)),
        (make_heis3(), InnerProduct.identity(3)),
        (make_aff(), InnerProduct.identity(2)),
        (make_sol3(), InnerProduct.identity(3)),
        (make_sl2(), InnerProduct.identity(3)),
        (rot4.algebra, rot4.metric),
    )


STRUCTURES = ("sol3.json", "rot4.json", "rot5.json")


def test_criterion_1_metric_connection_exactness(capsys):
    start = time.perf_counter()
    failures = []
    count = 0
    for algebra, gram in algebra_corpus():
        count += 1
        conn = levi_civita(algebra, gram)
        n = algebra.dim
        for i in range(n):
            for j in range(n):
                left = mat_vec(conn.nabla[i], algebra.basis_vector(j))
                right = mat_vec(conn.nabla[j], algebra.basis_vector(i))
                if tuple(a - b for a, b in zip(left, right)) != algebra.basis_bracket(i, j):
                    failures.append(f"torsion at ({i},{j}) in {algebra.labels}")
                for k in range(n):
                    s = gram.value(left, algebra.basis_vector(k)) + gram.value(
                        algebra.basis_vector(j),
                        mat_vec(conn.nabla[i], algebra.basis_vector(k)),
                    )
                    if s != 0:
                        failures.append(f"skewness at ({i},{j},{k}) in {algebra.labels}")
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        failures.append(f"too slow: {elapsed:.3f}s")
    announce(
        capsys,
        1,
        "metric connection torsion-free and skew",
        not failures,
        f"{count} algebras, {elapsed:.3f}s",
    )
    assert not failures, failures


def test_criterion_2_conformal_derivative_identity(capsys):
    failures = []
    checked = 0
    for algebra, gram in algebra_corpus():
        n = algebra.dim
        base = levi_civita(algebra, gram)
        if weyl_connection(algebra, gram, Covector((F(0),) * n)).nabla != base.nabla:
            failures.append(f"zero covector mismatch in {algebra.labels}")
        for theta in closed_covectors(algebra, count=3, seed=101):
            conn = weyl_connection(algebra, gram, theta)
            checked += 1
            for i in range(n):
                scale = 2 * theta.value(algebra.basis_vector(i))
                for j in range(n):
                    for k in range(n):
                        lhs = gram.value(
                            mat_vec(conn.nabla[i], algebra.basis_vector(j)),
                            algebra.basis_vector(k),
                        ) + gram.value(
                            algebra.basis_vector(j),
                            mat_vec(conn.nabla[i], algebra.basis_vector(k)),
                        )
                        if lhs != scale * gram.value(
                            algebra.basis_vector(j), algebra.basis_vector(k)
                        ):
                            failures.append(
                                f"identity fails at ({i},{j},{k}) in {algebra.labels}"
                            )
    announce(
        capsys,
        2,
        "conformal compatibility identity",
        not failures,
        f"{checked} connections",
    )
    assert not failures, failures


def test_criterion_3_curvature_laws(capsys):
    failures = []
    checked = 0
    for algebra, gram in algebra_corpus():
        n = algebra.dim
        for theta in closed_covectors(algebra, count=3, seed=101):
            r = curvature(algebra, weyl_connection(algebra, gram, theta))
            checked += 1
            for i in range(n):
                for j in range(n):
                    forward = r.evaluate(algebra.basis_vector(i), algebra.basis_vector(j))
                    backward = r.evaluate(algebra.basis_vector(j), algebra.basis_vector(i))
                    if forward != tuple(tuple(-c for c in row) for row in backward):
                        failures.append(f"antisymmetry fails at ({i},{j})")
                    for k in range(n):
                        cyc = tuple(
                            a + b + c
                            for a, b, c in zip(
                                mat_vec(r.operator(i, j), algebra.basis_vector(k)),
                                mat_vec(r.operator(j, k), algebra.basis_vector(i)),
                                mat_vec(r.operator(k, i), algebra.basis_vector(j)),
                            )
                        )
                        if any(c != 0 for c in cyc):
                            failures.append(f"cyclic sum fails at ({i},{j},{k})")
    announce(capsys, 3, "curvature antisymmetry and cyclic sum", not failures, f"{checked} connections")
    assert not failures, failures


def test_criterion_4_maximal_flat_factor(capsys):
    start = time.perf_counter()
    failures = []
    algebra = make_sol3()
    gram = InnerProduct.identity(3)
    theta = Covector((F(0), F(-1), F(0)))
    result = maximal_flat_factor(algebra, gram, theta)
    expected = Subspace.from_vectors([vector([1, 0, 0])], 3)
    if result.subspace != expected:
        failures.append(f"flat factor is {result.subspace.basis}")
    if not is_ideal(algebra, result.subspace) or not is_abelian_subspace(algebra, result.subspace):
        failures.append("factor is not an abelian ideal")
    if any(theta.value(row) != 0 for row in result.subspace.basis):
        failures.append("covector does not vanish on the factor")
    if not derived_algebra(algebra).contains_subspace(result.subspace):
        failures.append("factor is not inside the derived algebra")
    # exhaustive sweep of the lattice generated by coordinate subspaces
    conn = weyl_connection(algebra, gram, theta)
    r = curvature(algebra, conn)
    for size in range(4):
        for subset in combinations(range(3), size):
            rows = [tuple(F(1) if k == i else F(0) for k in range(3)) for i in subset]
            s = Subspace.from_vectors(rows, 3)
            if s.is_full():
                continue
            if is_flat_subspace(algebra, conn, r, s) and not result.subspace.contains_subspace(s):
                failures.append(f"flat coordinate subspace {subset} escapes the factor")
    if not is_flat_subspace(algebra, conn, r, result.subspace):
        failures.append("factor is not itself flat")
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        failures.append(f"too slow: {elapsed:.3f}s")
    announce(capsys, 4, "maximal flat factor", not failures, f"dim {result.subspace.dim}, {elapsed:.3f}s")
    assert not failures, failures


def test_criterion_5_correspondence_round_trip(capsys):
    failures = []
    count = 0
    for s in corpus_structures(STRUCTURES):
        count += 1
        triple = triple_from_lcp(s)
        rebuilt = build_from_triple(triple)
        same = (
            rebuilt.algebra.table == s.algebra.table
            and rebuilt.algebra.labels == s.algebra.labels
            and rebuilt.metric.gram == s.metric.gram
            and rebuilt.lee_form == s.lee_form
            and rebuilt.flat_factor == s.flat_factor
        )
        if not same:
            failures.append(f"rebuild differs for dim {s.algebra.dim}")
        if triple_from_lcp(rebuilt) != triple:
            failures.append(f"re-extracted triple differs for dim {s.algebra.dim}")
        if not is_unimodular(rebuilt.algebra) or not rebuilt.adapted:
            failures.append("built structure is not unimodular and adapted")
    for name in ("sol3_triple.json", "rot4_triple.json"):
        triple = document_triple(parse_algebra_document(corpus_text(name)))
        if triple_from_lcp(build_from_triple(triple)) != triple:
            failures.append(f"triple round trip fails for {name}")
    announce(capsys, 5, "triple correspondence round trip", not failures, f"{count} structures")
    assert not failures, failures


def test_criterion_6_conformal_exponential(capsys):
    failures = []
    checked = 0
    for s in corpus_structures(STRUCTURES):
        for row in s.orthocomplement().basis:
            for t in (1.0, -1.0, 0.5, -0.5):
                checked += 1
                if not verify_conformal_exponential(s, row, t, 1e-9):
                    failures.append(f"residual above 1e-9 in dim {s.algebra.dim} at t={t}")
    (rot4,) = corpus_structures(("rot4.json",))
    direction = vector([0, 0, 1, 0])
    action = flat_factor_action(rot4, direction)
    broken = tuple(
        tuple(c + (F(1) if (r, k) == (0, 1) else F(0)) for k, c in enumerate(row))
        for r, row in enumerate(action)
    )
    residual = conformal_exponential_residual(
        rot4.metric.restrict(rot4.flat_factor.basis),
        broken,
        rot4.lee_form.value(direction),
        1.0,
    )
    if residual <= 1e-3:
        failures.append(f"corrupted action slipped through with residual {residual}")
    announce(
        capsys,
        6,
        "exponentiated conformality",
        not failures,
        f"{checked} checks, corrupted residual {residual:.3f}",
    )
    assert not failures, failures


def test_criterion_7_characteristic_constraint_space(capsys):
    failures = []
    (s,) = corpus_structures(("sol3.json",))
    bound = characteristic_constraint_space(s)
    if bound != Subspace.from_vectors([vector([0, 0, 1])], 3):
        failures.append(f"bound is {bound.basis}")
    if not is_abelian_subspace(s.algebra, bound):
        failures.append("bound is not abelian")
    rad = radical(s.algebra)
    if not rad.is_full():
        failures.append("radical should be the whole algebra")
    if not rad.contains_subspace(bound):
        failures.append("bound escapes the radical")
    commutator = derived_algebra(s.algebra)
    if commutator != Subspace.from_vectors([vector([1, 0, 0]), vector([0, 0, 1])], 3):
        failures.append("derived algebra is not the expected plane")
    if not commutator.contains_subspace(bound):
        failures.append("bound escapes the derived algebra")
    announce(capsys, 7, "characteristic constraint space", not failures, f"dim {bound.dim}")
    assert not failures, failures


def test_criterion_8_lattice_suite(capsys):
    start = time.perf_counter()
    failures = []
    rng = random.Random(271828)
    for _ in range(100):
        k = rng.randint(1, 6)
        a = random_matrix(rng, k)
        endo = IntegerEndomorphism(tuple(tuple(row) for row in a))
        u, d, v = smith_normal_form(endo)
        if mat_mul(mat_mul(u, a), v) != d:
            failures.append("factorization does not reconstruct the input")
        if abs(det_integer(u)) != 1 or abs(det_integer(v)) != 1:
            failures.append("transforms are not unimodular")
        diag = [d[i][i] for i in range(k)]
        for first, second in zip(diag, diag[1:]):
            if first == 0 and second != 0:
                failures.append("zero divisor out of order")
            if first != 0 and second % first != 0:
                failures.append("divisibility chain broken")
        expected = abs(det_integer(a))
        if lattice_index(endo) != (expected if expected else None):
            failures.append("index disagrees with the determinant")

    endo = IntegerEndomorphism(((2, 0), (0, 1)))
    split = SplitDecomposition(
        Subspace.from_vectors([vector([1, 0])], 2),
        Subspace.from_vectors([vector([0, 1])], 2),
    )
    verdict = check_splitting(endo, split)
    if verdict.witness is None or verdict.witness.vector != (0, 1):
        failures.append("expected witness (0, 1)")
    else:
        x = verdict.witness.vector
        w = verdict.witness.hyperplane
        # p2 is the second coordinate here; the certified family is W + Z * p2(x/|x|^2)
        for z1 in range(-50, 51):
            for z2 in range(-50, 51):
                n = x[0] * z1 + x[1] * z2
                residue = vector([0, z2 - n])
                if not w.contains(residue):
                    failures.append(f"lattice point ({z1}, {z2}) escapes the family")
                    break
    elapsed = time.perf_counter() - start
    if elapsed >= 5.0:
        failures.append(f"too slow: {elapsed:.3f}s")
    announce(capsys, 8, "integer lattice suite", not failures, f"100 matrices, {elapsed:.3f}s")
    assert not failures, failures


def test_criterion_9_cli_contract(capsys, tmp_path):
    start = time.perf_counter()
    failures = []

    def run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    for path in sorted(CORPUS_DIR.glob("*.json")):
        text = path.read_text(encoding="utf-8")
        if emit_any_document(text) != text:
            failures.append(f"{path.name} is not byte-stable")

    truncated = tmp_path / "truncated.json"
    truncated.write_text('{"dim": 3,')
    jacobi_bad = tmp_path / "jacobi_bad.json"
    jacobi_bad.write_text(
        json.dumps(
            {
                "dim": 3,
                "basis": ["e1", "e2", "e3"],
                "brackets": [
                    {"i": 0, "j": 1, "c": {"0": "1"}},
                    {"i": 0, "j": 2, "c": {"1": "1"}},
                ],
            }
        )
    )
    bad_factor = tmp_path / "bad_factor.json"
    data = json.loads(corpus_text("sol3.json"))
    data["flat_factor"] = [["0", "0", "1"]]
    bad_factor.write_text(json.dumps(data))

    expected_codes = (
        (("validate", str(CORPUS_DIR / "sol3.json")), 0),
        (("analyze", str(CORPUS_DIR / "sl2.json")), 0),
        (("lattice", "index", str(CORPUS_DIR / "lat_diag23.json")), 0),
        (("validate", str(tmp_path / "absent.json")), 1),
        (("validate", str(truncated)), 1),
        (("validate", str(jacobi_bad)), 2),
        (("lcp", "detect", str(bad_factor)), 2),
        (("lattice", "lemma51", str(CORPUS_DIR / "lat_upper23.json")), 2),
    )
    for argv, want in expected_codes:
        got, _, _ = run(*argv)
        if got != want:
            failures.append(f"{' '.join(argv)} exited {got}, wanted {want}")

    json_commands = (
        ("lcp", "detect", str(CORPUS_DIR / "sol3.json")),
        ("lcp", "max-flat", str(CORPUS_DIR / "sol3.json")),
        ("lcp", "char-bound", str(CORPUS_DIR / "sol3.json")),
        ("lattice", "snf", str(CORPUS_DIR / "lat_upper23.json")),
        ("lattice", "index", str(CORPUS_DIR / "lat_diag23.json")),
        ("lattice", "lemma51", str(CORPUS_DIR / "lat_diag21_split.json")),
    )
    for argv in json_commands:
        first = run(*argv, "--json")
        second = run(*argv, "--json")
        if first != second or first[0] != 0:
            failures.append(f"{' '.join(argv)} --json is not deterministic")

    elapsed = time.perf_counter() - start
    if elapsed >= 2.0:
        failures.append(f"too slow: {elapsed:.3f}s")
    announce(capsys, 9, "command line contract", not failures, f"{elapsed:.3f}s")
    assert not failures, failures
