"""Structure constants, Jacobi checking, series, forms, semidirect sums."""
from __future__ import annotations

import json
import random
import time
from fractions import Fraction

import pytest

from lcplie import liealg
from lcplie.liealg import (
    Covector,
    LieAlgebra,
    bracket_span,
    center,
    check_jacobi,
    derived_algebra,
    derived_series,
    homomorphism_defect,
    is_abelian,
    is_abelian_subspace,
    is_ideal,
    is_nilpotent,
    is_semisimple,
    is_solvable,
    is_unimodular,
    killing_form,
    lower_central_series,
    radical,
    semidirect_sum,
    trace_form,
)
from lcplie.cli import main
from lcplie.connections import InnerProduct, is_closed
from lcplie.lcp import LCPTriple
from lcplie.linalg import (
    Subspace,
    kernel,
    mat_combination,
    mat_mul,
    matrix,
    pairs,
    symmetric_signature,
    transpose,
    vector,
)

from conftest import (
    CORPUS_DIR,
    ROTATION,
    ZERO2,
    make_abelian,
    make_aff,
    make_heis3,
    make_sl2,
    make_sol3,
)
from test_connections import closed_covectors, random_metric_algebras

F = Fraction


def jacobiator(algebra, x, y, z):
    return tuple(
        a + b + c
        for a, b, c in zip(
            algebra.bracket(algebra.bracket(x, y), z),
            algebra.bracket(algebra.bracket(y, z), x),
            algebra.bracket(algebra.bracket(z, x), y),
        )
    )


class TestJacobi:
    def test_corpus_tables_are_lie_algebras(self):
        for make in (make_sol3, make_heis3, make_aff, make_sl2, make_abelian):
            algebra = make()
            n = algebra.dim
            for i in range(n):
                for j in range(n):
                    for k in range(n):
                        defect = jacobiator(
                            algebra,
                            algebra.basis_vector(i),
                            algebra.basis_vector(j),
                            algebra.basis_vector(k),
                        )
                        assert all(c == 0 for c in defect)

    def test_violation_is_located(self):
        # [e1, e2] = e1 with [e1, e3] = e2 breaks the identity at (e1, e2, e3)
        bad = {(0, 1): {0: F(1)}, (0, 2): {1: F(1)}}
        assert check_jacobi(3, bad) == ((0, 1, 2),)

    def test_constructor_rejects_non_jacobi_table(self):
        with pytest.raises(ValueError, match="Jacobi"):
            LieAlgebra.from_brackets(3, {(0, 1): {0: F(1)}, (0, 2): {1: F(1)}})

    def test_sl2_passes(self):
        assert check_jacobi(3, {(0, 1): {1: F(2)}, (0, 2): {2: F(-2)}, (1, 2): {0: F(1)}}) == ()


def dense_jacobi_defects(dim, table):
    """Every triple i < j < k swept over full structure constants c[a][b][m]."""
    c = [[[F(0)] * dim for _ in range(dim)] for _ in range(dim)]
    pos = 0
    for a in range(dim):
        for b in range(a + 1, dim):
            for m in range(dim):
                c[a][b][m] = table[pos][m]
                c[b][a][m] = -table[pos][m]
            pos += 1
    out = []
    for i in range(dim):
        for j in range(i + 1, dim):
            for k in range(j + 1, dim):
                defect = tuple(
                    sum(
                        (
                            c[i][j][m] * c[m][k][t]
                            + c[j][k][m] * c[m][i][t]
                            + c[k][i][m] * c[m][j][t]
                            for m in range(dim)
                        ),
                        F(0),
                    )
                    for t in range(dim)
                )
                if any(defect):
                    out.append(((i, j, k), defect))
    return out


def random_table(rng, dim):
    """Bracket table with a random share of nonzero pairs; mostly not a Lie algebra."""
    density = rng.choice((0.2, 0.4, 0.7))
    table = []
    for _ in range(dim * (dim - 1) // 2):
        if rng.random() < density:
            table.append(
                tuple(
                    F(rng.randint(-2, 2), rng.randint(1, 2)) if rng.random() < 0.4 else F(0)
                    for _ in range(dim)
                )
            )
        else:
            table.append((F(0),) * dim)
    return table


def sparse_table(dim, dense):
    """The canonical nonzero-bracket form of a dense pair-indexed table."""
    return tuple(
        (i, j, tuple((k, c) for k, c in enumerate(row) if c))
        for (i, j), row in zip(pairs(dim), dense)
        if any(row)
    )


def dense_table(algebra):
    return [algebra.basis_bracket(i, j) for i, j in pairs(algebra.dim)]


class TestSparseJacobi:
    def test_matches_dense_sweep_on_seeded_random_tables(self):
        rng = random.Random(1976)
        violated = 0
        for _ in range(60):
            dim = rng.randint(3, 7)
            table = random_table(rng, dim)
            expected = dense_jacobi_defects(dim, table)
            assert list(liealg._jacobi_defects(dim, sparse_table(dim, table))) == expected
            violated += bool(expected)
        assert violated > 30

    def test_valid_tables_have_no_defects(self):
        for make in (make_sol3, make_heis3, make_aff, make_sl2, make_abelian):
            algebra = make()
            assert dense_jacobi_defects(algebra.dim, dense_table(algebra)) == []
            assert list(liealg._jacobi_defects(algebra.dim, algebra.table)) == []

    def test_wide_abelian_algebra_builds_fast(self):
        for n in (60, 400):
            start = time.perf_counter()
            algebra = LieAlgebra.abelian(n)
            assert time.perf_counter() - start < 1.0
            assert is_abelian(algebra)


def seeded_algebras():
    """Seeded build_from_triple structures and semidirect sums, then sl2 and heis3."""
    algebras = [algebra for algebra, _ in random_metric_algebras(seed=1729, count=16)]
    return algebras + [make_sl2(), make_heis3()]


def dense_ad(algebra, i):
    """Matrix of ad_{e_i}: column j is basis_bracket(i, j)."""
    n = algebra.dim
    return transpose(tuple(algebra.basis_bracket(i, j) for j in range(n)))


class TestSparseTable:
    """Every reader of the nonzero-bracket table against a dense formula."""

    def test_basis_bracket_matches_the_table(self):
        for algebra in seeded_algebras():
            n = algebra.dim
            rows = {(i, j): terms for i, j, terms in algebra.table}
            for i in range(n):
                for j in range(n):
                    expected = [F(0)] * n
                    for k, c in rows.get((i, j), ()):
                        expected[k] = c
                    for k, c in rows.get((j, i), ()):
                        expected[k] = -c
                    assert algebra.basis_bracket(i, j) == tuple(expected)

    def test_bracket_is_the_dense_sum(self):
        rng = random.Random(61)
        for algebra in seeded_algebras():
            n = algebra.dim
            for _ in range(4):
                x = [F(rng.randint(-2, 2)) if rng.random() < 0.6 else F(0) for _ in range(n)]
                y = [F(rng.randint(-2, 2), 2) if rng.random() < 0.6 else F(0) for _ in range(n)]
                expected = [F(0)] * n
                for i in range(n):
                    for j in range(n):
                        for k, c in enumerate(algebra.basis_bracket(i, j)):
                            expected[k] += x[i] * y[j] * c
                assert algebra.bracket(x, y) == tuple(expected)

    def test_trace_form_is_the_trace_of_ad(self):
        for algebra in seeded_algebras():
            n = algebra.dim
            expected = tuple(
                sum((algebra.basis_bracket(i, j)[j] for j in range(n)), F(0)) for i in range(n)
            )
            assert trace_form(algebra).coefficients == expected

    def test_killing_form_is_the_trace_of_the_product(self):
        for algebra in seeded_algebras():
            n = algebra.dim
            ads = [dense_ad(algebra, i) for i in range(n)]
            expected = tuple(
                tuple(
                    sum((p[k][k] for k in range(n)), F(0))
                    for p in (mat_mul(ads[i], ads[j]) for j in range(n))
                )
                for i in range(n)
            )
            assert killing_form(algebra) == expected

    def test_center_is_the_common_kernel_of_ad(self):
        for algebra in seeded_algebras():
            n = algebra.dim
            # x is central iff [x, e_j] = -ad_{e_j} x vanishes for every j
            rows = tuple(row for j in range(n) for row in dense_ad(algebra, j))
            assert center(algebra) == Subspace(n, kernel(rows, n))

    def test_is_closed_means_theta_kills_every_bracket(self):
        rng = random.Random(62)
        verdicts = set()
        for algebra in seeded_algebras():
            n = algebra.dim
            for theta in closed_covectors(algebra, count=2, seed=n) + [
                Covector(tuple(F(rng.randint(-1, 1)) for _ in range(n))) for _ in range(3)
            ]:
                expected = all(
                    theta.value(algebra.basis_bracket(i, j)) == 0 for i, j in pairs(n)
                )
                assert is_closed(algebra, theta) == expected
                verdicts.add(expected)
        assert verdicts == {True, False}


def canonical_violations():
    """Tables for dim 3 that break the canonical form, one rule each."""
    return {
        "unsorted entries": ((1, 2, ((1, F(1)),)), (0, 2, ((0, F(-1)),))),
        "repeated pair": ((0, 2, ((0, F(-1)),)), (0, 2, ((0, F(-1)),))),
        "zero coefficient": ((0, 2, ((0, F(0)),)),),
        "i > j": ((2, 0, ((0, F(1)),)),),
        "i == j": ((1, 1, ((0, F(1)),)),),
        "no coefficients": ((0, 2, ()),),
        "k descending": ((0, 2, ((1, F(1)), (0, F(1)))),),
        "k out of range": ((0, 2, ((3, F(1)),)),),
        "j out of range": ((0, 3, ((0, F(1)),)),),
        "negative index": ((-1, 2, ((0, F(1)),)),),
        "int coefficient": ((0, 2, ((0, 1),)),),
        "list of entries": [(0, 2, ((0, F(-1)),))],
        "dense sol3 layout": tuple(dense_table(make_sol3())),
        "dense zero layout": ((F(0),) * 3,) * 3,
    }


class TestCanonicalTable:
    def test_from_brackets_is_accepted_by_the_constructor(self):
        sol3 = make_sol3()
        assert sol3.table == ((0, 1, ((0, F(1)),)), (1, 2, ((2, F(1)),)))
        assert LieAlgebra(3, sol3.labels, sol3.table) == sol3
        assert LieAlgebra(3, ("x", "y", "z"), ()).table == ()

    @pytest.mark.parametrize("name", sorted(canonical_violations()))
    def test_non_canonical_table_is_rejected(self, name):
        with pytest.raises(ValueError, match="canonical"):
            LieAlgebra(3, ("x", "y", "z"), canonical_violations()[name])

    @pytest.mark.parametrize(
        "table",
        [((False, True, ((1, F(1)),)),), ((0, 1, ((True, F(1)),)),)],
        ids=["bool pair", "bool coefficient index"],
    )
    def test_bool_indices_are_rejected(self, table):
        with pytest.raises(ValueError, match="canonical"):
            LieAlgebra(2, ("x", "y"), table)


class TestBrackets:
    def test_bracket_normalization_is_antisymmetric(self):
        flipped = LieAlgebra.from_brackets(3, {(1, 0): {0: F(-1)}, (1, 2): {2: F(1)}})
        assert flipped.table == make_sol3().table

    def test_rejects_diagonal_pairs_and_duplicates(self):
        with pytest.raises(ValueError):
            LieAlgebra.from_brackets(2, {(1, 1): {0: F(1)}})
        with pytest.raises(ValueError):
            LieAlgebra.from_brackets(2, {(0, 1): {1: F(1)}, (1, 0): {1: F(1)}})

    @pytest.mark.parametrize(
        "brackets",
        [
            {(0, 1): {1.7: 1}},
            {(0, 1): {" 1": 1}},
            {(0, 1): {"1_0": 1}},
            {(0, 1): {True: 1}},
            {(False, True): {1: 1}},
            {(0, 1.0): {1: 1}},
            {("0", 1): {1: 1}},
        ],
        ids=["float k", "padded string k", "underscore string k", "bool k", "bool pair",
             "float j", "string i"],
    )
    def test_indices_must_be_ints(self, brackets):
        with pytest.raises(TypeError, match="must be"):
            LieAlgebra.from_brackets(2, brackets)
        with pytest.raises(TypeError, match="must be"):
            check_jacobi(2, brackets)

    def test_bracket_is_bilinear(self, sol3):
        a_plus = sol3.bracket(vector([0, 1, 0]), vector([1, 0, 1]))
        # [a, u + b] = -u + b
        assert a_plus == (F(-1), F(0), F(1))

    def test_bracket_rejects_wrong_length_vectors(self, sol3):
        e1 = vector([1, 0, 0])
        for x in (vector([0, 1]), vector([0, 1, 0, 5])):
            with pytest.raises(ValueError, match="vector length"):
                sol3.bracket(x, e1)
            with pytest.raises(ValueError, match="vector length"):
                sol3.bracket(e1, x)

    def test_basis_bracket_rejects_out_of_range_indices(self, sol3):
        for i, j in ((7, 8), (0, 3), (-1, 0)):
            with pytest.raises(ValueError, match="need 0 <= i, j < n"):
                sol3.basis_bracket(i, j)
        assert sol3.basis_bracket(2, 1) == (F(0), F(0), F(-1))

    def test_basis_vector_rejects_out_of_range_indices(self, sol3):
        for i in (-1, 3, 7):
            with pytest.raises(ValueError, match=f"need 0 <= i < n, got {i} with n=3"):
                sol3.basis_vector(i)
        assert sol3.basis_vector(2) == (F(0), F(0), F(1))

    def test_ad_matrix_columns(self, sol3):
        assert sol3.ad(vector([0, 1, 0])) == matrix([[-1, 0, 0], [0, 0, 0], [0, 0, 1]])

    def test_label_validation(self):
        with pytest.raises(ValueError):
            LieAlgebra.from_brackets(2, {}, labels=("x", "x"))
        with pytest.raises(ValueError):
            LieAlgebra.from_brackets(2, {}, labels=("x",))


class TestSeries:
    def test_derived_series_sol3(self, sol3):
        series = derived_series(sol3)
        assert series[0] == Subspace.from_vectors(matrix([[1, 0, 0], [0, 0, 1]]), 3)
        assert series[-1].is_zero()
        assert is_solvable(sol3)
        assert not is_nilpotent(sol3)

    def test_lower_central_series_heis3(self, heis3):
        series = lower_central_series(heis3)
        assert series[0] == Subspace.from_vectors(matrix([[0, 0, 1]]), 3)
        assert series[-1].is_zero()
        assert is_nilpotent(heis3)

    def test_sl2_is_perfect(self, sl2):
        assert derived_algebra(sl2).is_full()
        assert derived_series(sl2) == (Subspace.full(3),)
        assert not is_solvable(sl2)

    def test_abelian_flags(self):
        r3 = make_abelian(3)
        assert is_abelian(r3)
        assert is_nilpotent(r3) and is_solvable(r3)
        assert derived_algebra(r3).is_zero()

    def test_bracket_span_drops_zero_brackets(self, monkeypatch, heis3):
        seen = []
        from_vectors = Subspace.from_vectors.__func__

        def spy(cls, vectors, ambient_dim):
            seen.extend(vectors)
            return from_vectors(cls, vectors, ambient_dim)

        monkeypatch.setattr(Subspace, "from_vectors", classmethod(spy))
        full = heis3.full_space()
        assert bracket_span(heis3, full, full) == Subspace(3, ((F(0), F(0), F(1)),))
        assert seen and all(any(v) for v in seen)

    def test_bracket_span_of_subspaces(self, sol3):
        span_a = Subspace.from_vectors(matrix([[0, 1, 0]]), 3)
        full = Subspace.full(3)
        assert bracket_span(sol3, span_a, full) == Subspace.from_vectors(
            matrix([[1, 0, 0], [0, 0, 1]]), 3
        )


def heis_plus_diag():
    """heis3 (x, y, z) plus the plane acted on by t with weights 1 and -2."""
    return LieAlgebra.from_brackets(
        6, {(0, 1): {2: F(1)}, (3, 5): {3: F(-1)}, (4, 5): {4: F(2)}}
    )


def sl2_on_plane():
    """sl2 acting on R^2 by its standard representation; the radical is R^2."""
    h, e, f = matrix([[1, 0], [0, -1]]), matrix([[0, 1], [0, 0]]), matrix([[0, 0], [1, 0]])
    return semidirect_sum(2, make_sl2(), (h, e, f))


class DenseBrackets:
    """Series and radical oracles from the dense brackets basis_bracket(i, j)."""

    def __init__(self, algebra):
        n = self.n = algebra.dim
        self.c = [[algebra.basis_bracket(i, j) for j in range(n)] for i in range(n)]
        self.ads = [dense_ad(algebra, i) for i in range(n)]
        self.full = Subspace.full(n)
        self.derived = self.span(self.full, self.full)

    def bracket(self, x, y):
        out = [F(0)] * self.n
        for i, a in enumerate(x):
            for j, b in enumerate(y):
                if a and b:
                    for k, c in enumerate(self.c[i][j]):
                        out[k] += a * b * c
        return tuple(out)

    def span(self, left, right):
        return Subspace.from_vectors(
            [self.bracket(x, y) for x in left.basis for y in right.basis], self.n
        )

    def series(self, step):
        chain = [self.derived]
        while (nxt := step(chain[-1])) != chain[-1]:
            chain.append(nxt)
        return tuple(chain)

    def radical(self):
        """The Killing-orthogonal of the derived algebra."""
        if self.derived.is_zero():
            return self.full
        n = self.n
        killing = tuple(
            tuple(sum((mat_mul(self.ads[i], self.ads[j])[k][k] for k in range(n)), F(0))
                  for j in range(n))
            for i in range(n)
        )
        return Subspace(n, kernel(mat_mul(self.derived.basis, killing), n))


class TestDerivedAlgebraFromTheTable:
    def test_series_and_radical_match_the_dense_oracle(self):
        radicals = set()
        for algebra in seeded_algebras() + [heis_plus_diag(), sl2_on_plane()]:
            dense = DenseBrackets(algebra)
            assert derived_algebra(algebra) == dense.derived
            assert derived_series(algebra) == dense.series(lambda s: dense.span(s, s))
            assert lower_central_series(algebra) == dense.series(
                lambda s: dense.span(dense.full, s)
            )
            assert radical(algebra) == dense.radical()
            radicals.add((radical(algebra).dim, algebra.dim))
        assert (0, 3) in radicals and (2, 5) in radicals

    def test_heis_plus_diag(self):
        algebra = heis_plus_diag()
        assert derived_algebra(algebra) == Subspace.from_vectors(
            matrix([[0, 0, 1, 0, 0, 0], [0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 1, 0]]), 6
        )
        assert is_solvable(algebra) and not is_nilpotent(algebra)

    def test_wide_abelian_analyze_makes_no_bracket_calls(self, monkeypatch, tmp_path, capsys):
        n = 300
        doc = tmp_path / "abelian300.json"
        doc.write_text(json.dumps(
            {"dim": n, "basis": [f"e{i + 1}" for i in range(n)], "brackets": []}
        ))
        calls = []
        bracket = LieAlgebra.bracket

        def counted(self, x, y):
            calls.append(1)
            return bracket(self, x, y)

        monkeypatch.setattr(LieAlgebra, "bracket", counted)
        assert main(["analyze", str(doc)]) == 0
        out = capsys.readouterr().out
        assert f"derived algebra: 0 (dim 0)\nradical: span{{e1, " in out
        assert f"killing signature: (0, 0, {n})" in out
        assert len(calls) == 0


def wide_family(rng, k, m):
    """heis_{2k+1} plus R^m acted on by t with random weights in +-{1, 2, 3},
    under a random basis order; k = 0 or m = 0 leaves that summand out."""
    brackets = {(i, k + i): {2 * k: F(1)} for i in range(k)}  # [x_i, y_i] = z
    q = 2 * k + 1 if k else 0
    for i in range(m):  # [v_i, t] = -w_i v_i
        brackets[(q + i, q + m)] = {q + i: F(-rng.choice((1, 2, 3)) * rng.choice((1, -1)))}
    n = q + (m + 1 if m else 0)
    order = list(range(n))
    rng.shuffle(order)
    shuffled = {}
    for (i, j), coeffs in brackets.items():
        shuffled[(order[i], order[j])] = {order[t]: c for t, c in coeffs.items()}
    return LieAlgebra.from_brackets(n, shuffled)


def wide_families():
    rng = random.Random(2718)
    return [wide_family(rng, k, m) for k, m in ((3, 0), (0, 6), (1, 3), (2, 2))]


def random_subspaces(rng, n, count):
    """Spans of sparse random vectors and of random basis subsets."""
    out = []
    for _ in range(count):
        d = rng.randint(1, n)
        if rng.random() < 0.5:
            rows = [[F(rng.choice((-1, 0, 0, 1, 2))) for _ in range(n)] for _ in range(d)]
        else:
            picked = rng.sample(range(n), d)
            rows = [[F(int(c == p)) for c in range(n)] for p in picked]
        out.append(Subspace.from_vectors(rows, n))
    return out


class TestTableDrivenStructure:
    """bracket_span, is_ideal, centralizers, both series and the radical from
    the table, against the dense basis_bracket oracle."""

    def test_matches_the_dense_oracle_on_random_subspaces(self):
        rng = random.Random(314)
        ideal_verdicts = set()
        closed_verdicts = set()
        wide = wide_families()
        for algebra in seeded_algebras() + [heis_plus_diag(), sl2_on_plane()] + wide:
            n = algebra.dim
            dense = DenseBrackets(algebra)
            if algebra in wide:  # the other algebras are checked in TestDerivedAlgebraFromTheTable
                assert derived_series(algebra) == dense.series(lambda s: dense.span(s, s))
                assert lower_central_series(algebra) == dense.series(
                    lambda s: dense.span(dense.full, s)
                )
                assert radical(algebra) == dense.radical()
            spaces = random_subspaces(rng, n, 4) + [Subspace.zero(n), dense.full, dense.derived]
            for left in spaces:
                for right in spaces[:3]:
                    assert bracket_span(algebra, left, right) == dense.span(left, right)
                ideal = all(
                    left.contains(dense.bracket(e, row)) for e in dense.full.basis for row in left.basis
                )
                assert is_ideal(algebra, left) == ideal
                ideal_verdicts.add(ideal)
                # x centralizes left iff sum over i of x_i [e_i, v] = 0 for each basis row v
                rows = tuple(
                    row
                    for v in left.basis
                    for row in transpose(tuple(dense.bracket(e, v) for e in dense.full.basis))
                )
                assert liealg._centralizer(algebra, left.basis) == Subspace(n, kernel(rows, n))
                closed_verdicts.add(left.contains_subspace(dense.span(left, left)))
        assert ideal_verdicts == {True, False}
        assert closed_verdicts == {True, False}

    def test_analyze_heis_plus_diag_makes_no_bracket_calls(self, monkeypatch, tmp_path, capsys):
        algebra = heis_plus_diag()
        doc = tmp_path / "heis_diag.json"
        doc.write_text(json.dumps({
            "dim": algebra.dim,
            "basis": list(algebra.labels),
            "brackets": [
                {"i": i, "j": j, "c": {str(k): str(c) for k, c in terms}}
                for i, j, terms in algebra.table
            ],
        }))
        calls = []
        bracket = LieAlgebra.bracket

        def counted(self, x, y):
            calls.append(1)
            return bracket(self, x, y)

        monkeypatch.setattr(LieAlgebra, "bracket", counted)
        assert main(["analyze", str(doc)]) == 0
        out = capsys.readouterr().out
        assert "solvable: yes\nnilpotent: no\n" in out
        assert len(calls) == 0

    def test_analyze_builds_each_invariant_once(self, monkeypatch, capsys):
        builds = {"_killing_form": 0, "_derived_algebra": 0}
        for name in builds:
            prop = LieAlgebra.__dict__[name]

            def counted(algebra, name=name, build=prop.func):
                builds[name] += 1
                return build(algebra)

            monkeypatch.setattr(prop, "func", counted)
        assert main(["analyze", str(CORPUS_DIR / "sl2.json")]) == 0
        assert "killing signature: (2, 1, 0)" in capsys.readouterr().out
        assert builds == {"_killing_form": 1, "_derived_algebra": 1}

    def test_radical_self_check_rejects_a_non_ideal(self, monkeypatch, sol3):
        # span{a} is a subalgebra of sol3 but [u, a] = u leaves it
        monkeypatch.setattr(liealg, "kernel", lambda m, ncols=None: ((F(0), F(1), F(0)),))
        with pytest.raises(RuntimeError, match="radical self-check failed"):
            radical(sol3)

    def test_radical_self_check_rejects_a_non_solvable_ideal(self, monkeypatch, sl2):
        # all of sl2 is an ideal, but [sl2, sl2] = sl2, so its derived chain never reaches 0
        monkeypatch.setattr(liealg, "kernel", lambda m, ncols=None: Subspace.full(3).basis)
        with pytest.raises(RuntimeError, match="radical self-check failed"):
            radical(sl2)

    @pytest.mark.parametrize("compute", [derived_series, lower_central_series, radical])
    def test_each_fixed_point_runs_one_descending_chain(self, monkeypatch, compute):
        calls = []
        chain = liealg._descending_chain

        def counted(start, step):
            calls.append(start)
            return chain(start, step)

        monkeypatch.setattr(liealg, "_descending_chain", counted)
        for algebra in (make_sol3(), make_heis3(), make_sl2(), heis_plus_diag()):
            calls.clear()
            compute(algebra)
            assert len(calls) == 1, algebra.labels


class TestForms:
    def test_killing_form_sl2(self, sl2):
        assert killing_form(sl2) == matrix([[8, 0, 0], [0, 0, 4], [0, 4, 0]])
        assert symmetric_signature(killing_form(sl2)) == (2, 1, 0)

    def test_killing_form_sol3(self, sol3):
        assert killing_form(sol3) == matrix([[0, 0, 0], [0, 2, 0], [0, 0, 0]])

    def test_trace_form_aff(self, aff):
        assert trace_form(aff).coefficients == (F(1), F(0))
        assert not is_unimodular(aff)

    def test_unimodular_iff_trace_form_vanishes(self):
        for make in (make_sol3, make_heis3, make_aff, make_sl2, make_abelian):
            algebra = make()
            assert is_unimodular(algebra) == trace_form(algebra).is_zero()

    def test_covector_evaluation(self):
        theta = Covector((F(0), F(-1), F(0)))
        assert theta.value(vector([2, 3, 5])) == F(-3)
        assert theta.dim == 3
        assert not theta.is_zero()


class TestIdealsAndRadical:
    def test_center_heis3(self, heis3):
        assert center(heis3) == Subspace.from_vectors(matrix([[0, 0, 1]]), 3)

    def test_center_sol3_trivial(self, sol3):
        assert center(sol3).is_zero()

    def test_ideals(self, sol3):
        assert is_ideal(sol3, Subspace.from_vectors(matrix([[1, 0, 0]]), 3))
        assert not is_ideal(sol3, Subspace.from_vectors(matrix([[0, 1, 0]]), 3))

    def test_abelian_subspaces(self, sol3):
        assert is_abelian_subspace(sol3, Subspace.from_vectors(matrix([[1, 0, 0], [0, 0, 1]]), 3))
        assert not is_abelian_subspace(
            sol3, Subspace.from_vectors(matrix([[1, 0, 0], [0, 1, 0]]), 3)
        )

    def test_radical_of_solvable_algebra_is_everything(self, sol3):
        assert radical(sol3).is_full()

    def test_radical_of_sl2_is_zero(self, sl2):
        assert radical(sl2).is_zero()
        assert is_semisimple(sl2)

    def test_radical_of_abelian_algebra_skips_the_killing_form(self, monkeypatch):
        def forbidden(algebra):
            raise AssertionError("killing_form called")

        monkeypatch.setattr(liealg, "killing_form", forbidden)
        assert radical(LieAlgebra.abelian(6)).is_full()

    def test_radical_of_sl2_plus_line(self):
        algebra = LieAlgebra.from_brackets(
            4, {(0, 1): {1: F(2)}, (0, 2): {2: F(-2)}, (1, 2): {0: F(1)}}
        )
        assert radical(algebra) == Subspace.from_vectors(matrix([[0, 0, 0, 1]]), 4)
        assert not is_semisimple(algebra)
        assert not is_solvable(algebra)


class TestSemidirect:
    def test_line_acting_on_line_recovers_sol3(self, aff):
        alpha = (matrix([[-1]]), matrix([[0]]))
        algebra = semidirect_sum(1, aff, alpha)
        assert algebra.table == make_sol3().table
        assert algebra.labels == ("u", "a", "b")

    def test_zero_action_is_a_direct_sum(self):
        line = make_abelian(1)
        algebra = semidirect_sum(2, line, (matrix([[0, 0], [0, 0]]),))
        assert is_abelian(algebra)
        assert algebra.dim == 3
        assert algebra.labels[:2] == ("u1", "u2")

    def test_action_convention_is_by_columns(self):
        # alpha(x) column c holds the image of the c-th flat generator
        line = LieAlgebra.from_brackets(1, {}, labels=("a",))
        algebra = semidirect_sum(2, line, (matrix([[1, -1], [1, 1]]),))
        # [u1, a] = -alpha(a) u1 = -(u1 + u2)
        assert algebra.bracket(vector([1, 0, 0]), vector([0, 0, 1])) == (
            F(-1),
            F(-1),
            F(0),
        )

    def test_default_flat_labels_are_primed_past_the_acting_labels(self):
        line = LieAlgebra.from_brackets(1, {}, labels=("u",))
        assert semidirect_sum(1, line, (matrix([[0]]),)).labels == ("u'", "u")
        plane = LieAlgebra.from_brackets(2, {}, labels=("u2", "u2'"))
        zero = matrix([[0, 0], [0, 0]])
        algebra = semidirect_sum(2, plane, (zero, zero))
        assert algebra.labels == ("u1", "u2''", "u2", "u2'")
        named = semidirect_sum(1, make_aff(), (matrix([[-1]]), matrix([[0]])), u_labels=("w",))
        assert named.labels == ("w", "a", "b")

    def test_rejects_non_homomorphism(self):
        plane = make_abelian(2)
        alpha = (matrix([[0, 1], [0, 0]]), matrix([[0, 0], [1, 0]]))
        with pytest.raises(ValueError, match="homomorphism"):
            semidirect_sum(2, plane, alpha)

    def test_unimodularity_by_construction(self, aff):
        # compensating weight -tr(ad_a)/q on the flat part makes the sum unimodular
        rng = random.Random(9)
        for q in (1, 2, 3):
            weight = F(-1, q)
            scale = F(rng.randint(1, 4))
            alpha_a = [[weight * scale if r == c else F(0) for c in range(q)] for r in range(q)]
            algebra = semidirect_sum(
                q,
                LieAlgebra.from_brackets(2, {(0, 1): {1: scale}}, labels=("a", "b")),
                (matrix(alpha_a), matrix([[0] * q] * q)),
            )
            assert is_unimodular(algebra)


def dense_homomorphism_defect(h, mats, q):
    """First pair (i, j) with [M_i, M_j] != M_[e_i, e_j], from full matrix
    products and the dense bracket coordinates."""
    for i, j in pairs(h.dim):
        lhs = mat_combination(h.basis_bracket(i, j), mats, q)
        ab, ba = mat_mul(mats[i], mats[j]), mat_mul(mats[j], mats[i])
        if lhs != tuple(tuple(x - y for x, y in zip(r, s)) for r, s in zip(ab, ba)):
            return (i, j)
    return None


def seeded_representations(seed, count):
    """(h, mats, q) for homomorphisms h -> gl(q): the adjoint representation of
    seeded random algebras and of the small corpus, and sl2 on the plane."""
    algebras = [a for a, _ in random_metric_algebras(seed, count)]
    algebras += [make_sol3(), make_heis3(), make_sl2(), make_aff()]
    reps = [(a, tuple(a.ad(a.basis_vector(i)) for i in range(a.dim)), a.dim) for a in algebras]
    standard = (matrix([[1, 0], [0, -1]]), matrix([[0, 1], [0, 0]]), matrix([[0, 0], [1, 0]]))
    return reps + [(make_sl2(), standard, 2)]


class TestHomomorphismDefect:
    def test_matches_the_dense_oracle_on_homomorphisms_and_perturbations(self):
        rng = random.Random(13)
        perturbed_failures = 0
        for h, mats, q in seeded_representations(seed=13, count=16):
            assert homomorphism_defect(h, mats, q) is None
            assert dense_homomorphism_defect(h, mats, q) is None
            for _ in range(3):
                i, r, c = rng.randrange(h.dim), rng.randrange(q), rng.randrange(q)
                bumped = [list(map(list, m)) for m in mats]
                bumped[i][r][c] += F(rng.choice([-2, -1, 1, 3]), rng.randint(1, 3))
                copy = tuple(tuple(map(tuple, m)) for m in bumped)
                expected = dense_homomorphism_defect(h, copy, q)
                assert homomorphism_defect(h, copy, q) == expected
                perturbed_failures += expected is not None
        assert perturbed_failures > 0

    def test_triple_and_semidirect_sum_multiply_no_dense_matrices(
        self, monkeypatch, rot4_structure
    ):
        def forbidden(a, b):
            raise AssertionError("mat_mul called")

        monkeypatch.setattr(liealg, "mat_mul", forbidden)
        aff = make_aff()
        triple = LCPTriple(aff, InnerProduct.identity(2), 2, (ROTATION, ZERO2))
        # the lee form is -1/2 on a: alpha(a) = ROTATION - I/2, alpha(b) = 0
        half = F(1, 2)
        alpha_a = tuple(
            tuple(x - half * (r == c) for c, x in enumerate(row)) for r, row in enumerate(ROTATION)
        )
        assert semidirect_sum(2, aff, (alpha_a, ZERO2)) == rot4_structure.algebra
        assert triple.beta == (ROTATION, ZERO2)


class TestCovector:
    def test_entries_are_exact(self):
        theta = Covector((1, F(1, 2)))
        assert theta.coefficients == (F(1), F(1, 2))
        assert all(type(x) is F for x in theta.coefficients)
        exact = (F(1), F(0))
        assert Covector(exact).coefficients is exact
        for entries in ((0.5, 0), (F(0), 0.0), (True, F(0))):
            with pytest.raises(TypeError):
                Covector(entries)
