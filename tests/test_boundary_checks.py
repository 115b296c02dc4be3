"""Each input is checked once, where it enters: by the document parser or a
public constructor. What the engine computes itself is built through private
constructors that do not check it again: `Subspace._canonical` for echelon
rows from `_echelon`, `_null_space` and `restrict`, and `LieAlgebra._canonical`
for bracket tables from `from_brackets`, `semidirect_sum`, parsed documents and
`triple_from_lcp`.

The oracle tests wrap both private constructors so that each call also runs
the public check it skips, over the CLI corpus, the scaling family and
seeded random inputs. The guard tests count the public checks on every
command line of `cli_bytes.json`; a public constructor called inside the
engine would run them again. They also count the checks of a lattice
document's matrix in the parser: one, with no per-entry location work.
"""
from __future__ import annotations

import contextlib
import io
import json
import random
from collections import Counter
from fractions import Fraction

import pytest

from lcplie import documents, lattice, liealg
from lcplie.cli import main
from lcplie.lattice import IntegerEndomorphism
from lcplie.lcp import build_from_triple, triple_from_lcp
from lcplie.liealg import LieAlgebra
from lcplie.linalg import Subspace, pairs

from cases import (
    RECORD,
    commands,
    invoke,
    random_rotation_triple,
    random_semidirect_sum,
    random_table,
    rational_rows,
    scaling_triple,
)
from conftest import CORPUS_DIR

F = Fraction


@pytest.fixture(scope="module")
def pinned() -> dict:
    return json.loads(RECORD.read_text(encoding="utf-8"))


@pytest.fixture
def oracle(monkeypatch):
    """Wrap the private constructors: every call also runs the public check it
    skips, and a disagreement is recorded in `mismatches`. `calls` counts the
    calls, so that a test can show the wrappers ran."""
    calls: Counter = Counter()
    mismatches: list = []
    canonical_subspace = Subspace._canonical.__func__
    canonical_algebra = LieAlgebra._canonical.__func__

    def checked_subspace(cls, ambient_dim, echelon):
        out = canonical_subspace(cls, ambient_dim, echelon)
        calls["Subspace"] += 1
        try:
            public = Subspace(ambient_dim, out.rows)
        except ValueError as exc:
            mismatches.append(("Subspace", ambient_dim, out.rows, str(exc)))
        else:
            if public.pivots != out.pivots:
                mismatches.append(("Subspace pivots", out.rows, out.pivots, public.pivots))
        return out

    def checked_algebra(cls, dim, labels, table):
        calls["LieAlgebra"] += 1
        if not (liealg._is_index(dim) and dim >= 1 and liealg._is_canonical(dim, table)):
            mismatches.append(("LieAlgebra", dim, table))
        return canonical_algebra(cls, dim, labels, table)

    monkeypatch.setattr(Subspace, "_canonical", classmethod(checked_subspace))
    monkeypatch.setattr(LieAlgebra, "_canonical", classmethod(checked_algebra))
    return calls, mismatches


def run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


class TestOracle:
    def test_the_wrappers_catch_a_non_canonical_construction(self, oracle):
        calls, mismatches = oracle
        Subspace._canonical(3, ([[2, 0, 0]], (0,)))  # not primitive
        Subspace._canonical(3, ([[1, 0, 0], [0, 1, 0]], (0, 2)))  # wrong pivot
        with pytest.raises(ValueError, match="Jacobi"):  # the Jacobi check still runs
            LieAlgebra._canonical(3, ("a", "b", "c"), ((0, 1, ((0, F(1)),)), (0, 2, ((1, F(1)),))))
        LieAlgebra._canonical(2, ("a", "b"), ((1, 0, ((0, F(1)),)),))  # i > j
        assert calls == {"Subspace": 2, "LieAlgebra": 2}
        assert [m[0] for m in mismatches] == ["Subspace", "Subspace pivots", "LieAlgebra"]

    def test_every_corpus_command(self, oracle, pinned):
        calls, mismatches = oracle
        for argv in commands():
            assert invoke(argv) == pinned[" ".join(argv)]
        assert mismatches == []
        assert calls["Subspace"] > 200 and calls["LieAlgebra"] > 50

    def test_scaling_family(self, oracle, tmp_path):
        calls, mismatches = oracle
        for n in range(4, 13):
            triple = tmp_path / f"triple{n}.json"
            triple.write_text(json.dumps(scaling_triple(n, random.Random(n))), encoding="utf-8")
            code, emitted = run(["lcp", "from-triple", str(triple)])
            assert code == 0
            structure = tmp_path / f"structure{n}.json"
            structure.write_text(emitted, encoding="utf-8")
            for action in ("detect", "max-flat", "char-bound"):
                code, out = run(["lcp", action, str(structure)])
                assert code == 0, (n, action)
            assert out.startswith("bound = ")
        assert mismatches == []
        assert calls["Subspace"] > 100 and calls["LieAlgebra"] >= 4 * 9

    def test_seeded_rational_inputs(self, oracle):
        calls, mismatches = oracle
        rng = random.Random(2309)
        for _ in range(1000):
            n = rng.randint(0, 6)
            a = Subspace.from_vectors(rational_rows(rng, rng.randint(0, n + 1), n), n)
            b = Subspace.kernel_of(rational_rows(rng, rng.randint(0, n), n), n)
            cut = a.restrict(rational_rows(rng, a.dim, rng.randint(1, 3), dependent=False))
            meet = a.intersect(b)
            gram = rational_rows(rng, n, n, dependent=False)
            gram = [[gram[i][j] + gram[j][i] for j in range(n)] for i in range(n)]
            complement = a.orthogonal_complement(tuple(map(tuple, gram)))
            total = a.add(b)
            assert a.contains_subspace(cut) and a.contains_subspace(meet)
            assert b.contains_subspace(meet)
            assert total.contains_subspace(a) and total.contains_subspace(b)
            assert complement.ambient_dim == n
        assert mismatches == []
        assert calls["Subspace"] > 4000

    def test_bracket_tables(self, oracle):
        calls, mismatches = oracle
        rng = random.Random(2310)
        for _ in range(100):
            dim = rng.randint(2, 6)
            brackets = {}
            for (i, j), row in zip(pairs(dim), random_table(rng, dim)):
                coeffs = {k: str(c) if rng.random() < 0.3 else c for k, c in enumerate(row)}
                if rng.random() < 0.5:  # the flipped pair, negated
                    i, j = j, i
                    coeffs = {k: -F(c) for k, c in coeffs.items()}
                if any(row) or rng.random() < 0.3:  # some all-zero pairs are listed
                    brackets[(i, j)] = coeffs
            with contextlib.suppress(ValueError):  # most random tables break Jacobi
                LieAlgebra.from_brackets(dim, brackets)
        for _ in range(60):
            random_semidirect_sum(rng)
        for _ in range(30):
            triple = random_rotation_triple(rng)
            assert triple_from_lcp(build_from_triple(triple)) == triple
        assert mismatches == []
        assert calls["LieAlgebra"] >= 100 + 60 + 2 * 30


class TestGuard:
    """The public checks run only on what comes from outside."""

    @pytest.fixture
    def counts(self, monkeypatch) -> Counter:
        counts: Counter = Counter()

        def counting(name, f):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return f(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(liealg, "_is_canonical", counting("table", liealg._is_canonical))
        monkeypatch.setattr(Subspace, "__post_init__", counting("subspace", Subspace.__post_init__))
        int_matrix = counting("int matrix", lattice._check_int_matrix)
        monkeypatch.setattr(lattice, "_check_int_matrix", int_matrix)
        monkeypatch.setattr(documents, "_strict_int", counting("int entry", documents._strict_int))
        return counts

    def test_the_counters_see_the_public_checks(self, counts):
        Subspace(2, ((1, 0),))
        LieAlgebra(1, ("a",), ())
        IntegerEndomorphism(((1,),))
        assert counts == {"subspace": 1, "table": 1, "int matrix": 1}

    @pytest.mark.parametrize("argv", commands(), ids=" ".join)
    def test_no_command_checks_what_the_engine_built(self, counts, pinned, argv):
        assert invoke(argv) == pinned[" ".join(argv)]
        assert counts["table"] == 0
        assert counts["subspace"] == 0

    def test_a_lattice_matrix_is_read_in_one_check(self, counts):
        names = sorted({argv[2] for argv in commands() if argv[0] == "lattice"})
        assert names
        for name in names:
            counts.clear()
            documents.parse_lattice_document((CORPUS_DIR / name).read_text(encoding="utf-8"))
            assert counts == {"int matrix": 1}, name

    @pytest.mark.parametrize("argv", [a for a in commands() if a[0] == "lattice"], ids=" ".join)
    def test_a_lattice_command_checks_its_matrix_once(self, counts, pinned, argv):
        """The parser's `IntegerEndomorphism` is the one check: the Smith form,
        the index and the splitting check do not read the matrix again."""
        assert invoke(argv) == pinned[" ".join(argv)]
        assert counts["int matrix"] == 1

    def test_a_hand_built_document_gets_the_public_table_check(self):
        fields = dict(
            dim=2, basis=("a", "b"), brackets=((1, 0, ((0, F(1)),)),),  # i > j
            metric=None, theta=None, flat_factor=None, triple=None,
        )
        bad = documents.AlgebraDocument(**fields)
        with pytest.raises(ValueError, match="not in the canonical sparse form"):
            documents.document_algebra(bad)
        triple = documents.TripleBlock(h=bad, q=1, beta=(((F(0),),), ((F(0),),)))
        with pytest.raises(ValueError, match="not in the canonical sparse form"):
            documents.document_triple(documents.AlgebraDocument(**{**fields, "triple": triple}))
        with pytest.raises(ValueError, match="dimension must be positive"):
            documents.document_algebra(documents.AlgebraDocument(**{**fields, "dim": 2.0, "brackets": ()}))
