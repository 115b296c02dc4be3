"""Each input is checked once, where it enters: by the document parser or a
public constructor. What the engine computes itself is built through private
constructors that do not check it again: `Subspace._canonical` for echelon
rows from `_echelon`, `_null_space` and `restrict`, `LieAlgebra._canonical`
for bracket tables from `from_brackets`, `semidirect_sum`, parsed documents and
`triple_from_lcp`, and `connections._canonical_operators` for the operators of
the Koszul build and of the curvature.

The oracle tests wrap the private constructors so that each call also runs
the public check it skips, over the CLI corpus, the scaling family and
seeded random inputs. The guard tests count the public checks on every
command line of `cli_bytes.json`; a public constructor called inside the
engine would run them again. They also count the checks of a
lattice document's matrix in the parser (one, with no per-entry location
work) and the reads of a triple's action (one). Each public form check
rebuilds its form with the routine that makes it; the form tests compare it
on seeded edited forms with the form written out in `reference`.
"""
from __future__ import annotations

import contextlib
import io
import json
import random
from collections import Counter
from fractions import Fraction

import pytest

from lcplie import connections, documents, lattice, lcp, liealg
from lcplie.cli import main
from lcplie.connections import Connection, InnerProduct
from lcplie.lattice import IntegerEndomorphism
from lcplie.lcp import LCPTriple, build_from_triple, triple_from_lcp
from lcplie.liealg import LieAlgebra
from lcplie.linalg import Subspace, _lift, pairs

import reference
from cases import (
    ALGEBRA_ACTIONS,
    OPERATOR_EDITS,
    RECORD,
    ROW_EDITS,
    TABLE_EDITS,
    commands,
    fuzzed_operators,
    fuzzed_rows,
    fuzzed_table,
    invoke,
    random_rotation_triple,
    random_semidirect_sum,
    random_table,
    rational_rows,
    scaling_triple,
)
from conftest import (
    CORPUS_DIR,
    corpus_json,
    corpus_text,
    make_rot4_structure,
    make_rot5_structure,
    make_sol3_structure,
)

F = Fraction


@pytest.fixture(scope="module")
def pinned() -> dict:
    return json.loads(RECORD.read_text(encoding="utf-8"))


@pytest.fixture
def oracle(monkeypatch):
    """Wrap the private constructors: every call also runs the public check it
    skips, and a disagreement is recorded in `mismatches`. Every metric and
    triple, from its constructor or `InnerProduct._orthogonal_sum`, is checked
    to keep the integer lift that `_lift` gives of its Fraction matrices. `calls`
    counts the calls, so that a test can show the wrappers ran."""
    calls: Counter = Counter()
    mismatches: list = []
    canonical_subspace = Subspace._canonical.__func__
    canonical_algebra = LieAlgebra._canonical.__func__
    canonical_operators = connections._canonical_operators

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

    def checked_operators(cls, dim, lifted):
        calls[cls.__name__] += 1
        try:
            cls(dim, *lifted)
        except ValueError as exc:
            mismatches.append((cls.__name__, dim, lifted, str(exc)))
        return canonical_operators(cls, dim, lifted)

    def checked_lift(metric):
        # the lifted gram that every integer reader shares is the one `_lift` gives
        d, (rows,) = _lift((metric.gram,))
        if metric.lifted != (d, rows):
            mismatches.append(("InnerProduct.lifted", metric.gram, metric.lifted))

    def checked_metric(self):
        post_init(self)
        calls["InnerProduct"] += 1
        checked_lift(self)

    def checked_sum(cls, q, metric):
        out = orthogonal_sum(cls, q, metric)
        calls["InnerProduct._orthogonal_sum"] += 1
        checked_lift(out)
        if out.lifted_inverse != InnerProduct(out.gram).lifted_inverse:
            mismatches.append(("InnerProduct.lifted_inverse", out.gram, out.lifted_inverse))
        return out

    def checked_triple(self):
        triple_post_init(self)
        calls["LCPTriple"] += 1
        if self.lifted != _lift(self.beta):
            mismatches.append(("LCPTriple.lifted", self.beta, self.lifted))

    post_init, triple_post_init = InnerProduct.__post_init__, LCPTriple.__post_init__
    orthogonal_sum = InnerProduct._orthogonal_sum.__func__
    monkeypatch.setattr(Subspace, "_canonical", classmethod(checked_subspace))
    monkeypatch.setattr(LieAlgebra, "_canonical", classmethod(checked_algebra))
    monkeypatch.setattr(connections, "_canonical_operators", checked_operators)
    monkeypatch.setattr(InnerProduct, "__post_init__", checked_metric)
    monkeypatch.setattr(InnerProduct, "_orthogonal_sum", classmethod(checked_sum))
    monkeypatch.setattr(LCPTriple, "__post_init__", checked_triple)
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
        reached: dict[tuple[str, ...], set[str]] = {}
        for argv in commands():
            before = calls.copy()
            assert invoke(argv) == pinned[" ".join(argv)]
            kind = argv[:2] if argv[0] in ("lcp", "lattice") else argv[:1]
            kind += ("--candidate",) * ("--candidate" in argv)
            reached.setdefault(kind, set()).update(k for k in calls if calls[k] > before[k])
        # the joint kernel and the bound's four conditions, which only --candidate
        # still builds, on each corpus structure
        for structure in (make_sol3_structure(), make_rot4_structure(), make_rot5_structure()):
            structure.analysis.curvature.kernel
            structure._linear_conditions
        assert mismatches == []
        # what each kind of command must build through the wrapped constructors
        engine = {"Subspace", "LieAlgebra", "InnerProduct", "Connection"}
        assert {kind: engine & built for kind, built in reached.items()} == {
            ("validate",): {"LieAlgebra", "InnerProduct"},
            ("analyze",): {"LieAlgebra", "Subspace"},
            **{("lcp", action): engine for action in ALGEBRA_ACTIONS},
            ("lcp", "char-bound", "--candidate"): engine,
            ("lattice", "snf"): set(),
            ("lattice", "index"): set(),
            ("lattice", "lemma51"): {"Subspace"},
        }
        assert {kind for kind, built in reached.items() if "CurvatureTensor" in built} == {
            ("lcp", "detect"), ("lcp", "max-flat")
        }
        assert "InnerProduct._orthogonal_sum" in reached["lcp", "from-triple"]

    def test_every_engine_built_operator_passes_the_public_check(self, oracle, pinned):
        calls, mismatches = oracle
        for argv in commands():
            assert invoke(argv) == pinned[" ".join(argv)]
        rng = random.Random(2311)
        for _ in range(20):
            # from-triple validates without the curvature; read it to check it too
            build_from_triple(random_rotation_triple(rng)).analysis.curvature
        assert mismatches == []
        assert calls["Connection"] > 20 and calls["CurvatureTensor"] > 20
        assert calls["InnerProduct._orthogonal_sum"] > 20 and calls["LCPTriple"] > 20

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
        operators = counting("operators", connections._check_operators)
        monkeypatch.setattr(connections, "_check_operators", operators)
        for module in (lcp, liealg):  # the name `lcp` imports, and the one `semidirect_sum` reads
            monkeypatch.setattr(module, "_lifted_action", counting("action", liealg._lifted_action))
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

    def test_no_command_checks_the_operators_the_engine_built(self, counts, pinned):
        Connection(1, 1, ((),))
        assert counts["operators"] == 1
        for argv in commands():
            counts.clear()
            assert invoke(argv) == pinned[" ".join(argv)]
            assert counts["operators"] == 0, argv

    def test_from_triple_reads_the_action_once(self, counts, pinned):
        """`LCPTriple` reads the action; `build_from_triple` extends h by it
        without reading it again."""
        lines = [argv for argv in commands() if argv[:2] == ("lcp", "from-triple")]
        read = 0
        for argv in lines:
            counts.clear()
            assert invoke(argv) == pinned[" ".join(argv)]
            assert counts["action"] == ("triple" in corpus_json(argv[2])), argv
            read += counts["action"]
        assert read >= 4

    def test_only_a_parsed_document_skips_the_table_check(self, counts):
        """A document from the parser or from `structure_document` is marked
        `parsed`; a hand-built one, or a copy of a parsed one, is not, and its
        table gets the public check once."""
        doc = documents.parse_algebra_document(corpus_text("sol3.json"))
        triple_doc = documents.parse_algebra_document(corpus_text("sol3_triple.json"))
        structure_doc = documents.structure_document(build_from_triple(documents.document_triple(triple_doc)))
        assert doc.parsed and triple_doc.triple.h.parsed and structure_doc.parsed
        for parsed in (doc, structure_doc):
            counts.clear()
            documents.document_algebra(parsed)
            assert counts["table"] == 0
        counts.clear()
        documents.document_triple(triple_doc)
        assert counts["table"] == 0

        def copied(d, **changes):
            return documents.AlgebraDocument(**{key: getattr(d, key) for key in d._fields} | changes)

        hand_built = documents.AlgebraDocument(
            dim=3, basis=("x", "y", "z"), brackets=doc.brackets,
            metric=None, theta=None, flat_factor=None, triple=None,
        )
        for built in (copied(doc), hand_built):
            assert not built.parsed
            counts.clear()
            assert documents.document_algebra(built).table is doc.brackets
            assert counts["table"] == 1
        h_copy = copied(triple_doc.triple.h)
        assert h_copy == triple_doc.triple.h and not h_copy.parsed
        block = documents.TripleBlock(h_copy, triple_doc.triple.q, triple_doc.triple.beta)
        counts.clear()
        documents.document_triple(copied(doc, triple=block))
        assert counts["table"] == 1

    @pytest.mark.parametrize("build", [documents.document_algebra, documents.document_triple])
    def test_the_builders_take_no_provenance_keyword(self, build):
        doc = documents.parse_algebra_document(corpus_text("sol3_triple.json"))
        with pytest.raises(TypeError):
            build(doc, **{"parsed": True})


class TestRebuiltForms:
    """Each public form check rebuilds the form with the routine that makes it
    and compares. On seeded candidates, canonical or changed by the edits of
    `cases`, it agrees with the form written out as a grammar in `reference`."""

    def test_bracket_tables(self):
        rng = random.Random(3501)
        seen, accepted = Counter(), Counter()
        for _ in range(6000):
            edits, dim, table = fuzzed_table(rng)
            canonical = reference.canonical_table(dim, table)
            assert liealg._is_canonical(dim, table) is canonical, (edits, dim, table)
            assert canonical or edits
            seen.update(edits)
            accepted.update(edits if canonical else ["rejected"])
        assert set(seen) == set(TABLE_EDITS)
        assert accepted["Fraction subclass"] > 0 and 1000 < accepted["rejected"] < 5000

    def test_subspace_rows(self):
        rng = random.Random(3502)
        seen, rejected = Counter(), 0
        for _ in range(6000):
            edits, n, rows = fuzzed_rows(rng)
            pivots = reference.canonical_rows(n, rows)
            try:
                s = Subspace(n, rows)
            except ValueError:
                assert pivots is None, (edits, n, rows)
                rejected += 1
            else:
                assert s.pivots == pivots, (edits, n, rows)
            assert pivots is not None or edits
            seen.update(edits)
        assert set(seen) == set(ROW_EDITS)
        assert 1000 < rejected < 5000

    def test_operators(self):
        rng = random.Random(3503)
        seen, rejected = Counter(), 0
        for _ in range(1500):
            edits, cls, dim, denominator, rows = fuzzed_operators(rng)
            canonical = reference.canonical_operators(dim, denominator, rows)
            try:
                cls(dim, denominator, rows)
            except ValueError as exc:
                assert not canonical, (edits, dim, denominator, rows)
                assert str(exc) == f"{cls.__name__} rows are not integer operators in lowest terms"
                rejected += 1
            else:
                assert canonical, (edits, dim, denominator, rows)
            assert canonical or edits
            seen.update(edits)
        assert set(seen) == set(OPERATOR_EDITS)
        assert 300 < rejected < 1300
