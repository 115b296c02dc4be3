"""Tests of the benchmark itself: generators, output checks and tracing.

    python3 -m pytest -q bench/tests
"""
from __future__ import annotations

import json
import os
import sys
from contextlib import contextmanager

import pytest

import oracles
import run
import workloads
from tracing import Span, Tracer, span_summary

CLI = run.import_cli()
from lcplie.lcp import LCPTriple  # noqa: E402  (import_cli puts src/ on the path)
from lcplie.liealg import check_jacobi  # noqa: E402
from lcplie import documents  # noqa: E402

GOLDENS = run.load_goldens()


@contextmanager
def workdir(tmp_path, wl):
    for name, text in wl.files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    home = os.getcwd()
    os.chdir(tmp_path)
    try:
        yield
    finally:
        os.chdir(home)


def sub_workload(name: str, keys) -> workloads.Workload:
    wl = workloads.build(name, workloads.seeded(0), run.CORPUS_DIR)
    wanted = [inv for inv in wl.invocations if inv.key in keys]
    assert len(wanted) == len(keys)
    return workloads.Workload(wl.files, wanted)


def all_variant_documents():
    for name in workloads.WORKLOADS:
        for variant in range(workloads.POOL):
            wl = workloads.build(name, workloads.fixed(variant), run.CORPUS_DIR)
            for fname, text in wl.files.items():
                yield f"{name}/v{variant}/{fname}", json.loads(text)


# ------------------------------------------------------------- generators


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generators_are_deterministic_per_seed(name):
    first = workloads.build(name, workloads.seeded(7), run.CORPUS_DIR)
    again = workloads.build(name, workloads.seeded(7), run.CORPUS_DIR)
    other = workloads.build(name, workloads.seeded(8), run.CORPUS_DIR)
    assert first.files == again.files
    assert [i.argv for i in first.invocations] == [i.argv for i in again.invocations]
    assert [i.key for i in first.invocations] != [i.key for i in other.invocations]


def test_every_seeded_invocation_has_a_recorded_expectation():
    for name in workloads.WORKLOADS:
        for variant in range(workloads.POOL):
            wl = workloads.build(name, workloads.fixed(variant), run.CORPUS_DIR)
            missing = [inv.key for inv in wl.invocations if inv.key not in GOLDENS]
            assert not missing


def test_generated_algebras_satisfy_jacobi():
    for where, doc in all_variant_documents():
        for algebra in (doc, doc.get("triple", {}).get("h")):
            if algebra and "dim" in algebra:
                brackets = oracles.bracket_map(algebra["brackets"])
                assert oracles.jacobi_holds(algebra["dim"], brackets), where
                if algebra["dim"] <= 12:
                    assert check_jacobi(algebra["dim"], brackets) == (), where


def test_generated_triples_are_accepted_by_lcplie():
    count = 0
    for where, doc in all_variant_documents():
        if "triple" in doc:
            parsed = documents.parse_algebra_document(json.dumps(doc))
            assert isinstance(documents.document_triple(parsed), LCPTriple), where
            count += 1
    assert count >= len(workloads.SCALING_DIMS) * workloads.POOL


def test_jacobi_oracle_rejects_a_broken_table():
    # [e1, e2] = e2, [e2, e3] = e1: the Jacobi sum on (e1, e2, e3) is e1.
    broken = {(0, 1): {1: 1}, (1, 2): {0: 1}}
    assert not oracles.jacobi_holds(3, broken)
    assert check_jacobi(3, broken) != ()


# ---------------------------------------------------------- output checks


def test_det_cofactor_matches_known_values():
    assert oracles.det_cofactor([[2, 1], [1, 1]]) == 1
    assert oracles.det_cofactor([[0, -1], [1, 3]]) == 1
    assert oracles.det_cofactor([[1, 2, 3], [4, 5, 6], [7, 8, 10]]) == -3
    assert oracles.det_cofactor([[1, 2], [2, 4]]) == 0


def test_passes_are_checked_and_a_corrupted_stdout_fails(tmp_path):
    keys = {
        "corpus/lat_upper23/lattice snf --json",
        "corpus/lat_upper23/lattice index",
        "corpus/rot4_triple/lcp from-triple --json",
        "corpus/heis3/lcp detect",  # an expected exit-2 path
    }
    wl = sub_workload("corpus", keys)
    with workdir(tmp_path, wl):
        result_pass = run.run_pass(CLI, wl.invocations)
    assert run.check_pass(wl.invocations, result_pass, GOLDENS) == []
    for inv, result in zip(wl.invocations, result_pass.results):
        corrupted = run.Result(result.code, result.stdout + " ", result.stderr, 0.0, 1.0)
        assert run.check(inv, corrupted, GOLDENS) is not None
        wrong_exit = run.Result(1 - min(result.code, 1), result.stdout, result.stderr, 0.0, 1.0)
        assert run.check(inv, wrong_exit, GOLDENS) is not None


def test_oracles_catch_wrong_values_that_keep_the_format():
    a = [[2, 1], [0, 3]]
    with pytest.raises(oracles.OracleError):
        oracles.check_index(a, "index: 5\n", as_json=False)
    oracles.check_index(a, "index: 6\n", as_json=False)
    snf = {"u": [[1, 0], [0, 1]], "d": [[1, 0], [0, 6]], "v": [[1, 0], [0, 1]], "divisors": [1, 6]}
    with pytest.raises(oracles.OracleError):
        oracles.check_snf(a, json.dumps(snf))
    triple = json.loads((run.CORPUS_DIR / "sol3_triple.json").read_text())["triple"]
    good = (run.CORPUS_DIR / "sol3.json").read_text()
    oracles.check_from_triple(triple, good)
    with pytest.raises(oracles.OracleError):
        oracles.check_from_triple(triple, good.replace('"theta": [\n    "0",\n    "-1"', '"theta": [\n    "0",\n    "1"'))


# ----------------------------------------------------------------- tracing


def test_tracing_restores_every_binding_and_changes_no_byte(tmp_path):
    keys = {
        "corpus/sol3/lcp detect",
        "corpus/sol3/lcp char-bound --json",
        "corpus/rot4_triple/lcp from-triple",
        "corpus/sl2/analyze",
        "corpus/lat_fib_split/lattice lemma51",
    }
    wl = sub_workload("corpus", keys)

    def bindings():
        return {
            (name, attr): value
            for name, mod in sys.modules.items()
            if name == "lcplie" or name.startswith("lcplie.")
            for attr, value in list(vars(mod).items())
        } | {
            (cls.__name__, attr): value
            for cls in (sys.modules["lcplie.liealg"].LieAlgebra, sys.modules["lcplie.connections"].InnerProduct)
            for attr, value in vars(cls).items()
        }

    before = bindings()
    with workdir(tmp_path, wl):
        plain = run.run_pass(CLI, wl.invocations)
        tracer = Tracer()
        tracer.install()
        assert bindings() != before
        try:
            traced = run.run_pass(CLI, wl.invocations)
        finally:
            tracer.uninstall()
    assert bindings() == before
    assert [r.stdout for r in traced.results] == [r.stdout for r in plain.results]
    assert run.check_pass(wl.invocations, traced, GOLDENS) == []
    assert {s.invocation for s in tracer.spans} == set(range(1, len(keys) + 1))


def traced_counts(tmp_path, keys):
    wl = sub_workload("corpus", keys)
    with workdir(tmp_path, wl):
        tracer = Tracer()
        tracer.install()
        try:
            run.run_pass(CLI, wl.invocations)
        finally:
            tracer.uninstall()
    return tracer


@pytest.mark.parametrize(
    "key, weyl",
    [
        ("corpus/sol3/lcp detect", 4),
        ("corpus/sol3/lcp char-bound", 4),
        ("corpus/sol3_triple/lcp from-triple", 3),
        ("corpus/sol3/lcp max-flat", 1),
    ],
)
def test_seed_weyl_counts(tmp_path, key, weyl):
    assert traced_counts(tmp_path, {key}).metrics()["connections.weyl_calls"] == weyl


def test_seed_analyze_computes_killing_form_three_times(tmp_path):
    assert traced_counts(tmp_path, {"corpus/sol3/analyze"}).metrics()["liealg.killing_form_calls"] == 3


def test_counts_repeat_exactly(tmp_path):
    keys = {"corpus/rot4/lcp char-bound", "corpus/heis3/analyze", "corpus/lat_diag23/lattice snf"}
    first = traced_counts(tmp_path, keys).metrics()
    second = traced_counts(tmp_path, keys).metrics()
    for name, value in first.items():
        if name.endswith("_calls") or name == "coeff.max_bits":
            assert second[name] == value, name


def test_self_times_never_exceed_span_totals(tmp_path):
    tracer = traced_counts(tmp_path, {"corpus/rot4/lcp char-bound", "corpus/sl2/analyze"})
    totals, selfs, _ = span_summary(tracer.spans)
    assert totals and set(selfs) == set(totals)
    for name, self_time in selfs.items():
        assert -1e-9 <= self_time <= totals[name] + 1e-9, name
    metrics = tracer.metrics()
    layer_self = sum(metrics[f"{layer}.self_ms"] for layer in ("cli", "documents", "liealg",
                                                             "connections", "lcp", "linalg", "lattice"))
    assert layer_self == pytest.approx(metrics["cli.main_ms"], rel=1e-6)


def test_span_summary_on_synthetic_spans():
    spans = [
        Span("lcp.violations", 0.0, 10.0, None, 1, True),
        Span("connections.weyl", 1.0, 5.0, 0, 1, True),
        Span("connections.levi_civita", 2.0, 4.0, 1, 1, True),
        Span("connections.weyl", 6.0, 9.0, 0, 1, True),
    ]
    totals, selfs, calls = span_summary(spans)
    assert totals == {"lcp.violations": 10.0, "connections.weyl": 7.0, "connections.levi_civita": 2.0}
    assert selfs == {"lcp.violations": 3.0, "connections.weyl": 5.0, "connections.levi_civita": 2.0}
    assert calls["connections.weyl"] == 2


def test_hd_quantile_tracks_the_sample_quantile():
    assert run.hd_quantile([7.0], 0.5) == 7.0
    assert run.hd_quantile([1.0, 2.0, 3.0], 0.5) == pytest.approx(2.0)
    values = [float(x) for x in range(1, 502)]
    assert run.hd_quantile(values, 0.5) == pytest.approx(251.0, rel=1e-3)
    assert run.hd_quantile(values, 0.9) == pytest.approx(451.0, rel=2e-3)
    with pytest.raises(ValueError):
        run.hd_quantile([1.0, 2.0, 3.0], 0.9)
