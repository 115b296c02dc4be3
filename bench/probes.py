"""One-off measurements outside the workloads: the baselines quoted in
ROADMAP item 1 and the seed findings recorded in NOTES.md.

    python3 bench/probes.py

Takes about a minute; prints one line per measurement. Nothing is checked
against a bound: the numbers are for the notes, to be re-run on the same
machine when a later change claims to move them.
"""
from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
from contextlib import redirect_stdout
from time import perf_counter

import run
import workloads
from tracing import Tracer


def timed(fn, *args):
    start = perf_counter()
    result = fn(*args)
    return perf_counter() - start, result


def traced(fn):
    tracer = Tracer()
    tracer.install()
    try:
        with redirect_stdout(io.StringIO()):
            seconds, _ = timed(fn)
    finally:
        tracer.uninstall()
    return seconds, tracer.metrics()


def main() -> None:
    cli = run.import_cli()
    from lcplie import documents
    from lcplie.lcp import build_from_triple
    from lcplie.liealg import LieAlgebra

    for n in (4, 7, 10):
        doc = workloads.scaling_triple(n, random.Random(0))
        triple = documents.document_triple(documents.parse_algebra_document(json.dumps(doc)))
        seconds, _ = timed(build_from_triple, triple)
        print(f"build_from_triple n={n} (q={n // 2}): {seconds:.2f} s")

    seconds, _ = timed(LieAlgebra.abelian, 60)
    print(f"LieAlgebra.abelian(60): {seconds:.2f} s")

    workdir = run.WORK_ROOT / "probes"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        abelian = {"dim": 60, "basis": [f"e{i + 1}" for i in range(60)], "brackets": []}
        (workdir / "abelian60.json").write_text(json.dumps(abelian))
        abelian16 = dict(abelian, dim=16, basis=abelian["basis"][:16])
        (workdir / "abelian16.json").write_text(json.dumps(abelian16))
        rot5 = str(run.CORPUS_DIR / "rot5.json")
        with redirect_stdout(io.StringIO()):
            seconds, _ = timed(cli.main, ["validate", str(workdir / "abelian60.json")])
        print(f"lcplie validate abelian60: {seconds:.2f} s")
        for action in ("detect", "max-flat"):
            with redirect_stdout(io.StringIO()):
                seconds, _ = timed(cli.main, ["lcp", action, rot5])
            print(f"lcplie lcp {action} rot5.json: {seconds * 1e3:.0f} ms")

        _, m = traced(lambda: cli.main(["lcp", "detect", rot5]))
        print(f"weyl_connection builds per detect: {m['connections.weyl_calls']}")
        seconds, m = traced(lambda: cli.main(["analyze", str(workdir / "abelian16.json")]))
        print(
            f"analyze abelian16: {seconds:.2f} s traced, killing_form {m['liealg.killing_form_calls']} "
            f"calls, {m['liealg.killing_form_ms'] / 1e3:.2f} s; radical {m['liealg.radical_calls']} "
            f"calls, {m['liealg.radical_ms'] / 1e3:.2f} s"
        )
    finally:
        shutil.rmtree(workdir)
        with contextlib.suppress(OSError):
            run.WORK_ROOT.rmdir()


if __name__ == "__main__":
    main()
