"""Record the expected exit code and output bytes of every invocation any
seed can produce, from the checked-out program, into goldens.json.

    python3 bench/record_goldens.py

Run it only on a commit whose outputs are the reference: the benchmark
counts every later byte difference as a failure. Each invocation must also
pass its independent oracle, or nothing is written.
"""
from __future__ import annotations

import contextlib
import json
import os
import shutil
import sys

import run
import workloads


def record() -> dict:
    cli = run.import_cli()
    goldens: dict[str, dict] = {}
    problems: list[str] = []
    home = os.getcwd()
    for name in workloads.WORKLOADS:
        for variant in range(workloads.POOL):
            wl = workloads.build(name, workloads.fixed(variant), run.CORPUS_DIR)
            workdir = run.WORK_ROOT / f"record-{name}-{variant}"
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            for fname, text in wl.files.items():
                (workdir / fname).write_text(text, encoding="utf-8")
            os.chdir(workdir)
            try:
                result_pass = run.run_pass(cli, wl.invocations)
            finally:
                os.chdir(home)
                shutil.rmtree(workdir)
            for inv, result in zip(wl.invocations, result_pass.results, strict=True):
                entry = {
                    "exit": result.code,
                    "stdout": run.digest(result.stdout),
                    "stderr": run.digest(result.stderr),
                }
                if goldens.setdefault(inv.key, entry) != entry:
                    problems.append(f"{inv.key}: output differs between two identical runs")
                if result.code == -1:
                    problems.append(f"{inv.key}: {result.stderr.strip()}")
                problem = run.check(inv, result, {inv.key: entry})
                if problem is not None:
                    problems.append(f"{inv.key}: {problem}")
            print(f"{name} v{variant}: {len(wl.invocations)} invocations, "
                  f"{result_pass.wall:.2f} s", flush=True)
    with contextlib.suppress(OSError):
        run.WORK_ROOT.rmdir()
    if problems:
        raise SystemExit("not recorded:\n" + "\n".join(problems))
    return dict(sorted(goldens.items()))


if __name__ == "__main__":
    goldens = record()
    run.GOLDENS.write_text(json.dumps(goldens, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(goldens)} expectations to {run.GOLDENS}", file=sys.stderr)
