"""lcplie benchmark: drives `lcplie.cli.main(argv)` in-process on seeded
documents and checks every output.

    python3 bench/run.py --workload corpus --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 35

Run from the root of a checkout; the package is imported from its `src/`.
A run makes rounds for about `--seconds`: each round sets up afresh five
times (import the CLI, write the seeded documents) and makes one pass over
the workload's invocation list. NOTES.md defines the metrics.
With `--trace 0` it reports the end-to-end metrics; with `--trace 1` each
round adds a traced pass and it reports the per-layer metrics.
Human-readable lines go first; the last line of stdout is one JSON object.
`--workload all` runs each workload in its own fresh process.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter, process_time

import oracles
import workloads
from tracing import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CORPUS_DIR = ROOT / "tests" / "corpus"
WORK_ROOT = ROOT / ".bench_work"
GOLDENS = BENCH_DIR / "goldens.json"
SETUP_PER_ROUND = 5
P90_MIN_SAMPLES = 100  # a p90 needs at least 10 samples beyond it


class SetupError(Exception):
    """The checkout lacks what the benchmark needs (package, corpus, goldens)."""


@dataclass
class Result:
    code: int
    stdout: str
    stderr: str
    seconds: float
    ref: float  # reference kernel time next to this invocation, seconds


@dataclass
class Pass:
    wall: float
    cpu: float
    results: list[Result]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def purge_lcplie() -> None:
    for name in [n for n in sys.modules if n == "lcplie" or n.startswith("lcplie.")]:
        del sys.modules[name]


def import_cli():
    """Import `lcplie.cli` from this checkout's src/, never from elsewhere."""
    if not (SRC / "lcplie" / "cli.py").is_file():
        raise SetupError(f"no lcplie package under {SRC}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    cli = importlib.import_module("lcplie.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SetupError(f"lcplie was imported from {cli.__file__}, not from {SRC}")
    return cli


def setup(workload: str, seed: int, workdir: Path):
    """Import the CLI module afresh and write the seeded documents."""
    purge_lcplie()
    cli = import_cli()
    wl = workloads.build(workload, workloads.seeded(seed), CORPUS_DIR)
    workdir.mkdir(parents=True, exist_ok=True)
    for name, text in wl.files.items():
        (workdir / name).write_text(text, encoding="utf-8")
    return cli, wl


def reference_seconds() -> float:
    """Time of a fixed exact-arithmetic kernel of about 2 ms: Fraction
    elimination on a fixed 6x6 matrix, three times. Taken before and after
    each invocation, it follows the speed of this machine, which drops to
    about half in bursts of seconds and drifts over minutes."""
    start = perf_counter()
    for _ in range(3):
        n = 6
        m = [[Fraction((r * 7 + c * 3) % 11 - 5, 1 + (r + c) % 4) + 3 * (r == c) for c in range(n)]
             for r in range(n)]
        for c in range(n):
            for i in range(c + 1, n):
                f = m[i][c] / m[c][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return perf_counter() - start


def run_pass(cli, invocations) -> Pass:
    """One timed pass; the working directory must be the work directory.
    `cli.main` is looked up per call, so an installed tracer sees it. The
    pass times include the reference kernel run next to each invocation."""
    gc.collect()
    results = []
    wall0, cpu0 = perf_counter(), process_time()
    for inv in invocations:
        out, err = io.StringIO(), io.StringIO()
        ref_before = reference_seconds()
        start = perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(inv.argv))
            except SystemExit as exc:  # argparse rejects the command line
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception as exc:  # a traceback: counted as a failure
                code = -1
                err.write(f"uncaught {type(exc).__name__}: {exc}\n")
        seconds = perf_counter() - start
        ref = (ref_before + reference_seconds()) / 2
        stdout = out.getvalue()
        if inv.stdout_to is not None:
            Path(inv.stdout_to).write_text(stdout, encoding="utf-8")
        results.append(Result(code, stdout, err.getvalue(), seconds, ref))
    return Pass(perf_counter() - wall0, process_time() - cpu0, results)


def check(inv: workloads.Invocation, result: Result, goldens: dict) -> str | None:
    """Why the result is wrong, or None. Compares exit code and stdout/stderr
    bytes with those recorded from the reference commit, then runs the
    invocation's independent oracle."""
    want = goldens.get(inv.key)
    if want is None:
        return "no recorded expectation for this invocation"
    if result.code != want["exit"]:
        return f"exit code {result.code}, expected {want['exit']}: {result.stderr.strip()[:200]}"
    if digest(result.stdout) != want["stdout"]:
        return "stdout differs from the recorded bytes"
    if digest(result.stderr) != want["stderr"]:
        return "stderr differs from the recorded bytes"
    if inv.check is not None:
        try:
            inv.check(result.stdout)
        except (oracles.OracleError, ValueError, KeyError, TypeError, IndexError) as exc:
            return f"oracle: {type(exc).__name__}: {exc}"
    return None


def check_pass(invocations, done: Pass, goldens: dict) -> list[str]:
    problems = []
    for inv, result in zip(invocations, done.results, strict=True):
        problem = check(inv, result, goldens)
        if problem is not None:
            problems.append(f"{inv.key}: {problem}")
    return problems


def load_goldens() -> dict:
    if not GOLDENS.is_file():
        raise SetupError(f"missing {GOLDENS}")
    return json.loads(GOLDENS.read_text(encoding="utf-8"))


def hd_quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile.

    A mean of the order statistics weighted by the Beta((n+1)p, (n+1)(1-p))
    mass of each interval ((i-1)/n, i/n]. A workload's latencies come from
    a few commands of very different cost; the sample median follows the
    one or two commands in the middle and jumps when noise swaps
    neighbours, while this estimate averages the commands around the
    middle. The Beta mass is integrated by Simpson's rule; it needs
    (n+1)p > 1 and (n+1)(1-p) > 1, so that the density vanishes at 0 and 1.
    """
    steps = 32  # Simpson subintervals per interval
    xs = sorted(values)
    n = len(xs)
    if n == 1:
        return xs[0]
    a, b = p * (n + 1), (1 - p) * (n + 1)
    if a <= 1 or b <= 1:
        raise ValueError(f"{n} samples are too few for the {p} quantile")
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def density(t: float) -> float:
        if t <= 0.0 or t >= 1.0:
            return 0.0
        return math.exp(log_norm + (a - 1) * math.log(t) + (b - 1) * math.log1p(-t))

    weights = []
    for i in range(n):
        lo, width = i / n, 1 / (n * steps)
        inner = sum((4 if k % 2 else 2) * density(lo + k * width) for k in range(1, steps))
        weights.append((density(lo) + inner + density(lo + steps * width)) * width / 3)
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


@dataclass
class Measurement:
    setup_times: list[float]
    plain: list[Pass]
    traced: list[Pass]
    traced_metrics: list[dict]
    problems: list[str]


def measure(args, workdir: Path, goldens: dict) -> Measurement:
    """Rounds for `args.seconds`: at least one, and no round that would end
    past it if it took as long as the last. A round is SETUP_PER_ROUND timed
    set-ups, then one untraced pass and, with `args.trace`, one traced pass
    with a tracer of its own. Spreading set-ups and passes over the run lets
    its best times avoid the bursts in which this machine runs at half
    speed. The working directory must be `workdir`."""
    m = Measurement([], [], [], [], [])
    last_round = 0.0
    start = perf_counter()
    while not m.plain or perf_counter() - start + last_round <= args.seconds:
        round_start = perf_counter()
        for _ in range(SETUP_PER_ROUND):
            setup_start = perf_counter()
            cli, wl = setup(args.workload, args.seed, workdir)
            m.setup_times.append(perf_counter() - setup_start)
        done = run_pass(cli, wl.invocations)
        m.plain.append(done)
        m.problems += check_pass(wl.invocations, done, goldens)
        if args.trace:
            tracer = Tracer()
            tracer.install()
            try:
                done = run_pass(cli, wl.invocations)
            finally:
                tracer.uninstall()
            m.traced.append(done)
            m.traced_metrics.append(tracer.metrics())
            m.problems += check_pass(wl.invocations, done, goldens)
        last_round = perf_counter() - round_start
    return m


def end_to_end(setup_times, passes: list[Pass]):
    """(value, unit, sample count) per metric. The bounded ones: the best
    set-up, memory, and costs in reference units, which are an invocation's
    latency divided by the reference kernel time next to it: the median pass
    total and the median over invocations of each one's median cost. The
    raw times, printed only: the best pass, and quantiles over the
    invocations of each one's best latency."""
    count = len(passes[0].results)
    costs = [[p.results[i].seconds / p.results[i].ref for p in passes] for i in range(count)]
    best = [min(p.results[i].seconds for p in passes) * 1e3 for i in range(count)]
    metrics = {
        "setup_s": (min(setup_times), "s", len(setup_times)),
        "pass_ref": (statistics.median(sum(c[k] for c in costs) for k in range(len(passes))), "ref", len(passes)),
        "cmd_ref_p50": (hd_quantile([statistics.median(c) for c in costs], 0.5), "ref", count),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1),
    }
    raw = {
        "wall_s": (min(p.wall for p in passes), "s", len(passes)),
        "cpu_s": (min(p.cpu for p in passes), "s", len(passes)),
        "cmd_ms_p50": (hd_quantile(best, 0.5), "ms", count),
    }
    if count >= P90_MIN_SAMPLES:
        raw["cmd_ms_p90"] = (hd_quantile(best, 0.9), "ms", count)
    return metrics, raw


def per_layer(plain: list[Pass], traced: list[Pass], traced_metrics: list[dict]):
    """Counts from the traced passes (they must agree exactly), times as
    medians over them, and the ratio of the best traced to the best
    untraced pass wall time."""
    problems = []
    merged = {}
    for name in traced_metrics[0]:
        values = [m[name] for m in traced_metrics]
        if name.endswith("_calls") or name == "coeff.max_bits":
            if len(set(values)) != 1:
                problems.append(f"count {name} differs between traced passes: {values}")
            merged[name] = values[0]
        else:
            merged[name] = statistics.median(values)
    merged["trace.overhead_ratio"] = min(p.wall for p in traced) / min(p.wall for p in plain)
    return merged, problems


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name == "coeff.max_bits":
        return "bits"
    if name == "trace.overhead_ratio":
        return "ratio"
    return "count"


def run_workload(args) -> int:
    goldens = load_goldens()
    workdir = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    home = Path.cwd()
    workdir.mkdir(parents=True)
    try:
        os.chdir(workdir)
        try:
            m = measure(args, workdir, goldens)
        finally:
            os.chdir(home)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()

    attempted = sum(len(p.results) for p in m.plain + m.traced)
    failed = len(m.problems)
    print(f"workload {args.workload}: seed {args.seed}, {len(m.plain[0].results)} invocations "
          f"per pass, {len(m.plain)} untraced and {len(m.traced)} traced passes")
    metrics: dict[str, dict] = {}
    if args.trace:
        layers, count_problems = per_layer(m.plain, m.traced, m.traced_metrics)
        m.problems += count_problems
        for name, value in layers.items():
            unit = layer_unit(name)
            print(f"  {name} = {value} {unit} (per pass, n={len(m.traced)})")
            metrics[name] = {"value": value, "unit": unit}
    else:
        e2e, raw = end_to_end(m.setup_times, m.plain)
        for name, (value, unit, n) in {**e2e, **raw}.items():
            print(f"  {name} = {value} {unit} (n={n})")
        for name, (value, unit, _) in e2e.items():
            metrics[name] = {"value": value, "unit": unit}
    print(f"  failed_ratio = {failed / attempted} (failed {failed} of {attempted} attempted)")
    for problem in m.problems[:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    result = {"correct": not m.problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result), flush=True)
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process; prints every metric by name."""
    status = 0
    for workload in workloads.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        child = subprocess.run(argv, capture_output=True, text=True, check=False)
        sys.stdout.write(child.stdout)
        sys.stderr.write(child.stderr)
        lines = child.stdout.strip().splitlines()
        if child.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        return run_workload(args)
    except (SetupError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
