"""Span tracing of lcplie's public functions, installed from outside.

`Tracer.install()` replaces each wrapped function in every lcplie module
namespace that binds it (`weyl_connection` lives in both `lcplie.connections`
and `lcplie.lcp`, `kernel` in four modules) and each wrapped method on its
class; `uninstall()` puts every original back. A span records name, start,
end, parent span and invocation id; an invocation is one top-level call
(`lcplie.cli.main`). Hot methods get a call counter instead of a span.
"""
from __future__ import annotations

import functools
import sys
from collections import Counter
from dataclasses import dataclass
from time import perf_counter

LAYERS = ("cli", "documents", "liealg", "connections", "lcp", "linalg", "lattice")

# Span name -> (module, attribute); "Class.method" patches the class. The
# names without a metric below still get spans so that their time is
# charged to their own layer's self time, not to the caller's.
SPANS = {
    "cli.main": ("cli", "main"),
    "documents.parse": ("documents", "parse_algebra_document"),
    "documents.parse_lattice": ("documents", "parse_lattice_document"),
    "documents.emit": ("documents", "emit_algebra_document"),
    "documents.document_algebra": ("documents", "document_algebra"),
    "documents.document_triple": ("documents", "document_triple"),
    "documents.structure_document": ("documents", "structure_document"),
    "liealg.from_brackets": ("liealg", "LieAlgebra.from_brackets"),
    "liealg.check_jacobi": ("liealg", "check_jacobi"),
    "liealg.killing_form": ("liealg", "killing_form"),
    "liealg.radical": ("liealg", "radical"),
    "liealg.derived_series": ("liealg", "derived_series"),
    "liealg.lower_central_series": ("liealg", "lower_central_series"),
    "liealg.center": ("liealg", "center"),
    "liealg.trace_form": ("liealg", "trace_form"),
    "liealg.is_ideal": ("liealg", "is_ideal"),
    "liealg.semidirect_sum": ("liealg", "semidirect_sum"),
    "connections.levi_civita": ("connections", "levi_civita"),
    "connections.weyl": ("connections", "weyl_connection"),
    "connections.curvature": ("connections", "curvature"),
    "connections.is_closed": ("connections", "is_closed"),
    "lcp.violations": ("lcp", "lcp_violations"),
    "lcp.max_flat": ("lcp", "maximal_flat_factor"),
    "lcp.validate": ("lcp", "validate_lcp"),
    "lcp.build_from_triple": ("lcp", "build_from_triple"),
    "lcp.char_space": ("lcp", "characteristic_constraint_space"),
    "lcp.check_candidate": ("lcp", "check_candidate"),
    "lcp.is_parallel": ("lcp", "is_parallel"),
    "linalg.rref": ("linalg", "rref"),
    "linalg.kernel": ("linalg", "kernel"),
    "linalg.inverse": ("linalg", "inverse"),
    "linalg.det": ("linalg", "det"),
    "linalg.symmetric_signature": ("linalg", "symmetric_signature"),
    "lattice.snf": ("lattice", "smith_normal_form"),
    "lattice.det_integer": ("lattice", "det_integer"),
    "lattice.check_splitting": ("lattice", "check_splitting"),
    "lattice.index": ("lattice", "lattice_index"),
}
# Called too often for a span each; counted only.
COUNTERS = {
    "liealg.bracket": ("liealg", "LieAlgebra.bracket"),
    "connections.inner_product": ("connections", "InnerProduct.value"),
}
# Their results are the connection and curvature matrices; coeff.max_bits
# is read from them.
COEFF_SPANS = {"connections.levi_civita", "connections.weyl", "connections.curvature"}
# "documents.parse" counts both document kinds.
ALIASES = {"documents.parse_lattice": "documents.parse"}

# Per-layer metrics a traced run reports: `<name>_ms` and `<name>_calls`.
MS_METRICS = (
    "cli.main", "documents.parse", "documents.emit",
    "liealg.from_brackets", "liealg.check_jacobi", "liealg.killing_form", "liealg.radical",
    "connections.levi_civita", "connections.weyl", "connections.curvature",
    "lcp.violations", "lcp.max_flat", "lcp.validate", "lcp.build_from_triple",
    "lcp.char_space", "lcp.check_candidate",
    "linalg.rref",
    "lattice.snf", "lattice.det_integer", "lattice.check_splitting",
)
CALL_METRICS = (
    "documents.parse", "liealg.from_brackets", "liealg.killing_form", "liealg.radical",
    "liealg.bracket", "connections.levi_civita", "connections.weyl", "connections.curvature",
    "connections.inner_product", "lcp.violations", "lcp.max_flat",
    "linalg.rref", "linalg.kernel", "linalg.inverse", "lattice.snf",
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    invocation: int
    outermost: bool  # no enclosing span of the same name (recursion)


def max_bits(value) -> int:
    """Largest numerator or denominator bit length in nested tuples of Fractions."""
    if isinstance(value, tuple):
        return max((max_bits(x) for x in value), default=0)
    if hasattr(value, "nabla"):
        return max_bits(value.nabla)
    if hasattr(value, "operators"):
        return max_bits(value.operators)
    return max(abs(value.numerator).bit_length(), value.denominator.bit_length())


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self.coeff_bits = 0
        self._stack: list[int] = []
        self._invocations = 0
        self._patches: list[tuple[object, str, object]] = []

    # ---------------------------------------------------------- wrappers

    def _span_wrapper(self, name: str, fn):
        tracer = self
        coeff = name in COEFF_SPANS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            if not stack:
                tracer._invocations += 1
            outermost = all(tracer.spans[i].name != name for i in stack)
            span = Span(name, 0.0, 0.0, stack[-1] if stack else None, tracer._invocations, outermost)
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if coeff:
                tracer.coeff_bits = max(tracer.coeff_bits, max_bits(result))
            return result

        return wrapper

    def _count_wrapper(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # ------------------------------------------------------ install/undo

    def install(self) -> None:
        modules = [
            mod for name, mod in sys.modules.items()
            if mod is not None and (name == "lcplie" or name.startswith("lcplie."))
        ]
        for table, make in ((SPANS, self._span_wrapper), (COUNTERS, self._count_wrapper)):
            for name, (module, attr) in table.items():
                owner = sys.modules[f"lcplie.{module}"]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(owner, cls_name)
                    raw = cls.__dict__[meth]
                    if isinstance(raw, classmethod):
                        wrapped = classmethod(make(name, raw.__func__))
                    else:
                        wrapped = make(name, raw)
                    self._patch(cls, meth, raw, wrapped)
                    continue
                original = getattr(owner, attr)
                wrapped = make(name, original)
                for mod in modules:
                    for binding, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, binding, original, wrapped)

    def _patch(self, owner, attr: str, original, wrapped) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------ metrics

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything recorded so far.

        `<name>_ms` is inclusive time (recursive calls counted once),
        `<name>_calls` the number of calls, `<layer>.self_ms` the summed self
        time of the layer's spans: duration minus the time its child spans
        cover.
        """
        totals, selfs, calls = span_summary(self.spans)
        layer_self = {layer: 0.0 for layer in LAYERS}
        for name, value in selfs.items():
            layer_self[name.split(".")[0]] += value
        calls.update(self.counts)
        out: dict[str, float] = {}
        for name in MS_METRICS:
            out[f"{name}_ms"] = totals.get(name, 0.0) * 1e3
        for name in CALL_METRICS:
            out[f"{name}_calls"] = calls.get(name, 0)
        for layer in LAYERS:
            out[f"{layer}.self_ms"] = layer_self[layer] * 1e3
        out["coeff.max_bits"] = self.coeff_bits
        return out


def span_summary(spans: list[Span]):
    """(inclusive seconds, self seconds, calls) per span name."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.end - span.start
    totals: dict[str, float] = {}
    selfs: dict[str, float] = {}
    calls: Counter[str] = Counter()
    for span, child_time in zip(spans, covered):
        name = ALIASES.get(span.name, span.name)
        duration = span.end - span.start
        calls[name] += 1
        selfs[name] = selfs.get(name, 0.0) + duration - child_time
        if span.outermost:
            totals[name] = totals.get(name, 0.0) + duration
    return totals, selfs, calls
