"""In-memory tracing of padicells' public functions, for the traced run.

Tracer.install() replaces each function listed in TRACED by a wrapper, in
every padicells module that holds it (modules import names from each other,
so patching only the defining module would miss most calls). Nothing in
padicells itself changes. Spans stay in memory and are written out once,
at the end; self times are derived afterwards as each span's duration minus
the spans and counted calls directly inside it.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from dataclasses import dataclass, field

SPAN, COUNT = "span", "count"

# (module, function, kind). COUNT marks leaves called more than 10^4 times
# per operation: they keep a call count and summed times instead of one
# span per call. A COUNT function must not call a SPAN function.
TRACED = (
    ("padicells.oracle", "oracle_integrate", SPAN),
    ("padicells.padic", "in_coset", COUNT),
    ("padicells.expr", "d_sub", COUNT),
    ("padicells.expr", "eval_constructible", SPAN),
    ("padicells.expr", "parse_constructible", SPAN),
    ("padicells.cells", "fiber_membership", COUNT),
    ("padicells.decompose", "decompose_univariate", SPAN),
    ("padicells.decompose", "hensel_lift", SPAN),
    ("padicells.decompose", "verify_prepared", SPAN),
    ("sympy", "factor_list", SPAN),
    ("padicells.polys", "taylor_shift", SPAN),
    ("padicells.integrate", "integrate_full", SPAN),
    ("padicells.integrate", "eliminate_last_variable", SPAN),
    ("padicells.integrate", "prepare_integrand", SPAN),
    ("padicells.integrate", "igusa_zeta", SPAN),
    ("padicells.integrate", "poincare_check", SPAN),
    ("padicells.integrate", "sum_eliminate_simple", SPAN),
    ("padicells.sums", "sum_progression", SPAN),
)


def _short(module: str, function: str) -> str:
    return f"{module.rsplit('.', 1)[-1]}.{function}"


def _note(name: str, result):
    """What a span keeps of its function's result."""
    if name == "oracle.oracle_integrate":
        return [float(result.boundary_mass), bool(result.sampled)]
    if name == "decompose.decompose_univariate":
        return len(result)
    if name == "decompose.verify_prepared":
        return [result.classes_checked, result.equality_checks]
    return None


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span
    op: int | None  # operation id
    leaf_s: float = 0.0  # time of COUNT calls made directly inside
    note: object = None
    error: str | None = None


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    # (function, name of the enclosing span) -> [calls, total_s, self_s]
    counts: dict[tuple[str, str | None], list] = field(default_factory=dict)
    op: int | None = None
    # open calls: [span index, or None for a COUNT call; for a COUNT call,
    # the time of the traced calls inside it]
    _stack: list[list] = field(default_factory=list)
    _undo: list[tuple[object, str, object]] = field(default_factory=list)

    def install(self) -> None:
        for module_name, function, kind in TRACED:
            module = sys.modules[module_name]
            original = getattr(module, function)
            wrapper = self._wrap(_short(module_name, function), original, kind)
            for name, mod in list(sys.modules.items()):
                if mod is module or name.split(".")[0] == "padicells":
                    if getattr(mod, function, None) is original:
                        self._undo.append((mod, function, original))
                        setattr(mod, function, wrapper)

    def uninstall(self) -> None:
        for mod, function, original in reversed(self._undo):
            setattr(mod, function, original)
        self._undo.clear()

    def _enclosing_span(self) -> int | None:
        for frame in reversed(self._stack):
            if frame[0] is not None:
                return frame[0]
        return None

    def _wrap(self, name: str, fn, kind: str):
        stack = self._stack

        def traced(*args, **kwargs):
            parent = self._enclosing_span()
            span = None
            if kind == SPAN:
                span = Span(name, 0.0, 0.0, parent, self.op)
                frame = [len(self.spans), 0.0]
                self.spans.append(span)
            else:
                frame = [None, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if span is not None:
                    span.error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                elapsed = end - start
                if span is not None:
                    span.start, span.end = start, end
                else:
                    key = (name, None if parent is None else self.spans[parent].name)
                    entry = self.counts.setdefault(key, [0, 0.0, 0.0])
                    entry[0] += 1
                    entry[1] += elapsed
                    entry[2] += elapsed - frame[1]
                if stack:
                    outer = stack[-1]
                    if outer[0] is None:
                        outer[1] += elapsed
                    elif span is None:
                        self.spans[outer[0]].leaf_s += elapsed
            if span is not None:
                span.note = _note(name, result)
            return result

        return functools.wraps(fn)(traced)

    # -- output -----------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "spans": [[s.name, s.start, s.end, s.parent, s.op, s.leaf_s, s.note, s.error]
                      for s in self.spans],
            "counts": [[name, parent, *entry] for (name, parent), entry in self.counts.items()],
        }

    def merge(self, data: dict) -> None:
        """Adds the trace of another process (a traced CLI call)."""
        base = len(self.spans)
        for name, start, end, parent, op, leaf_s, note, error in data["spans"]:
            self.spans.append(Span(name, start, end, None if parent is None else parent + base,
                                   op, leaf_s, note, error))
        for name, parent, calls, total, own in data["counts"]:
            entry = self.counts.setdefault((name, parent), [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += total
            entry[2] += own

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus its child spans and its direct COUNT calls."""
    inner = [s.leaf_s for s in spans]
    for s in spans:
        if s.parent is not None:
            inner[s.parent] += s.end - s.start
    return [s.end - s.start - inner[i] for i, s in enumerate(spans)]


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer numbers of one traced run, summed over its operations."""
    own = self_times(tracer.spans)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    for s, t in zip(tracer.spans, own):
        calls[s.name] = calls.get(s.name, 0) + 1
        self_s[s.name] = self_s.get(s.name, 0.0) + t
        total_s[s.name] = total_s.get(s.name, 0.0) + (s.end - s.start)
    for (name, _), (n, total, mine) in tracer.counts.items():
        calls[name] = calls.get(name, 0) + n
        self_s[name] = self_s.get(name, 0.0) + mine
        total_s[name] = total_s.get(name, 0.0) + total

    def under(name: str, parent: str) -> int:
        # COUNT calls directly inside the named span
        return sum(e[0] for (n, par), e in tracer.counts.items() if n == name and par == parent)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    oracle = [s.note for s in tracer.spans if s.name == "oracle.oracle_integrate" and s.note]
    verify = [s.note for s in tracer.spans if s.name == "decompose.verify_prepared" and s.note]
    classes = sum(n for n, _ in verify)
    decompositions = [s for s in tracer.spans if s.name == "decompose.decompose_univariate"]
    return {
        "oracle.calls": calls.get("oracle.oracle_integrate", 0),
        "oracle.self_s": self_s.get("oracle.oracle_integrate", 0.0),
        "oracle.stage_decisions_per_s": ratio(
            under("expr.d_sub", "oracle.oracle_integrate"),
            total_s.get("oracle.oracle_integrate", 0.0)),
        "oracle.undecided_mass": ratio(sum(m for m, _ in oracle), len(oracle)),
        "oracle.sampled": sum(1 for _, sampled in oracle if sampled),
        "padic.in_coset.calls": calls.get("padic.in_coset", 0),
        "padic.in_coset.self_s": self_s.get("padic.in_coset", 0.0),
        "expr.d_sub.calls": calls.get("expr.d_sub", 0),
        "expr.eval_constructible.calls": calls.get("expr.eval_constructible", 0),
        "expr.eval_constructible.self_s": self_s.get("expr.eval_constructible", 0.0),
        "expr.parse_constructible.self_s": self_s.get("expr.parse_constructible", 0.0),
        "cells.fiber_membership.calls": calls.get("cells.fiber_membership", 0),
        "cells.fiber_membership.self_s": self_s.get("cells.fiber_membership", 0.0),
        "decompose.decompose_univariate.self_s": self_s.get("decompose.decompose_univariate", 0.0),
        "decompose.factor_s": total_s.get("sympy.factor_list", 0.0),
        "decompose.hensel_lift.calls": calls.get("decompose.hensel_lift", 0),
        "decompose.cells_out": sum(s.note for s in decompositions if s.note is not None),
        "decompose.precision_exhausted": sum(
            1 for s in decompositions if s.error == "PrecisionExhausted"),
        "decompose.verify_prepared.self_s": self_s.get("decompose.verify_prepared", 0.0),
        "decompose.verify_prepared.classes": classes,
        "decompose.verify_prepared.classes_per_s": ratio(
            classes, total_s.get("decompose.verify_prepared", 0.0)),
        "decompose.verify_prepared.decided_share": ratio(sum(c for _, c in verify), classes),
        "polys.taylor_shift.calls": sum(
            1 for s in tracer.spans if s.name == "polys.taylor_shift" and s.parent is not None
            and tracer.spans[s.parent].name == "decompose.decompose_univariate"),
        "integrate.integrate_full.self_s": self_s.get("integrate.integrate_full", 0.0),
        "integrate.eliminate_last_variable.self_s": self_s.get(
            "integrate.eliminate_last_variable", 0.0),
        "integrate.prepare_integrand.calls": calls.get("integrate.prepare_integrand", 0),
        "integrate.igusa_zeta.self_s": self_s.get("integrate.igusa_zeta", 0.0),
        "integrate.poincare_check.self_s": self_s.get("integrate.poincare_check", 0.0),
        "integrate.sum_eliminate_simple.self_s": self_s.get("integrate.sum_eliminate_simple", 0.0),
        "sums.sum_progression.calls": calls.get("sums.sum_progression", 0),
        "sums.sum_progression.self_s": self_s.get("sums.sum_progression", 0.0),
    }
