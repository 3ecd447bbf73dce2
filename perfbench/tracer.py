"""Spans around the calls into each stablepgf layer, recorded from outside.

The tracer replaces each listed public function with a timing wrapper in
every stablepgf module that holds it, so calls made through a by-name
import (``bdchain.real_roots``, ``stability.exact_real_root_count``, ...)
are seen as well.  Spans stay in memory and are written to a sidecar when
the run ends; the original functions are restored on exit.
"""

from __future__ import annotations

import inspect
import json
import math
import sys
import time
from dataclasses import dataclass
from typing import Callable


def _first_param(name):
    return lambda b: b.arguments[name]


def _real_roots_name(b):
    return "polycore.real_roots.exact" if b.arguments["p"].exact else "polycore.real_roots.float"


def _box_states(b):
    box = b.arguments.get("box")
    if box is None:
        box = tuple(s - 1 for s in b.arguments["mu"].shape)
    return math.prod(int(x) + 1 for x in box)


@dataclass(frozen=True)
class Layer:
    """One traced public function.

    name: optional callable choosing the span name from the bound
        arguments; the default is "<module>.<func>".
    size: optional callable reading the problem size of a call from the
        bound arguments, used to fit the scaling exponents; for
        cli.run_experiment it reads the experiment name instead.
    """

    module: str
    func: str
    name: Callable | None = None
    size: Callable | None = None

    def span_name(self, bound) -> str:
        return self.name(bound) if self.name else f"{self.module}.{self.func}"


LAYERS = (
    Layer("polycore", "real_roots", _real_roots_name, lambda b: b.arguments["p"].degree),
    Layer("polycore", "exact_real_root_count"),
    Layer("stability", "is_real_rooted"),
    Layer("stability", "is_stable_multi"),
    Layer("stability", "certify_tstable"),
    Layer("measures", "bp_decompose"),
    Layer("bdchain", "transition", size=_first_param("N")),
    Layer("bdchain", "evolve"),
    Layer("bdchain", "kingman", size=_first_param("n")),
    Layer("bdchain", "lie_split_evolve"),
    Layer("particles", "truncated_generator_evolve", size=_box_states),
    Layer("particles", "exact_pgf_transform"),
    Layer("particles", "gillespie_empirical", size=_first_param("samples")),
    Layer("nacheck", "na_all_splits"),
    Layer("cli", "run_experiment", size=_first_param("name")),
)

SPAN_NAMES = (
    "polycore.real_roots.exact",
    "polycore.real_roots.float",
    "polycore.exact_real_root_count",
    *(f"{layer.module}.{layer.func}" for layer in LAYERS[2:]),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    task: int | None
    size: object
    result: object


class Tracer:
    """Context manager that wraps the layers of an imported stablepgf."""

    def __init__(self):
        self.spans: list[Span] = []
        self.task: int | None = None
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _wrap(self, layer: Layer, fn):
        sig = inspect.signature(fn)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            name = layer.span_name(bound)
            size = layer.size(bound) if layer.size else None
            parent = stack[-1] if stack else None
            span = Span(name, time.perf_counter(), 0.0, parent, self.task, size, None)
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                out = fn(*args, **kwargs)
                span.result = getattr(getattr(out, "verdict", None), "value", None)
                return out
            finally:
                span.end = time.perf_counter()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def __enter__(self) -> "Tracer":
        modules = [m for k, m in sys.modules.items() if k == "stablepgf" or k.startswith("stablepgf.")]
        for layer in LAYERS:
            original = getattr(sys.modules[f"stablepgf.{layer.module}"], layer.func)
            wrapper = self._wrap(layer, original)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def mark(self) -> int:
        """Index of the next span, to slice the spans of one round."""
        return len(self.spans)

    def write(self, path: str) -> None:
        columns = ["name", "start", "end", "parent", "task", "size", "result"]
        rows = [[getattr(s, c) for c in columns] for s in self.spans]
        with open(path, "w") as fh:
            json.dump({"columns": columns, "spans": rows}, fh)


def layer_stats(spans: list[Span], lo: int, hi: int) -> dict:
    """Per-name calls, busy_s and self_s over spans[lo:hi].

    busy_s counts a span unless an ancestor has the same name, so nested
    calls of one layer are not counted twice; self_s is a span's duration
    minus the durations of its direct children.
    """
    stats = {name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0} for name in SPAN_NAMES}
    child_time = [0.0] * (hi - lo)
    for i in range(lo, hi):
        s = spans[i]
        if s.parent is not None and s.parent >= lo:
            child_time[s.parent - lo] += s.end - s.start
    for i in range(lo, hi):
        s = spans[i]
        st = stats.setdefault(s.name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        dur = s.end - s.start
        st["calls"] += 1
        st["self_s"] += dur - child_time[i - lo]
        anc = s.parent
        while anc is not None and anc >= lo and spans[anc].name != s.name:
            anc = spans[anc].parent
        if anc is None or anc < lo:
            st["busy_s"] += dur
    return stats


def top_level_time(spans: list[Span], lo: int, hi: int) -> float:
    return sum(s.end - s.start for s in spans[lo:hi] if s.parent is None)


def fit_exponent(spans: list[Span], name: str) -> float:
    """Least-squares slope of log(duration) against log(size); 0 without spread."""
    pts = [
        (math.log(s.size), math.log(s.end - s.start))
        for s in spans
        if s.name == name and isinstance(s.size, (int, float)) and s.size > 0 and s.end > s.start
    ]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx
