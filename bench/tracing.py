"""Spans around nerveline's public functions, recorded from outside the program.

A traced run replaces each function in ``SPANS`` with a wrapper in every
nerveline module that binds it (``nerveline.controller.sense`` and
``nerveline.line.sense`` are both the wrapper), records one span per call
and restores the original functions on ``uninstall``.  Self time is a
span's duration minus the part of it that its child spans cover and minus
the tracer's own cost, which ``install`` measures on a wrapped no-op.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import time
from dataclasses import dataclass, field
from typing import NamedTuple

# Public functions timed per layer.  Anything not listed (divider_voltage,
# the CSV writer, argparse, private helpers) counts as its caller's self time.
SPANS = {
    "cli": ("main",),
    "config": ("load_config", "load_scenario"),
    "hand": ("posture_command",),
    "line": (
        "simulate_sweep", "sense", "resolve_contacts", "snap_to_spike",
        "solve_line_resistance", "adc_quantize",
    ),
    "estimation": ("auto_calibration", "filter_step", "estimate_p", "position_reached"),
    "controller": ("run_scenario", "step"),
}
LAYERS = tuple(SPANS)


CALIBRATION_CALLS = 20_000
CALIBRATION_ROUNDS = 7


class Span(NamedTuple):
    name: str
    start: int
    end: int
    parent: int  # index of the parent span in the same list, -1 for a root
    tracer_ns: int = 0  # measured tracer work inside the span (the sense-input observer)


class Overhead(NamedTuple):
    """The wrapper's own cost per span, in nanoseconds."""

    inside: float = 0.0  # between the span's start and end, on top of the function
    outside: float = 0.0  # before the start and after the end, so inside the parent span


def self_times(spans: list[Span], overhead: Overhead = Overhead()) -> list[float]:
    """Self time of each span: its duration minus the union of its children's intervals.

    The tracer's cost is taken out too: ``overhead.inside`` and the span's
    own ``tracer_ns`` from the span, ``overhead.outside`` per child from the
    parent.
    """
    children: list[list[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span.parent >= 0:
            children[span.parent].append(i)
    result = []
    for span, kids in zip(spans, children):
        covered = 0
        reach = span.start
        for start, end in sorted((spans[k].start, spans[k].end) for k in kids):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        tracer = overhead.inside + span.tracer_ns + len(kids) * overhead.outside
        result.append(span.end - span.start - covered - tracer)
    return result


@dataclass
class SenseInputs:
    """Noise-free ``sense`` calls in one operation, and how many repeat an earlier input."""

    seen: set = field(default_factory=set)
    calls: int = 0
    repeats: int = 0


class Tracer:
    """Installs span-recording wrappers and holds the spans of the current operation."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.sense = SenseInputs()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.overhead = Overhead()

    def install(self) -> None:
        self.overhead = self.calibrate()
        modules = [importlib.import_module(f"nerveline.{layer}") for layer in LAYERS]
        for layer, names in SPANS.items():
            for name in names:
                original = getattr(importlib.import_module(f"nerveline.{layer}"), name)
                wrapper = self._wrap(f"{layer}.{name}", original)
                for module in modules:
                    if module.__dict__.get(name) is original:
                        self._patched.append((module, name, original))
                        setattr(module, name, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            module, name, original = self._patched.pop()
            setattr(module, name, original)

    def reset(self) -> None:
        self.spans = []
        self.sense = SenseInputs()
        self._stack = []

    def calibrate(self) -> Overhead:
        """Time a wrapped no-op against the bare no-op; return the median cost per span.

        Per call, the bare loop costs loop + no-op and the wrapped loop
        costs loop + outside + span, where the recorded span is inside +
        no-op; an empty loop gives the loop's own cost.
        """

        def noop(a, b):
            return None

        wrapped = self._wrap("calibration", noop)
        clock = time.perf_counter_ns
        calls = range(CALIBRATION_CALLS)
        inside, outside = [], []
        for _ in range(CALIBRATION_ROUNDS):
            self.reset()
            t0 = clock()
            for _ in calls:
                pass
            t1 = clock()
            for _ in calls:
                noop(1, 2)
            t2 = clock()
            for _ in calls:
                wrapped(1, 2)
            t3 = clock()
            loop, bare, traced = ((b - a) / CALIBRATION_CALLS for a, b in ((t0, t1), (t1, t2), (t2, t3)))
            span = sum(s.end - s.start for s in self.spans) / CALIBRATION_CALLS
            inside.append(span - (bare - loop))
            outside.append(traced - loop - span)
        self.reset()
        return Overhead(max(statistics.median(inside), 0.0), max(statistics.median(outside), 0.0))

    def _wrap(self, name: str, fn):
        clock = time.perf_counter_ns
        tracer = self
        observe = self._observe_sense(fn) if name == "line.sense" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans, stack = tracer.spans, tracer._stack
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            observed = 0
            try:
                if observe is not None:
                    observe(args, kwargs)
                    observed = clock() - start
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = Span(name, start, end, parent, observed)

        return wrapper

    def _observe_sense(self, fn):
        parameters = inspect.signature(fn).parameters
        params = list(parameters)
        defaults = {
            name: p.default for name, p in parameters.items() if p.default is not inspect.Parameter.empty
        }

        def observe(args, kwargs):
            bound = dict(defaults)
            bound.update(zip(params, args))
            bound.update(kwargs)
            if bound["noise_sd_counts"] != 0:
                return
            key = (bound["spec"], bound["contact_set"], bound["fingertip_quality"])
            sense = self.sense
            sense.calls += 1
            if key in sense.seen:
                sense.repeats += 1
            else:
                sense.seen.add(key)

        return observe


@dataclass
class LayerTotals:
    """Per-span-name totals over the traced operations, the tracer's cost taken out."""

    calls: dict[str, int] = field(default_factory=dict)
    self_ns: dict[str, float] = field(default_factory=dict)
    total_ns: dict[str, float] = field(default_factory=dict)
    op_ns: float = 0
    ops: int = 0
    sense_calls: int = 0
    sense_repeats: int = 0

    def add_operation(self, spans: list[Span], sense: SenseInputs, overhead: Overhead = Overhead()) -> None:
        own = self_times(spans, overhead)
        inclusive = list(own)
        for i in reversed(range(len(spans))):  # a child always comes after its parent
            if spans[i].parent >= 0:
                inclusive[spans[i].parent] += inclusive[i]
        for span, own_ns, total_ns in zip(spans, own, inclusive):
            self.calls[span.name] = self.calls.get(span.name, 0) + 1
            self.self_ns[span.name] = self.self_ns.get(span.name, 0) + own_ns
            self.total_ns[span.name] = self.total_ns.get(span.name, 0) + total_ns
        self.op_ns += sum(own)
        self.ops += 1
        self.sense_calls += sense.calls
        self.sense_repeats += sense.repeats

    def self_us(self, name: str) -> float:
        """Mean self time per call, in microseconds; 0 when never called."""
        calls = self.calls.get(name, 0)
        return self.self_ns.get(name, 0) / calls / 1e3 if calls else 0.0

    def mean_us(self, name: str) -> float:
        """Mean inclusive time per call, in microseconds; 0 when never called."""
        calls = self.calls.get(name, 0)
        return self.total_ns.get(name, 0) / calls / 1e3 if calls else 0.0

    def layer_share(self, layer: str) -> float:
        """Share of traced operation time spent in the layer's own code."""
        own = sum(ns for name, ns in self.self_ns.items() if name.split(".")[0] == layer)
        return own / self.op_ns if self.op_ns else 0.0
