"""Spans recorded from outside curveflow, at the boundaries between modules.

The tracer replaces names inside the namespace of the calling module
(so ``curveflow.integrate``'s own ``flow_state`` is wrapped, not the
definition in ``curveflow.flows``) and restores them afterwards. Each
span records its name, start, end, parent span and job id. Spans stay in
memory; they are summarised, or written out, once at the end.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass

# (module whose namespace is patched, name in it, span name). Span names
# are "<defining module>.<function>", except ``area_along_flow`` called
# from ``curveflow.integrate``, which is one event probe.
PATCHES = (
    ("curveflow.integrate", "flow_state", "flows.flow_state"),
    ("curveflow.integrate", "length_rate", "flows.length_rate"),
    ("curveflow.integrate", "area_along_flow", "integrate.event_probe"),
    ("curveflow.integrate", "validate_convexity", "support.validate_convexity"),
    ("curveflow.integrate", "curve_length", "support.curve_length"),
    ("curveflow.integrate", "radius_extrema", "support.radius_extrema"),
    ("curveflow.flows", "area_along_flow", "flows.area_along_flow"),
    ("curveflow.flows", "total_inverse_curvature", "support.total_inverse_curvature"),
    ("curveflow.heat", "propagate", "heat.propagate"),
    ("curveflow.heat", "known_scalars", "heat.known_scalars"),
    ("curveflow.cli", "parse_config", "cli.parse_config"),
    ("curveflow.cli", "load_initial", "cli.load_initial"),
    ("curveflow.cli", "validate_convexity", "support.validate_convexity"),
    ("curveflow.cli", "integrate", "integrate.integrate"),
    ("curveflow.cli", "state_record", "integrate.state_record"),
    ("curveflow.cli", "evaluate_h", "flows.evaluate_h"),
    ("curveflow.cli", "curve_position", "support.curve_position"),
    ("curveflow.diagnostics", "isoperimetric", "diagnostics.isoperimetric"),
    ("curveflow.diagnostics", "go1", "diagnostics.go1"),
    ("curveflow.diagnostics", "go2", "diagnostics.go2"),
    ("curveflow.diagnostics", "gage", "diagnostics.gage"),
    ("curveflow.diagnostics", "ipd_decay_ratio", "diagnostics.ipd_decay_ratio"),
    ("curveflow.diagnostics", "ipr_monotone", "diagnostics.ipr_monotone"),
    ("curveflow.diagnostics", "radius_extrema", "support.radius_extrema"),
    ("curveflow.diagnostics", "sq_curvature_integral", "support.sq_curvature_integral"),
)


@dataclass(frozen=True, slots=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    job: int
    states: int = 0  # recorded states, for spans returning a Trajectory


class Tracer:
    """In-memory span recorder. Spans opened on a thread with no open span
    of its own (sweep rows run on pool threads) take the current job's
    root span as parent."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._job = -1
        self._root: int | None = None

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else self._root
            sid = next(self._ids)
            stack.append(sid)
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                states = len(getattr(result, "states", ()))
                self.spans.append(Span(sid, name, start, end, parent, self._job, states))

        return traced

    @contextmanager
    def job(self, name: str, job_id: int):
        """Root span of one job, opened by the benchmark around its call."""
        sid = next(self._ids)
        self._job, self._root = job_id, sid
        stack = self._stack()
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(sid, name, start, end, None, job_id))
            self._root = None

    @contextmanager
    def installed(self):
        """Wrap every name in PATCHES for the duration of the block."""
        saved = []
        try:
            for module_name, attr, span_name in PATCHES:
                # importlib, not attribute access: the package attribute
                # curveflow.integrate is the function, not the module.
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(span_name, original))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def write_spans(spans: list[Span], path) -> None:
    """One JSON object per span."""
    with open(path, "w") as fh:
        for s in spans:
            fh.write(json.dumps({f: getattr(s, f) for f in Span.__slots__}, separators=(",", ":")) + "\n")


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Duration of each span minus the time its child spans cover.

    Children may overlap one another (rows of a sweep run on a thread
    pool), so the covered time is the union of their intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.id: (s.end - s.start) - covered(children.get(s.id, []), s.start, s.end) for s in spans
    }
