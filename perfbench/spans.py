"""In-process span tracer that wraps the package's public functions.

Spans are recorded from the benchmark's side of each layer boundary: a
wrapper replaces a function at the module attribute its callers look up
(``semiclassics.cli.crossing_time``, ``semiclassics.trajectory.solve_ivp``
and so on), opens a span, calls the original and closes the span.  Spans
live in memory until the pass ends; ``layer_metrics`` then turns them
into per-layer counts and self times.

A wrap target that no longer exists is listed in ``Tracer.absent`` and
otherwise ignored, so a change that removes a function (for instance a
replacement of ``solve_ivp``) still runs the benchmark unchanged.
"""

import time

import numpy as np


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "args", "result")

    def __init__(self, span_id, parent, name, start):
        self.id = span_id
        self.parent = parent
        self.name = name
        self.start = start
        self.end = None
        self.args = None
        self.result = None

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Records nested spans around wrapped functions.

    ``wrap`` patches a module attribute; ``restore`` puts every original
    back.  ``keep`` selects spans whose arguments and result are kept for
    analysis after the pass (the references are dropped by ``reset``).
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.absent = []
        self._stack = []
        self._patched = []

    def reset(self):
        self.spans = []
        self._stack = []

    def open(self, name):
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, name, self.clock())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span):
        span.end = self.clock()
        self._stack.pop()

    def wrap(self, module, attr, name, keep=False):
        """Replace ``module.attr`` by a span-recording wrapper.

        Returns False, and records the target as absent, when the module
        has no such attribute.
        """
        original = getattr(module, attr, None)
        if original is None:
            self.absent.append(f"{module.__name__}.{attr}")
            return False

        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.close(span)
            if keep:
                span.args = (args, kwargs)
                span.result = result
            return result

        setattr(module, attr, wrapper)
        self._patched.append((module, attr, original))
        return True

    def restore(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched = []


def self_times(spans):
    """Self time of each span: its duration minus the union of the
    intervals its child spans cover."""
    children = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    result = {}
    for span in spans:
        covered = 0.0
        reach = span.start
        for start, end in sorted(children.get(span.id, ())):
            start = max(start, reach)
            if end > start:
                covered += end - start
                reach = end
        result[span.id] = span.duration - covered
    return result


def aggregate(spans):
    """Per span name: calls, busy time (sum of durations) and self time."""
    own = self_times(spans)
    table = {}
    for span in spans:
        row = table.setdefault(span.name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["busy_s"] += span.duration
        row["self_s"] += own[span.id]
    return table


def relative_drift(g, energy, y):
    """max |H - E| / max(1, |E|) over the columns of a solve_ivp state
    array, for V(x) = x**2/2 - g*x**3 (computed here, independently of
    the package)."""
    x = y[0] + 1j * y[1]
    p = y[2] + 1j * y[3]
    h = 0.5 * p * p + 0.5 * x * x - g * x ** 3
    return float(np.max(np.abs(h - energy))) / max(1.0, abs(energy))
