"""In-memory span recording and aggregation for the benchmark.

A span is a list ``[name, start, end, parent]``: ``parent`` is the index of
the span that was open when this one started, or -1 for a root. Spans stay
in memory and are written out by the caller when the benchmark ends.

Counters sit beside the spans: work counts (rows embedded, bytes written,
comparisons made) recorded at the same boundaries, so ratios are measured
where the work happens.

Self time is a span's duration minus the part of its interval that its
direct child spans cover. Inclusive time for a name adds up only the spans
with no ancestor of the same name, so a nested call is not counted twice.
"""

import functools
import re
import statistics
import time

METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")


class Tracer:
    """Records spans around wrapped callables, plus named counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counters = {}
        self._stack = []

    def reset(self):
        """Start a new phase; returns the spans and counters of the last one."""
        spans, counters = self.spans, self.counters
        self.spans, self.counters = [], {}
        self._stack.clear()
        return spans, counters

    def count(self, name, amount=1):
        self.counters[name] = self.counters.get(name, 0) + amount

    def inside(self, name):
        """True while a span with this name is open."""
        spans = self.spans
        return any(spans[i][0] == name for i in self._stack)

    def open(self, name):
        stack = self._stack
        rec = [name, self.clock(), None, stack[-1] if stack else -1]
        stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def close(self, rec):
        rec[2] = self.clock()
        self._stack.pop()

    def wrap(self, name, fn, after=None):
        """Callable that records a span around ``fn``.

        ``name`` is a string, or a callable of ``(args, kwargs)`` giving one.
        ``after(args, kwargs, result)`` runs once the span has closed, so
        counting work does not add to the measured time.
        """
        clock, stack = self.clock, self._stack
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = tracer.spans
            rec = [name if isinstance(name, str) else name(args, kwargs), clock(), None,
                   stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced


def _covered(start, end, children):
    """Length of [start, end] covered by the union of child intervals."""
    total, reach = 0.0, start
    for c_start, c_end in sorted(children):
        c_start, c_end = max(c_start, reach), min(c_end, end)
        if c_end > c_start:
            total += c_end - c_start
            reach = c_end
    return total


def self_times(spans):
    """Per span: duration minus the time its direct children cover."""
    children = [[] for _ in spans]
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [
        (end - start) - _covered(start, end, children[i])
        for i, (name, start, end, parent) in enumerate(spans)
    ]


def has_ancestor(spans, index, names):
    """True when some ancestor of span ``index`` is named in ``names``."""
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] in names:
            return True
        parent = spans[parent][3]
    return False


class Stat:
    """Totals for one span name."""

    __slots__ = ("calls", "total", "self_total", "durations")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_total = 0.0
        self.durations = []


def aggregate(spans, keep=None):
    """Span name -> Stat, over the spans whose index passes ``keep``."""
    selfs = self_times(spans)
    stats = {}
    for i, (name, start, end, parent) in enumerate(spans):
        if keep is not None and not keep(i):
            continue
        st = stats.get(name)
        if st is None:
            st = stats[name] = Stat()
        duration = end - start
        st.calls += 1
        st.self_total += selfs[i]
        st.durations.append(duration)
        if not has_ancestor(spans, i, (name,)):
            st.total += duration
    return stats


def self_by_module(spans, keep=None):
    """Module (the first dotted part of a span name) -> summed self time."""
    out = {}
    for i, s in enumerate(self_times(spans)):
        if keep is None or keep(i):
            module = spans[i][0].split(".", 1)[0]
            out[module] = out.get(module, 0.0) + s
    return out


def median_and_tail(values):
    """(median, tail, tail percentile) of a sample.

    The tail is the highest value with at least ten samples above it, the
    100 * (n - 10) / n percentile of n samples. Below eleven samples no such
    value exists and the tail falls back to the median, at percentile 50.
    """
    if not values:
        return 0.0, 0.0, 0.0
    ordered = sorted(values)
    n = len(ordered)
    med = statistics.median(ordered)
    if n < 11:
        return med, med, 50.0
    return med, ordered[n - 11], 100.0 * (n - 10) / n
