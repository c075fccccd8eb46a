"""In-memory spans recorded by the benchmark around its calls into the program.

A span is (id, parent id, op id, name, start, end), times from
``time.perf_counter``.  Spans of one op share the op id.  The untraced run
uses ``NullTracer``, whose spans cost one context-manager entry.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self.op_id = None

    @contextlib.contextmanager
    def span(self, name):
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [span_id, parent, self.op_id, name, time.perf_counter(), None]
        self.spans.append(record)
        self._stack.append(span_id)
        try:
            yield
        finally:
            self._stack.pop()
            record[5] = time.perf_counter()

    def durations(self, name, factor):
        """Durations of the finished spans called ``name``, in order, each
        multiplied by ``factor(start, end)``."""
        return [(s[5] - s[4]) * factor(s[4], s[5]) for s in self.spans if s[3] == name and s[5] is not None]

    def self_times(self):
        """Total self time per span name: duration minus the children's durations."""
        child = defaultdict(float)
        for s in self.spans:
            if s[1] is not None:
                child[s[1]] += s[5] - s[4]
        out = defaultdict(float)
        for s in self.spans:
            out[s[3]] += s[5] - s[4] - child[s[0]]
        return dict(out)

    def records(self):
        keys = ("id", "parent", "op", "name", "start", "end")
        return [dict(zip(keys, s)) for s in self.spans]


class NullTracer:
    op_id = None

    def span(self, name):
        return contextlib.nullcontext()
