"""Spans and call counters for the traced run.

Spans are recorded only around calls the benchmark's own files make into a
nilmag layer; nothing inside the package is instrumented.  Counters wrap a
few names that cross module boundaries, by replacing them on their owner
for the duration of a `counting()` block.  A name that no longer exists
counts 0.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import Counter


class _Span:
    __slots__ = ("tracer", "name", "id", "parent", "start")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        self.id = len(tr.spans) + len(tr.stack)
        self.parent = tr.stack[-1].id if tr.stack else None
        tr.stack.append(self)
        self.start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter_ns()
        tr = self.tracer
        tr.stack.pop()
        tr.spans.append((self.id, self.parent, tr.op_id, self.name, self.start, end))
        return False


_OFF = contextlib.nullcontext()


class Tracer:
    """In-memory span recorder; a disabled tracer hands out a shared no-op context."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[tuple] = []
        self.stack: list[_Span] = []
        self.op_id = -1
        self.counts: Counter = Counter()

    def span(self, name: str):
        return _Span(self, name) if self.enabled else _OFF

    def op(self, name: str):
        """Root span of one operation; its children share its op id."""
        if not self.enabled:
            return _OFF
        self.op_id += 1
        return _Span(self, "op:" + name)

    @contextlib.contextmanager
    def counting(self, targets):
        """Count calls to (owner, attribute, label) targets inside the block."""
        saved = []
        for owner, attr, label in targets:
            orig = getattr(owner, attr, None)
            if orig is None:
                continue
            self.counts.setdefault(label, 0)
            saved.append((owner, attr, orig))
            setattr(owner, attr, self._counter(orig, label))
        try:
            yield self.counts
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

    def _counter(self, fn, label):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[label] += 1
            return fn(*args, **kwargs)

        return wrapper

    def self_times_ns(self) -> Counter:
        """Self time per span name: duration minus the time covered by children."""
        child = Counter()
        for _sid, parent, _op, _name, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = Counter()
        for sid, _parent, _op, name, start, end in self.spans:
            out[name] += end - start - child[sid]
        return out

    def dump(self, path: str) -> None:
        keys = ("id", "parent", "op", "name", "start_ns", "end_ns")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": [dict(zip(keys, s)) for s in self.spans]}, fh)


def counter_targets():
    """The cross-module names the traced run counts, as (owner, attr, label)."""
    from nilmag import algebra, h3_type2

    return [
        (algebra.MetricNilAlgebra, "bracket", "algebra.bracket"),
        (algebra.MetricNilAlgebra, "geodesic_term", "algebra.geodesic_term"),
        (h3_type2, "jacobi", "specfun.jacobi"),
        (h3_type2, "quad", "h3_type2.quad"),
    ]
