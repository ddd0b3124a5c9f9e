"""Spans, oracle checks and deterministic counts for one benchmark child.

A span is recorded around each call the benchmark makes into a layer of
the package (name, start, end, parent span, item id).  Spans are kept in
memory and written out when the child ends.  With tracing off, `call`
runs the function directly, so the untraced run makes the same calls
without the bookkeeping.
"""

from __future__ import annotations

import contextlib
import json
import time
import traceback


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[tuple] = []  # (id, name, start, end, parent, item)
        self._stack: list[int] = []
        self._item = None

    @contextlib.contextmanager
    def span(self, name: str, item=None):
        """Span around a stretch of benchmark code (a phase or an item)."""
        if not self.enabled:
            yield
            return
        outer_item = self._item
        if item is not None:
            self._item = item
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (sid, name, start, end, parent, self._item)
            self._item = outer_item

    def call(self, name: str, fn, *args, **kwargs):
        """Call into a layer; `name` is '<module>.<stage>'."""
        if not self.enabled:
            return fn(*args, **kwargs)
        with self.span(name):
            return fn(*args, **kwargs)

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, minus the time of each span's children."""
        child_time = [0.0] * len(self.spans)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, float] = {}
        for sid, name, start, end, _, _ in self.spans:
            out[name] = out.get(name, 0.0) + (end - start) - child_time[sid]
        return out

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for sid, name, start, end, parent, item in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "item": item}) + "\n")


class Checker:
    """Oracle checks and exceptions, counted against operations attempted."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.counts: dict[str, float] = {}

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(what)

    def add(self, name: str, value=1) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    @contextlib.contextmanager
    def guard(self, what: str):
        """Count an exception in the block as one failed operation."""
        try:
            yield
        except Exception:  # the run goes on; the failure is reported
            self.attempted += 1
            self.failed += 1
            self.messages.append(f"{what}: {traceback.format_exc(limit=3)}")
