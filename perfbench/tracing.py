"""In-memory spans around the benchmark's calls into the program.

Spans are recorded only by the benchmark's own code, around each call it
makes into a layer's public function; nothing inside ``src/`` is
touched.  A span holds its name, start, end, parent span, and the id of
the operation it belongs to, so every span of one model, sweep or
request can be grouped.  Spans stay in memory until :meth:`Tracer.dump`
writes them out at the end of the run.

The untraced runs use :data:`OFF`, whose ``span`` is a shared no-op
context manager, so the end-to-end figures pay no recording cost.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path


class _NoSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NO_SPAN = _NoSpan()


class NullTracer:
    """Tracing off: every span is the same no-op context manager."""

    enabled = False

    def span(self, name: str):
        return _NO_SPAN

    def operation(self, name: str):
        return _NO_SPAN

    def add(self, counter: str, amount: int = 1) -> None:
        pass


OFF = NullTracer()


class Tracer:
    """Records spans; see the module docstring."""

    enabled = True

    def __init__(self) -> None:
        # (span id, parent id, operation id, name, start, end)
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self._ids = itertools.count(1)
        self._ops = itertools.count(1)
        # Each client thread keeps its own stack of open spans and its
        # own current operation; appends to ``spans`` are atomic.
        self._local = threading.local()
        #: Counts recorded at the same boundaries as the spans.
        self.counters: dict[str, int] = defaultdict(int)

    def add(self, counter: str, amount: int = 1) -> None:
        self.counters[counter] += amount

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack, local.op = [], 0
        return local

    @contextmanager
    def span(self, name: str):
        local = self._state()
        span_id = next(self._ids)
        parent = local.stack[-1] if local.stack else 0
        local.stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            local.stack.pop()
            self.spans.append((span_id, parent, local.op, name, start,
                               end))

    @contextmanager
    def operation(self, name: str):
        """A span that also opens a new operation id for its subtree."""
        local = self._state()
        outer = local.op
        local.op = next(self._ops)
        try:
            with self.span(name):
                yield
        finally:
            local.op = outer

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """span id → duration minus the time its direct children cover."""
        child_time: dict[int, float] = defaultdict(float)
        for _, parent, _, _, start, end in self.spans:
            if parent:
                child_time[parent] += end - start
        return {span_id: (end - start) - child_time[span_id]
                for span_id, _, _, _, start, end in self.spans}

    def durations(self, name: str) -> list[float]:
        """Wall seconds of every span called ``name``, in end order."""
        return [end - start for _, _, _, span_name, start, end
                in self.spans if span_name == name]

    def per_operation(self, name: str, op_name: str) -> list[float]:
        """Summed wall seconds of ``name`` spans per ``op_name`` operation."""
        op_ids = {op for _, _, op, span_name, _, _ in self.spans
                  if span_name == op_name}
        totals: dict[int, float] = defaultdict(float)
        for _, _, op, span_name, start, end in self.spans:
            if span_name == name and op in op_ids:
                totals[op] += end - start
        return [totals[op] for op in sorted(op_ids)]

    def summary(self) -> dict[str, dict]:
        """Per span name: count, total and self seconds."""
        selfs = self.self_times()
        table: dict[str, dict] = {}
        for span_id, _, _, name, start, end in self.spans:
            row = table.setdefault(name, {"count": 0, "total_s": 0.0,
                                          "self_s": 0.0})
            row["count"] += 1
            row["total_s"] += end - start
            row["self_s"] += selfs[span_id]
        return dict(sorted(table.items()))

    def dump(self, path: Path) -> Path:
        """Write the spans and their summary as JSON to ``path``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = min((s[4] for s in self.spans), default=0.0)
        payload = {
            "summary": self.summary(),
            "spans": [{"id": span_id, "parent": parent, "op": op,
                       "name": name, "start_s": start - origin,
                       "end_s": end - origin}
                      for span_id, parent, op, name, start, end
                      in self.spans],
        }
        path.write_text(json.dumps(payload, indent=1) + "\n",
                        encoding="utf-8")
        return path
