"""The benchmark's own spans, recorded around calls into each layer.

Spans live in memory until the run ends and are written as NDJSON then
(name, start, end, parent, workload id).  The end-to-end pass runs with
the recorder disabled: ``span()`` then returns one shared no-op context
manager and reads no clock.  Nesting is per thread; a span opened on
another thread names its parent explicitly (``parent=``).
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Span:
    span_id: int
    name: str
    parent: int | None
    workload: str
    start: float = 0.0
    end: float = 0.0
    attributes: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return max(self.end - self.start, 0.0)

    def record(self) -> dict:
        return {
            "record": "span", "id": self.span_id, "name": self.name,
            "start": self.start, "end": self.end, "parent": self.parent,
            "workload": self.workload, **self.attributes,
        }


class _NoSpan:
    span_id = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False


_NO_SPAN = _NoSpan()


class _OpenSpan:
    def __init__(self, recorder: "SpanRecorder", span: Span):
        self._recorder = recorder
        self._span = span
        self.span_id = span.span_id

    def __enter__(self):
        self._recorder._stack().append(self._span.span_id)
        self._span.start = self._recorder.clock()
        return self

    def __exit__(self, *exc_info):
        self._span.end = self._recorder.clock()
        self._recorder._stack().pop()
        return False


class SpanRecorder:
    """Collects spans for one workload run; a disabled recorder is inert."""

    def __init__(self, workload: str, enabled: bool, clock=time.perf_counter):
        self.workload = workload
        self.enabled = enabled
        self.clock = clock
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, parent: int | None = None, **attributes):
        if not self.enabled:
            return _NO_SPAN
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        with self._lock:
            span = Span(len(self.spans), name, parent, self.workload,
                        attributes=attributes)
            self.spans.append(span)
        return _OpenSpan(self, span)

    def add(self, name: str, start: float, end: float,
            parent: int | None = None, **attributes) -> None:
        """Record a span whose interval was timed by the caller."""
        if not self.enabled:
            return
        with self._lock:
            self.spans.append(Span(len(self.spans), name, parent,
                                   self.workload, start, end, attributes))

    # -- aggregation ---------------------------------------------------

    def total(self, name: str, **match) -> float:
        """Summed duration of the spans called ``name`` whose attributes
        include ``match``."""
        return sum(span.duration for span in self.select(name, **match))

    def select(self, name: str, **match) -> list[Span]:
        return [
            span for span in self.spans
            if span.name == name
            and all(span.attributes.get(k) == v for k, v in match.items())
        ]

    def self_times(self) -> dict[str, float]:
        """Self time per span name (see :func:`self_time`)."""
        children: dict[int, list[Span]] = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent].append(span)
        totals: dict[str, float] = defaultdict(float)
        for span in self.spans:
            totals[span.name] += self_time(span, children[span.span_id])
        return dict(totals)

    def write_ndjson(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.record(), sort_keys=True) + "\n")


def self_time(span: Span, children: list[Span]) -> float:
    """``span``'s duration minus the part of it its children cover.

    Children may overlap each other (two client threads under one phase
    span), so the covered part is the length of the *union* of their
    intervals clipped to the parent, never their summed durations.
    """
    covered = 0.0
    reach = span.start
    for child in sorted(children, key=lambda c: c.start):
        start = max(child.start, reach)
        end = min(child.end, span.end)
        if end > start:
            covered += end - start
            reach = end
    return max(span.duration - covered, 0.0)
