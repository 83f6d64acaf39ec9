"""Lifecycle tracing: nested, timestamped spans plus worker counters.

The paper's thesis is *observation*, yet the reproduction's own
apparatus was a black box: one ``run_point`` trial walks eight phases
(allocate -> generate -> deploy -> verify -> simulate -> collect ->
analyze -> teardown) whose costs, retries and failure points were
invisible — which matters now that campaigns run trials in parallel.
This module is the observation plane for the observation testbed
itself (DiPerF's "the testing framework needs its own telemetry", and
Sage's "the observation infrastructure must itself be queryable").

A :class:`Tracer` produces nested :class:`Span` trees through a context
manager::

    tracer = Tracer()
    with tracer.span("trial", experiment="rubis-baseline") as trial:
        with tracer.span("allocate"):
            ...
    records = tracer.export(trial)      # flat SpanRecords, DFS order

Nesting is tracked per thread, so scheduler workers sharing one tracer
never interleave their span stacks; spans are exported per trial and
travel on the :class:`TrialResult`, so they survive the fork pool (a
forked worker's tracer state never has to cross back — the pickled
result carries the spans).

The default tracer everywhere is :data:`NULL_TRACER`, a no-op whose
spans cost two attribute lookups, so instrumented code never branches
on "is tracing on".
"""

from __future__ import annotations

import json
import math
import os
import re
import threading
import time
from dataclasses import dataclass, field
from typing import NamedTuple

#: Printable ASCII minus ``"`` and ``\`` — strings that JSON-encode as
#: themselves, needing no escape pass.
_PLAIN_JSON_STR = re.compile(r'^[ !#-\[\]-~]*$')

#: The eight lifecycle phases of one trial, in execution order.
TRIAL_PHASES = ("allocate", "generate", "deploy", "verify", "simulate",
                "collect", "analyze", "teardown")

#: Root span name for one trial.
TRIAL_SPAN = "trial"

OK = "ok"
ERROR = "error"


@dataclass
class Span:
    """One timed operation, possibly with children."""

    name: str
    start: float
    attributes: dict = field(default_factory=dict)
    children: list = field(default_factory=list)
    end: float = None
    status: str = OK

    @property
    def duration(self):
        return (self.end if self.end is not None else self.start) \
            - self.start

    def annotate(self, **attributes):
        self.attributes.update(attributes)


class SpanRecord(NamedTuple):
    """A flattened span, ready for the results database.

    ``span_id``/``parent_id`` number the trial's span tree in DFS
    preorder (the root is 1, its parent 0); ``start_s`` is an absolute
    monotonic-clock reading so spans from concurrent workers share one
    timeline.  A named tuple because every script execution of every
    trial flattens into one — frozen-dataclass construction was
    measurable across a campaign.
    """

    span_id: int
    parent_id: int
    name: str
    start_s: float
    duration_s: float
    status: str
    attributes: dict

    def attributes_json(self):
        """The attribute dict as canonical sorted-key JSON.

        Hand-assembled for the flat str/int/float/bool dicts every span
        carries (``json.dumps`` per span was a measurable slice of
        storing a campaign); anything fancier — nested values, strings
        needing escapes — falls back to the real encoder, whose output
        the fast path matches byte for byte.
        """
        parts = []
        for key in sorted(self.attributes):
            value = self.attributes[key]
            kind = type(value)
            if kind is str:
                if not _PLAIN_JSON_STR.match(value) \
                        or not _PLAIN_JSON_STR.match(key):
                    break
                parts.append(f'"{key}": "{value}"')
            elif kind is bool:
                parts.append(f'"{key}": {"true" if value else "false"}')
            elif kind is int or kind is float:
                if not _PLAIN_JSON_STR.match(key) \
                        or (kind is float and not math.isfinite(value)):
                    break
                parts.append(f'"{key}": {value!r}')
            else:
                break
        else:
            return "{" + ", ".join(parts) + "}"
        return json.dumps(self.attributes, sort_keys=True, default=str)


def flatten_span(root):
    """DFS-preorder :class:`SpanRecord` list for one span tree."""
    records = []

    def visit(span, parent_id):
        span_id = len(records) + 1
        # The record adopts the span's attribute dict rather than
        # copying it: flattening marks the end of the span's life, and
        # a campaign flattens one record per script execution.
        records.append(SpanRecord(
            span_id=span_id, parent_id=parent_id, name=span.name,
            start_s=span.start, duration_s=span.duration,
            status=span.status, attributes=span.attributes,
        ))
        for child in span.children:
            visit(child, span_id)

    visit(root, 0)
    return records


def merge_span_exports(exports):
    """Merge several flattened span trees into one record list.

    Retries give one trial several span trees (one per attempt); each
    tree numbers its spans 1..n from its own root, so concatenation
    re-bases every tree's ids past the previous ones.  Roots keep
    parent 0 — consumers see a forest, one root per attempt.  A single
    export passes through unchanged (ids and all), so the no-retry
    path stays byte-identical to pre-fault-plane traces.
    """
    exports = [list(records) for records in exports if records]
    if not exports:
        return []
    if len(exports) == 1:
        return exports[0]
    merged = []
    offset = 0
    for records in exports:
        for record in records:
            merged.append(SpanRecord(
                span_id=record.span_id + offset,
                parent_id=record.parent_id + offset
                if record.parent_id else 0,
                name=record.name, start_s=record.start_s,
                duration_s=record.duration_s, status=record.status,
                attributes=record.attributes,
            ))
        offset = len(merged)
    return merged


def worker_name():
    """This worker's identity for span attribution: ``pid/thread``."""
    return f"{os.getpid()}/{threading.current_thread().name}"


class _SpanContext:
    """Context manager that opens/closes one span on a tracer stack."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer, span):
        self._tracer = tracer
        self._span = span

    def __enter__(self):
        self._tracer._push(self._span)
        return self._span

    def __exit__(self, exc_type, _exc, _tb):
        span = self._span
        span.end = self._tracer._clock()
        if exc_type is not None:
            span.status = ERROR
            span.attributes.setdefault("error", exc_type.__name__)
        self._tracer._pop(span)
        return False


class Tracer:
    """Produces nested spans and thread-safe counters.

    One tracer instance is threaded through every layer of a run
    (runner, scheduler, deployment engine, shell interpreter,
    simulation, collector); sharing is safe because span nesting is
    per-thread and counters are lock-protected.
    """

    enabled = True

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self.counters = {}

    # -- spans ------------------------------------------------------------

    def span(self, name, **attributes):
        """Open a span named *name*; use as a context manager."""
        return _SpanContext(self, Span(name=name, start=self._clock(),
                                       attributes=attributes))

    def current(self):
        """The innermost open span on this thread, or None."""
        stack = self._stack()
        return stack[-1] if stack else None

    def annotate(self, **attributes):
        """Attach attributes to the innermost open span (if any)."""
        span = self.current()
        if span is not None:
            span.annotate(**attributes)

    def export(self, root):
        """Flatten a finished span tree into :class:`SpanRecord`\\ s."""
        return flatten_span(root)

    # -- counters ---------------------------------------------------------

    def count(self, name, n=1):
        """Increment counter *name* by *n* (negative to decrement)."""
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + n
            return self.counters[name]

    def counter(self, name):
        with self._lock:
            return self.counters.get(name, 0)

    # -- internals --------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _push(self, span):
        self._stack().append(span)

    def _pop(self, span):
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
            if stack:
                stack[-1].children.append(span)


class _NullSpanContext:
    """Shared no-op span context: the zero-overhead tracing-off path."""

    __slots__ = ()

    def __enter__(self):
        return _NULL_SPAN

    def __exit__(self, *_exc):
        return False


class _NullSpan:
    __slots__ = ()

    name = ""
    status = OK
    duration = 0.0

    def annotate(self, **_attributes):
        return None


_NULL_SPAN = _NullSpan()
_NULL_CONTEXT = _NullSpanContext()


class NullTracer:
    """A tracer that records nothing; every call is a cheap no-op."""

    enabled = False
    counters = {}

    def span(self, _name, **_attributes):
        return _NULL_CONTEXT

    def current(self):
        return None

    def annotate(self, **_attributes):
        return None

    def export(self, _root):
        return []

    def count(self, _name, n=1):
        return 0

    def counter(self, _name):
        return 0


NULL_TRACER = NullTracer()


def as_tracer(tracer):
    """Normalize a ``tracer=`` argument: None means the null tracer."""
    return NULL_TRACER if tracer is None else tracer
