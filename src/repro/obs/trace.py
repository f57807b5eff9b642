"""Hierarchical, thread-safe tracing.

A :class:`Tracer` records a tree of timed :class:`Span` objects.  Within
one thread, spans nest automatically through a thread-local stack::

    with tracer.span("embed", structure=sig):
        with tracer.span("gather"):
            ...

Work timed elsewhere is recorded as pre-timed intervals with
:meth:`Tracer.record` (the shard plane records each worker's reply
this way).  A served request's own tree is not written here while it
runs: its :class:`~repro.obs.diag.RequestContext` keeps the stage
stamps, and at completion renders them as spans with ids from
:meth:`Tracer.new_id` and hands them to :meth:`Tracer.add`.

Everything is guarded by the module-level enabled flag (:func:`enable` /
:func:`disable`): while disabled, :meth:`Tracer.span` returns a shared
no-op context manager and :meth:`Tracer.record` returns None, so
instrumented code paths cost one global read and a function call.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field

__all__ = [
    "Span", "SpanStats", "Tracer", "enable", "disable", "is_enabled",
    "enabled", "get_tracer", "set_tracer",
]

# Module-level switch: instrumentation throughout the stack checks this
# once per call and short-circuits to a no-op when False.
_ENABLED = False


def enable() -> None:
    """Turn tracing on globally."""
    global _ENABLED
    _ENABLED = True


def disable() -> None:
    """Turn tracing off globally (instrumentation becomes near-no-op)."""
    global _ENABLED
    _ENABLED = False


def is_enabled() -> bool:
    """Whether tracing is currently enabled."""
    return _ENABLED


@contextmanager
def enabled(flag: bool = True):
    """Scoped enable/disable: ``with obs.enabled(): ...``."""
    global _ENABLED
    previous = _ENABLED
    _ENABLED = flag
    try:
        yield
    finally:
        _ENABLED = previous


@dataclass
class Span:
    """One timed interval in a trace tree.

    ``pid`` identifies the process whose work the span times: a span
    recorded for a shard worker's reply carries that worker's pid, which
    is what gives each worker its own swimlane in the Chrome trace
    export.  Timestamps come from ``time.perf_counter`` (CLOCK_MONOTONIC
    on Linux, shared across processes), so an interval a worker measured
    sits on the owner's timeline as it stands.
    """

    name: str
    start: float
    end: float | None = None
    span_id: int = 0
    parent_id: int | None = None
    thread: str = ""
    attrs: dict = field(default_factory=dict)
    pid: int = 0

    @property
    def duration(self) -> float:
        """Elapsed seconds (0.0 while still open)."""
        return 0.0 if self.end is None else self.end - self.start

    @property
    def duration_ms(self) -> float:
        return 1000.0 * self.duration


@dataclass(frozen=True)
class SpanStats:
    """Aggregate of all finished spans sharing one name (a "stage")."""

    count: int
    total_ms: float
    mean_ms: float
    max_ms: float


class _NullContext:
    """Shared do-nothing context manager for the disabled fast path."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc_info):
        return False


_NULL_CONTEXT = _NullContext()


class _SpanContext:
    """Context manager that opens a span on enter, finishes it on exit."""

    __slots__ = ("_tracer", "_name", "_attrs", "_span")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict):
        self._tracer = tracer
        self._name = name
        self._attrs = attrs
        self._span: Span | None = None

    def __enter__(self) -> Span:
        self._span = self._tracer._open(self._name, self._attrs)
        return self._span

    def __exit__(self, *exc_info) -> bool:
        self._tracer._close(self._span)
        return False


class Tracer:
    """Collects span trees; thread-safe, bounded memory.

    Parameters
    ----------
    clock:
        Monotonic time source (injectable for tests).
    max_spans:
        Finished spans are kept in a ring buffer of this size; stage
        statistics (:meth:`stage_stats`) aggregate over the whole
        lifetime regardless.
    """

    def __init__(self, clock=time.perf_counter, max_spans: int = 65536):
        self._clock = clock
        self._lock = threading.Lock()
        self._finished: deque[Span] = deque(maxlen=max_spans)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._totals: dict[str, list[float]] = {}  # name -> [count, total, max]
        self._pid = os.getpid()

    # ------------------------------------------------------------------
    # span lifecycle
    # ------------------------------------------------------------------
    def span(self, name: str, **attrs) -> "_SpanContext | _NullContext":
        """Context manager timing one stage, nested under the current span."""
        if not _ENABLED:
            return _NULL_CONTEXT
        return _SpanContext(self, name, attrs)

    def record(self, name: str, start: float, end: float,
               parent: Span | None = None, pid: int | None = None,
               **attrs) -> Span | None:
        """Record a pre-timed interval.  ``pid`` names the process that
        did the work when it is not this one (a shard worker whose reply
        carried the interval)."""
        if not _ENABLED:
            return None
        span = Span(name=name, start=start, end=end,
                    span_id=next(self._ids),
                    parent_id=None if parent is None else parent.span_id,
                    thread=threading.current_thread().name, attrs=dict(attrs),
                    pid=self._pid if pid is None else pid)
        self.add((span,))
        return span

    def new_id(self) -> int:
        """A fresh span id from this tracer's counter."""
        return next(self._ids)

    def add(self, spans) -> None:
        """Put finished spans built elsewhere (a request's rendered
        record) in the ring and the stage totals, under one lock hold."""
        with self._lock:
            for span in spans:
                self._finished.append(span)
                duration = span.duration
                entry = self._totals.get(span.name)
                if entry is None:
                    self._totals[span.name] = [1, duration, duration]
                else:
                    entry[0] += 1
                    entry[1] += duration
                    entry[2] = max(entry[2], duration)

    def current(self) -> Span | None:
        """The innermost active span on this thread, if any."""
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else None

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def finished(self) -> list[Span]:
        """Snapshot of finished spans, oldest first."""
        with self._lock:
            return list(self._finished)

    def stage_stats(self) -> dict[str, SpanStats]:
        """Lifetime per-stage aggregates, keyed by span name."""
        with self._lock:
            return {name: SpanStats(int(count), 1000.0 * total,
                                    1000.0 * total / count if count else 0.0,
                                    1000.0 * peak)
                    for name, (count, total, peak)
                    in sorted(self._totals.items())}

    def reset(self) -> None:
        """Drop finished spans and aggregates (active spans unaffected)."""
        with self._lock:
            self._finished.clear()
            self._totals.clear()

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, attrs: dict) -> Span:
        parent = self.current()
        span = Span(name=name, start=self._clock(),
                    span_id=next(self._ids),
                    parent_id=None if parent is None else parent.span_id,
                    thread=threading.current_thread().name, attrs=attrs,
                    pid=self._pid)
        self._stack().append(span)
        return span

    def _close(self, span: Span | None) -> None:
        if span is None:
            return
        span.end = self._clock()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:  # unbalanced exit: drop down to it
            while stack and stack.pop() is not span:
                pass
        self.add((span,))


# The process-wide default tracer used by the instrumented layers
# (serve runtime, SPARQL engine, model inference, trainer).
_DEFAULT = Tracer()


def get_tracer() -> Tracer:
    """The process-wide default tracer."""
    return _DEFAULT


def set_tracer(tracer: Tracer) -> Tracer:
    """Swap the default tracer (returns the previous one)."""
    global _DEFAULT
    previous = _DEFAULT
    _DEFAULT = tracer
    return previous
