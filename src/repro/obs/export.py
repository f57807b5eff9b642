"""Trace and event exporters.

Two formats:

* **Chrome trace-event JSON** (:func:`chrome_trace_events`,
  :func:`write_chrome_trace`) — open the file at ``chrome://tracing`` or
  https://ui.perfetto.dev to see the span tree on a timeline, one track
  per thread.
* **JSON Lines** (:class:`JsonlWriter`) — one event dict per line;
  machine-readable log shared by the tracer export and the training
  telemetry callbacks.

:func:`format_span_tree` renders finished spans as an indented ASCII
tree (the ``cli trace`` terminal output).
"""

from __future__ import annotations

import json
import threading
from typing import IO, Iterable

from .trace import Span

__all__ = [
    "chrome_trace_events", "write_chrome_trace", "span_to_dict",
    "JsonlWriter", "format_span_tree",
]


def span_to_dict(span: Span) -> dict:
    """Plain-dict form of one span (the JSONL trace record)."""
    return {
        "name": span.name,
        "span_id": span.span_id,
        "parent_id": span.parent_id,
        "start": span.start,
        "duration_ms": span.duration_ms,
        "thread": span.thread,
        "pid": span.pid,
        "attrs": dict(span.attrs),
    }


def chrome_trace_events(spans: Iterable[Span], pid: int = 1) -> list[dict]:
    """Convert spans to Chrome trace-event "complete" (ph=X) events.

    Timestamps are microseconds relative to the earliest span so the
    viewer's timeline starts at zero.  Each recording *process* becomes
    a pid group (the spans recorded for a shard worker's replies carry
    its pid, so every worker renders as its own swimlane) and each thread within
    it a separate track, labelled via metadata events.  Spans without a
    pid stamp fall back to the ``pid`` argument.
    """
    spans = [s for s in spans if s.end is not None]
    if not spans:
        return []
    origin = min(s.start for s in spans)
    parent_pid = min((s.pid for s in spans if s.pid), default=pid)
    tids: dict[tuple[int, str], int] = {}
    events: list[dict] = []
    for span in spans:
        span_pid = span.pid or pid
        tid = tids.setdefault((span_pid, span.thread), len(tids) + 1)
        args = {k: _jsonable(v) for k, v in span.attrs.items()}
        args["span_id"] = span.span_id
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        events.append({
            "name": span.name, "ph": "X", "cat": "repro",
            "ts": round(1e6 * (span.start - origin), 3),
            "dur": round(1e6 * span.duration, 3),
            "pid": span_pid, "tid": tid, "args": args,
        })
    for (span_pid, thread_name), tid in tids.items():
        events.append({
            "name": "thread_name", "ph": "M", "pid": span_pid, "tid": tid,
            "args": {"name": thread_name},
        })
    for span_pid in {p for p, _ in tids}:
        label = "parent" if span_pid in (parent_pid, pid) \
            else f"shard-worker {span_pid}"
        events.append({
            "name": "process_name", "ph": "M", "pid": span_pid, "tid": 0,
            "args": {"name": f"{label} (pid {span_pid})"},
        })
    return events


def write_chrome_trace(path, spans: Iterable[Span]) -> int:
    """Write spans as a Chrome trace file; returns the event count."""
    events = chrome_trace_events(spans)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
    return len(events)


def _jsonable(value):
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


class JsonlWriter:
    """Thread-safe JSON-Lines event log (one dict per line, flushed)."""

    def __init__(self, path_or_handle):
        if hasattr(path_or_handle, "write"):
            self._handle: IO[str] = path_or_handle
            self._owns = False
        else:
            self._handle = open(path_or_handle, "w", encoding="utf-8")
            self._owns = True
        self._lock = threading.Lock()
        self.count = 0

    def write(self, event: dict) -> None:
        line = json.dumps(event, default=_jsonable)
        with self._lock:
            self._handle.write(line + "\n")
            self._handle.flush()
            self.count += 1

    def close(self) -> None:
        with self._lock:
            if self._owns and not self._handle.closed:
                self._handle.close()

    def __enter__(self) -> "JsonlWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def format_span_tree(spans: Iterable[Span]) -> str:
    """ASCII rendering of finished spans as indented trees.

    Orphan spans (parent not in the given set, e.g. dropped by the ring
    buffer) are promoted to roots rather than lost.
    """
    spans = [s for s in spans if s.end is not None]
    by_id = {s.span_id: s for s in spans}
    children: dict[int | None, list[Span]] = {}
    for span in spans:
        parent = span.parent_id if span.parent_id in by_id else None
        children.setdefault(parent, []).append(span)
    for siblings in children.values():
        siblings.sort(key=lambda s: s.start)

    lines: list[str] = []

    def walk(span: Span, depth: int) -> None:
        attrs = " ".join(f"{k}={v}" for k, v in span.attrs.items())
        note = f"  [{attrs}]" if attrs else ""
        lines.append(f"{'  ' * depth}{span.name:<{max(1, 28 - 2 * depth)}} "
                     f"{span.duration_ms:>9.3f} ms{note}")
        for child in children.get(span.span_id, []):
            walk(child, depth + 1)

    for root in children.get(None, []):
        walk(root, 0)
    return "\n".join(lines)
