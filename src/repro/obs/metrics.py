"""The canonical metrics layer: counters, gauges, histograms, snapshots.

It lives with the observability layer, not under ``repro.serve``, so
that *every* process in the system — the serving runtime, shard
workers, the trainer — shares one metric vocabulary.

Two capabilities beyond the original serve-local registry:

* **Labels** — ``registry.counter("rank_requests", shard=3)`` keys the
  metric by ``(name, labels)``; snapshots and renderings show it as
  ``rank_requests{shard=3}``.  Labelled and plain metrics with the same
  base name coexist (they are distinct time series, as in Prometheus).
* **Handles** — :meth:`MetricsRegistry.handles` resolves a hot path's
  labelled metrics once, so a per-request update costs one dict read
  instead of rendering a key.

A registry lives in the process that owns it.  Shard workers hold none:
the pool's owner records their series (``rank_requests{shard=k}``, ...)
from what each accepted reply says it measured (``repro.dist.pool``), so
every series has one writer and nothing crosses a process boundary but
the reply itself.

A process-wide default registry (:func:`get_registry` /
:func:`set_registry`) mirrors the tracer's pattern.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .trace import SpanStats

__all__ = [
    "Counter", "Gauge", "Histogram", "HistogramStats", "StatsSnapshot",
    "MetricsRegistry",
    "format_snapshot", "metric_key", "parse_metric_key",
    "snapshot_to_json", "snapshot_from_json",
    "get_registry", "set_registry",
]


#: characters that collide with the key grammar when they appear inside
#: a label value (tenant names, query-structure keys like ``i(p(e),p(e))``)
_KEY_SPECIALS = "\\,={}"


def _escape_label_value(value: str) -> str:
    for ch in _KEY_SPECIALS:
        value = value.replace(ch, "\\" + ch)
    return value


def _split_unescaped(text: str, sep: str) -> list[str]:
    """Split on ``sep`` occurrences not preceded by an odd run of ``\\``."""
    parts: list[str] = []
    current: list[str] = []
    escaped = False
    for ch in text:
        if escaped:
            current.append(ch)
            escaped = False
        elif ch == "\\":
            current.append(ch)
            escaped = True
        elif ch == sep:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    parts.append("".join(current))
    return parts


def _unescape_label_value(value: str) -> str:
    out: list[str] = []
    escaped = False
    for ch in value:
        if escaped:
            out.append(ch)
            escaped = False
        elif ch == "\\":
            escaped = True
        else:
            out.append(ch)
    return "".join(out)


def metric_key(name: str, labels: dict | None = None) -> str:
    """Canonical string key of a metric: ``name`` or ``name{k=v,...}``.

    Labels are sorted so the same label set always renders (and hashes)
    identically regardless of keyword order at the call site.  Label
    *values* containing the grammar characters ``, = { }`` (or ``\\``)
    are backslash-escaped so :func:`parse_metric_key` round-trips them
    exactly — ``tenant="a=b,c"`` stays one label, not two.
    """
    if not labels:
        return name
    inner = ",".join(f"{k}={_escape_label_value(str(labels[k]))}"
                     for k in sorted(labels))
    return f"{name}{{{inner}}}"


def parse_metric_key(key: str) -> tuple[str, dict[str, str]]:
    """Inverse of :func:`metric_key`: ``(base name, labels dict)``."""
    if not key.endswith("}") or "{" not in key:
        return key, {}
    name, _, inner = key.partition("{")
    labels: dict[str, str] = {}
    for part in _split_unescaped(inner[:-1], ","):
        if part:
            k, _, v = part.partition("=")
            labels[k] = _unescape_label_value(v)
    return name, labels


class Counter:
    """Monotonically increasing counter."""

    def __init__(self):
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counters are monotonic; cannot inc by "
                             f"{amount}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        with self._lock:
            return self._value


class Gauge:
    """Point-in-time value (queue depth, pool occupancy, ...)."""

    def __init__(self):
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def add(self, delta: float) -> None:
        with self._lock:
            self._value += float(delta)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


@dataclass(frozen=True)
class HistogramStats:
    """Summary of one histogram at snapshot time."""

    count: int
    mean: float
    p50: float
    p95: float
    p99: float
    max: float
    #: non-finite observations rejected at observe() time
    dropped: int = 0
    #: sliding-window capacity the percentiles were computed over — a
    #: windowed p99 must never be mistaken for a lifetime percentile
    window: int = 0


class Histogram:
    """Sliding-window histogram with percentile summaries.

    Keeps the last ``window`` observations (deque, O(1) insert); the
    percentiles therefore describe *recent* behaviour, which is what a
    serving dashboard wants, at bounded memory.

    Non-finite observations (a NaN latency from a poisoned clock delta)
    are rejected at :meth:`observe` time and counted in :attr:`dropped`
    — they never enter the window, so no downstream consumer has to
    filter them.
    """

    #: exemplar pairs kept per histogram (bounded like the window)
    EXEMPLAR_CAPACITY = 256

    def __init__(self, window: int = 2048):
        self._lock = threading.Lock()
        self._samples: deque[float] = deque(maxlen=window)
        self._count = 0
        self._dropped = 0
        # (value, exemplar) pairs — request ids attached at observe time
        self._exemplars: deque[tuple[float, str]] = deque(
            maxlen=self.EXEMPLAR_CAPACITY)

    def observe(self, value: float, exemplar: str | None = None) -> None:
        self.observe_many((value,), None if exemplar is None
                          else (exemplar,))

    def observe_many(self, values, exemplars=None) -> None:
        """:meth:`observe` of each value (with ``exemplars[i]``, when
        given) under one lock hold."""
        values = [float(value) for value in values]
        with self._lock:
            for index, value in enumerate(values):
                if not math.isfinite(value):
                    self._dropped += 1
                    continue
                self._samples.append(value)
                self._count += 1
                if exemplars is not None:
                    self._exemplars.append((value, exemplars[index]))

    def exemplars(self, min_value: float | None = None
                  ) -> list[tuple[float, str]]:
        """Recent ``(value, exemplar)`` pairs, oldest first.

        ``min_value`` filters to samples at/above a threshold — pass the
        current p99 to get the ids living in the p99 bucket, which is
        how ``/debug/slo`` links a burn-rate alert to flight-recorder
        entries and retained traces.
        """
        with self._lock:
            pairs = list(self._exemplars)
        if min_value is None:
            return pairs
        return [(v, e) for v, e in pairs if v >= min_value]

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def dropped(self) -> int:
        """Observations rejected as non-finite."""
        with self._lock:
            return self._dropped

    def reset(self) -> None:
        """Drop all samples and the lifetime count (fresh histogram)."""
        with self._lock:
            self._samples.clear()
            self._count = 0
            self._dropped = 0
            self._exemplars.clear()

    def stats(self) -> HistogramStats:
        with self._lock:
            samples = np.array(self._samples, dtype=np.float64)
            count = self._count
            dropped = self._dropped
            window = self._samples.maxlen or 0
        if samples.size == 0:
            return HistogramStats(count, 0.0, 0.0, 0.0, 0.0, 0.0, dropped,
                                  window)
        p50, p95, p99 = np.percentile(samples, (50, 95, 99))
        return HistogramStats(count, float(samples.mean()), float(p50),
                              float(p95), float(p99), float(samples.max()),
                              dropped, window)


@dataclass
class StatsSnapshot:
    """Plain-data view of a registry at one instant.

    Labelled metrics appear under their rendered key
    (``rank_requests{shard=3}``); :func:`parse_metric_key` recovers the
    structure where needed (the Prometheus renderer, grouped ASCII
    output).
    """

    counters: dict[str, int] = field(default_factory=dict)
    gauges: dict[str, float] = field(default_factory=dict)
    histograms: dict[str, HistogramStats] = field(default_factory=dict)
    #: per-stage span timings (from a repro.obs tracer), e.g.
    #: ``{"serve.embed": SpanStats(...), "serve.rank": ...}``
    stages: dict[str, SpanStats] = field(default_factory=dict)

    @property
    def model_version(self) -> int:
        """Serving model generation (bumped by ``ServeRuntime.reload``)."""
        return int(self.gauges.get("model_version", 0))

    def hit_rate(self, cache: str) -> float:
        """Hit fraction of ``<cache>_hits`` / ``<cache>_misses`` counters."""
        hits = self.counters.get(f"{cache}_hits", 0)
        misses = self.counters.get(f"{cache}_misses", 0)
        total = hits + misses
        return hits / total if total else 0.0


class MetricsRegistry:
    """Named metric factory; the single source of truth for snapshots."""

    def __init__(self, histogram_window: int = 2048):
        self._lock = threading.Lock()
        self._window = histogram_window
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._handles: dict = {}

    def counter(self, name: str, **labels) -> Counter:
        return self._metric(self._counters, name, labels, Counter)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._metric(self._gauges, name, labels, Gauge)

    def histogram(self, name: str, **labels) -> Histogram:
        return self._metric(self._histograms, name, labels,
                            self._new_histogram)

    def _new_histogram(self) -> Histogram:
        return Histogram(self._window)

    def _metric(self, table: dict, name: str, labels: dict, make):
        """Look up, and only on a miss construct under the lock.  A
        labelled lookup still renders its key every time — a caller on a
        per-request path keeps the handle (see :meth:`handles`)."""
        key = metric_key(name, labels)
        metric = table.get(key)
        if metric is None:
            with self._lock:
                metric = table.setdefault(key, make())
        return metric

    def handles(self, shape, resolve):
        """``resolve(self)``, run once per ``shape`` and remembered.

        For a hot path whose label values vary with its input (a plan
        stage's kind and depth): ``shape`` is any hashable naming the
        caller and those values, ``resolve`` looks the metrics up, and
        every later call costs one dict read.  Two threads racing on a
        first call both resolve — to the same metric objects.
        """
        found = self._handles.get(shape)
        if found is None:
            found = self._handles.setdefault(shape, resolve(self))
        return found

    def snapshot(self) -> StatsSnapshot:
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
        counter_values = {key: c.value for key, c in counters.items()}
        histogram_stats = {key: h.stats() for key, h in histograms.items()}
        # surface observe()-time drops as a labelled counter so a NaN
        # source is visible on a dashboard, not just silently discarded
        for key, stats in histogram_stats.items():
            if stats.dropped:
                base, labels = parse_metric_key(key)
                drop_key = metric_key("dropped_samples",
                                      dict(labels, histogram=base))
                counter_values[drop_key] = stats.dropped
        return StatsSnapshot(
            counters=counter_values,
            gauges={key: g.value for key, g in gauges.items()},
            histograms=histogram_stats,
        )


# ----------------------------------------------------------------------
# rendering / JSON round-trip
# ----------------------------------------------------------------------

def _group_by_base(keys) -> list[str]:
    """Sort rendered keys by (base name, labels) so labelled series of
    one metric stay adjacent under their plain sibling."""
    def sort_key(key: str):
        base, labels = parse_metric_key(key)
        return base, sorted(labels.items())
    return sorted(keys, key=sort_key)


def format_snapshot(snapshot: StatsSnapshot, title: str = "serve stats") -> str:
    """Human-readable rendering (the ``cli serve --stats`` output)."""
    lines = [f"== {title} =="]
    if snapshot.model_version:
        lines.append(f"model version: {snapshot.model_version}")
    if snapshot.counters:
        lines.append("counters:")
        for name in _group_by_base(snapshot.counters):
            lines.append(f"  {name:<28} {snapshot.counters[name]:>10d}")
    for cache in ("answer_cache", "embedding_cache"):
        if (f"{cache}_hits" in snapshot.counters
                or f"{cache}_misses" in snapshot.counters):
            lines.append(f"  {cache + '_hit_rate':<28} "
                         f"{100.0 * snapshot.hit_rate(cache):>9.1f}%")
    if snapshot.gauges:
        lines.append("gauges:")
        for name in _group_by_base(snapshot.gauges):
            lines.append(f"  {name:<28} {snapshot.gauges[name]:>10.1f}")
    if snapshot.histograms:
        lines.append("histograms:")
        for name in _group_by_base(snapshot.histograms):
            h = snapshot.histograms[name]
            if h.count == 0 or not np.isfinite(
                    (h.mean, h.p50, h.p95, h.p99, h.max)).all():
                lines.append(f"  {name:<16} count={h.count:<7d} "
                             f"(no samples)")
                continue
            lines.append(
                f"  {name:<16} count={h.count:<7d} mean={h.mean:>8.3f} "
                f"p50={h.p50:>8.3f} p95={h.p95:>8.3f} p99={h.p99:>8.3f} "
                f"max={h.max:>8.3f}")
    if snapshot.stages:
        lines.append("stages (span timings, ms):")
        for name in sorted(snapshot.stages):
            s = snapshot.stages[name]
            lines.append(
                f"  {name:<20} count={s.count:<7d} mean={s.mean_ms:>8.3f} "
                f"total={s.total_ms:>10.1f} max={s.max_ms:>8.3f}")
    return "\n".join(lines)


def snapshot_to_json(snapshot: StatsSnapshot) -> dict:
    """JSON-safe dict of a snapshot (the ``/statusz`` payload)."""
    return {
        "counters": dict(snapshot.counters),
        "gauges": dict(snapshot.gauges),
        "histograms": {
            key: {"count": h.count, "mean": h.mean, "p50": h.p50,
                  "p95": h.p95, "p99": h.p99, "max": h.max,
                  "dropped": h.dropped, "window": h.window}
            for key, h in snapshot.histograms.items()},
        "stages": {
            key: {"count": s.count, "total_ms": s.total_ms,
                  "mean_ms": s.mean_ms, "max_ms": s.max_ms}
            for key, s in snapshot.stages.items()},
    }


def snapshot_from_json(payload: dict) -> StatsSnapshot:
    """Rebuild a snapshot from :func:`snapshot_to_json` output
    (``cli get stats`` renders a remote ``/statusz`` this way)."""
    return StatsSnapshot(
        counters={k: int(v) for k, v in payload.get("counters", {}).items()},
        gauges={k: float(v) for k, v in payload.get("gauges", {}).items()},
        histograms={
            key: HistogramStats(
                count=int(h.get("count", 0)), mean=float(h.get("mean", 0.0)),
                p50=float(h.get("p50", 0.0)), p95=float(h.get("p95", 0.0)),
                p99=float(h.get("p99", 0.0)), max=float(h.get("max", 0.0)),
                dropped=int(h.get("dropped", 0)),
                window=int(h.get("window", 0)))
            for key, h in payload.get("histograms", {}).items()},
        stages={
            key: SpanStats(
                count=int(s.get("count", 0)),
                total_ms=float(s.get("total_ms", 0.0)),
                mean_ms=float(s.get("mean_ms", 0.0)),
                max_ms=float(s.get("max_ms", 0.0)))
            for key, s in payload.get("stages", {}).items()},
    )


# ----------------------------------------------------------------------
# process-wide default registry (mirrors trace.get_tracer/set_tracer)
# ----------------------------------------------------------------------

_DEFAULT = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return _DEFAULT


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the default registry (returns the previous one)."""
    global _DEFAULT
    previous = _DEFAULT
    _DEFAULT = registry
    return previous
