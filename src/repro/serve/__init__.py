"""``repro.serve`` — batched, cached, observable query serving.

The online counterpart of the training stack: a request queue whose
worker threads pull micro-batches — concurrent ``answer()`` calls that
arrive while the workers are busy coalesce into one
compiled plan (``repro.plan``, plain numpy) and one filter-and-refine
top-k (``repro.dist`` scorer) per branch count — a multi-tier cache keyed on
canonicalised computation graphs, deadlines checked at dequeue, bounded
retries, graceful degradation to the exact symbolic answer over the
loaded graph when a request overruns its deadline or exhausts its
retries, and a metrics layer surfacing throughput, latency
percentiles, and cache hit rates.
"""

from ..obs.metrics import (Counter, Gauge, Histogram, HistogramStats,
                           MetricsRegistry, StatsSnapshot, format_snapshot,
                           metric_key, parse_metric_key, snapshot_from_json,
                           snapshot_to_json)
from .batcher import (PRIORITIES, FairScheduler, Lane, MicroBatcher,
                      ServeFuture, ServeRequest, ShedError)
from .cache import LruCache, TtlCache
from .canonical import batch_key, cache_key, canonicalize, serialize
from .http import TelemetryHTTPServer, render_prometheus
from .runtime import ServeConfig, ServeError, ServeResult, ServeRuntime

__all__ = [
    "ServeRuntime", "ServeConfig", "ServeResult", "ServeError",
    "MicroBatcher", "ServeFuture", "ServeRequest", "ShedError",
    "FairScheduler", "Lane", "PRIORITIES",
    "LruCache", "TtlCache",
    "canonicalize", "serialize", "cache_key", "batch_key",
    "Counter", "Gauge", "Histogram", "HistogramStats",
    "MetricsRegistry", "StatsSnapshot",
    "format_snapshot", "metric_key", "parse_metric_key",
    "snapshot_from_json", "snapshot_to_json",
    "TelemetryHTTPServer", "render_prometheus",
]
