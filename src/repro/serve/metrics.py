"""Back-compat shim: the metrics layer moved to :mod:`repro.obs.metrics`.

The registry became cross-process infrastructure (shard workers flush
deltas into the parent registry; the HTTP exposition renders it), so it
now lives with the rest of the observability layer.  Every name that
used to be importable from here still is.
"""

from ..obs.metrics import (Counter, Gauge, Histogram, HistogramStats,
                           MetricsDelta, MetricsRegistry,
                           StatsSnapshot, format_snapshot, metric_key,
                           parse_metric_key, snapshot_from_json,
                           snapshot_to_json)

__all__ = [
    "Counter", "Gauge", "Histogram", "HistogramStats", "StatsSnapshot",
    "MetricsRegistry", "MetricsDelta",
    "format_snapshot", "metric_key", "parse_metric_key",
    "snapshot_to_json", "snapshot_from_json",
]
