"""``repro.obs`` — tracing, profiling, and training telemetry.

The observability layer used by every tier of the stack:

* :mod:`repro.obs.trace` — hierarchical, thread-safe span tracing wired
  through the serve runtime, the SPARQL engine, and model inference;
* :mod:`repro.obs.profiler` — :class:`ModuleTimer`, the per-module
  forward timing hook behind the trainer's telemetry;
* :mod:`repro.obs.telemetry` — the trainer's callback/event API;
* :mod:`repro.obs.metrics` — the canonical metrics registry (counters,
  gauges, histograms; labels, resolved handles), written only by the
  process that owns it — the shard pool's owner records its workers'
  series from their replies;
* :mod:`repro.obs.export` — Chrome trace-event and JSON-Lines writers;
* :mod:`repro.obs.diag` — always-on production diagnostics: the
  per-request :class:`RequestContext` (one writer for the flight record,
  the stage stamps its span tree is rendered from at completion, and
  the histogram exemplar's id), flight recorder,
  tail-based trace sampling, SLO burn-rate monitoring;
* :mod:`repro.obs.prof` — the continuous sampling wall-clock profiler
  (budgeted overhead, cross-process folded stacks, speedscope export)
  and the profile-diff regression attribution tooling.

All tracing instrumentation is compiled down to near-no-ops unless the
module-level flag is switched on with :func:`enable` (or scoped with
``with obs.enabled(): ...``).  Nothing in this package rebinds a method
or module attribute of ``repro.nn`` at run time.
"""

from .diag import (DiagConfig, Diagnostics, FlightRecord, FlightRecorder,
                   RequestContext, SloEngine, SloObjective, TailSampler,
                   next_request_id)
from .export import (JsonlWriter, chrome_trace_events, format_span_tree,
                     span_to_dict, write_chrome_trace)
from .metrics import (Counter, Gauge, Histogram, HistogramStats,
                      MetricsRegistry, StatsSnapshot, format_snapshot,
                      get_registry, metric_key, parse_metric_key,
                      set_registry, snapshot_from_json, snapshot_to_json)
from .prof import (Profile, ProfileStore, SamplingProfiler, diff_plan_ops,
                   diff_profiles, estimate_nbytes, format_diff, format_top,
                   load_profile_payload, merge_profiles, process_rss_bytes,
                   self_time_shares, to_folded, to_speedscope,
                   window_profiles)
from .profiler import ModuleStat, ModuleTimer
from .telemetry import (CallbackList, ConsoleLogger, EpochStats,
                        JsonlTelemetry, TrainerCallback)
from .trace import (Span, SpanStats, Tracer, disable, enable, enabled,
                    get_tracer, is_enabled, set_tracer)

__all__ = [
    "Span", "SpanStats", "Tracer",
    "enable", "disable", "enabled", "is_enabled",
    "get_tracer", "set_tracer",
    "ModuleTimer", "ModuleStat",
    "TrainerCallback", "CallbackList", "ConsoleLogger", "JsonlTelemetry",
    "EpochStats",
    "JsonlWriter", "chrome_trace_events", "write_chrome_trace",
    "span_to_dict", "format_span_tree",
    "Counter", "Gauge", "Histogram", "HistogramStats",
    "MetricsRegistry", "StatsSnapshot",
    "format_snapshot", "metric_key", "parse_metric_key",
    "snapshot_to_json", "snapshot_from_json",
    "get_registry", "set_registry",
    "DiagConfig", "Diagnostics", "FlightRecord", "FlightRecorder",
    "RequestContext", "SloEngine", "SloObjective", "TailSampler",
    "next_request_id",
    "Profile", "ProfileStore", "SamplingProfiler",
    "merge_profiles", "window_profiles", "to_folded", "to_speedscope",
    "self_time_shares", "diff_profiles", "diff_plan_ops", "format_diff",
    "format_top", "load_profile_payload", "process_rss_bytes",
    "estimate_nbytes",
]
