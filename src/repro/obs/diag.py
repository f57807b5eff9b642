"""Production diagnostics: flight recorder, tail sampling, SLO burn rates.

The always-on layer that answers "what happened to *that* request?"
after the fact.  Three pieces, all bounded in memory and cheap enough to
leave on under full load:

* **Request context** — one :class:`RequestContext` per request, minted
  at the first door it passes (gateway admission, or
  ``ServeRuntime.submit`` when the gateway is off) and handed down by
  reference through the batcher, the runtime and the shard worker pool.
  It carries the monotonic, pid-stamped request id
  (:func:`next_request_id`, ``r<pid-hex>-<counter>``), the request's
  :class:`FlightRecord` and its stage stamps; every stage is timed once
  and written to both through :meth:`RequestContext.stage`.  Spans are
  a rendering of the stamps, made at completion.  The id is
  stamped on the shard worker spans the pool records and on histogram
  exemplars, and comes back on the
  :class:`~repro.serve.runtime.ServeResult` — every span, metric
  exemplar, and flight-recorder entry for one query is joinable.

* **Flight recorder** — a fixed-size ring of compact
  :class:`FlightRecord` entries, one per request: tenant, query
  structure, admission decision, per-stage timings (queue / embed /
  distance / rank), cache hit/miss, shard fan-out, result count,
  error or shed reason.  Always on; one
  record allocation and one lock-guarded deque append per request.
  Dumpable via ``GET /debug/flight?n=100&tenant=...&min_ms=...`` and
  ``python -m repro.cli get flight host:port``.

* **Tail-based trace sampling** — the :class:`TailSampler` decides *at
  request completion* whether the request's full span tree is worth
  keeping: it finished slow (fixed latency threshold and/or rolling
  top-p), errored or was shed.  Only a keeper's stamps are rendered as
  spans (whether or not ``repro.obs`` tracing is on), and retained
  trees live in a bounded ring keyed by
  request id (``GET /debug/trace/<request_id>`` exports Chrome trace
  JSON); everything else is discarded, so memory stays bounded no
  matter the traffic.  See DESIGN.md §10 for why the decision happens
  at completion rather than admission.

* **SLO engine** — declared :class:`SloObjective` s (availability,
  latency-threshold) evaluated from time-bucketed good/bad counts with
  multi-window burn-rate alerts: the fast pair (5 m + 1 h, burn > 14.4)
  pages on sudden brownouts, the slow pair (30 m + 6 h, burn > 6)
  catches slow bleeds — the standard multiwindow policy from the SRE
  workbook.  Exposed at ``GET /debug/slo`` and as
  ``slo_burn_rate{slo=...,window=...}`` gauges; latency objectives list
  p99-bucket histogram *exemplars* (request ids) so an alert links
  straight to flight-recorder entries and retained traces.

:class:`Diagnostics` ties the three sinks together; a request reaches
them once, when whoever minted its context calls
:meth:`RequestContext.finish` (DESIGN.md §10).
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from bisect import bisect_left, insort
from collections import OrderedDict, deque
from dataclasses import dataclass, field, fields
from typing import Callable

from .metrics import MetricsRegistry, get_registry
from .trace import Span, Tracer, is_enabled

__all__ = [
    "next_request_id", "FlightRecord", "FlightRecorder",
    "TailSampler", "SloObjective", "SloEngine", "DiagConfig",
    "Diagnostics", "RequestContext",
]

# ----------------------------------------------------------------------
# request ids
# ----------------------------------------------------------------------

_REQUEST_COUNTER = itertools.count(1)


def next_request_id() -> str:
    """Monotonic, pid-stamped request id (``r<pid-hex>-<counter>``).

    Monotonic within a process (an :func:`itertools.count`, which is
    atomic under the GIL) and globally unambiguous across the processes
    of one serving stack thanks to the pid stamp — shard worker spans
    carry their worker's pid, so the id's pid always names the process
    that *admitted* the request.
    """
    return f"r{os.getpid():x}-{next(_REQUEST_COUNTER):08d}"


# ----------------------------------------------------------------------
# flight recorder
# ----------------------------------------------------------------------

@dataclass
class FlightRecord:
    """Compact always-on record of one request's life.

    Mutable by design: its :class:`RequestContext` fills the fields as
    the request flows (admission → queue → batch → embed → rank →
    resolve) and commits it to the ring exactly once at completion.
    Fields default to cheap falsy values so a record costs one small
    allocation.
    """

    request_id: str
    tenant: str = ""
    #: canonical query-structure key (``batch_key``), e.g. ``p(p(e))``
    structure: str = ""
    #: gateway verdict: "" (no gateway) | admitted | ratelimit |
    #: queue_full | doomed | deadline | unknown_tenant | shutdown
    admission: str = ""
    priority: str = ""
    #: which path answered: model | answer_cache | exact | shed | error
    source: str = ""
    #: shed/error reason; empty on success
    error: str = ""
    #: degradation path taken: "" | deadline | failure
    fallback: str = ""
    #: answer-cache verdict: hit | miss
    cache: str = ""
    embedding_cached: bool = False
    batch_size: int = 0
    #: stage timings, milliseconds
    queue_ms: float = 0.0
    embed_ms: float = 0.0
    distance_ms: float = 0.0
    rank_ms: float = 0.0
    #: runtime submit→resolve latency
    latency_ms: float = 0.0
    #: gateway admission→completion latency (0 when the gateway is off)
    total_ms: float = 0.0
    result_count: int = 0
    #: compiled-plan shape (0/0 unless this request was embedded): ops
    #: the micro-batch would hold without CSE, and ops actually executed
    plan_ops_total: int = 0
    plan_ops_executed: int = 0
    #: per-plan-op-kind milliseconds of the micro-batch this request rode
    #: (empty on cache hits and fallbacks); shared across batched siblings
    plan_stage_ms: dict = field(default_factory=dict)
    #: shard fan-out of the ranking pass (0 = in-process)
    shards: int = 0
    model_version: int = 0
    #: wall-clock completion time (time.time; display only — no
    #: deadline arithmetic ever reads this)
    completed_at: float = 0.0
    trace_retained: bool = False

    def to_dict(self) -> dict:
        """JSON-safe dict (the ``/debug/flight`` row)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


class FlightRecorder:
    """Fixed-size, lock-cheap ring of committed :class:`FlightRecord` s.

    One mutex, one deque append per request; dumps snapshot the deque
    under the lock and filter outside it.
    """

    def __init__(self, capacity: int = 4096):
        if capacity < 1:
            raise ValueError("flight recorder capacity must be >= 1")
        self._lock = threading.Lock()
        self._ring: deque[FlightRecord] = deque(maxlen=capacity)
        self._total = 0

    def append(self, record: FlightRecord) -> None:
        with self._lock:
            self._ring.append(record)
            self._total += 1

    @property
    def total(self) -> int:
        """Lifetime committed-record count (ring evictions included)."""
        with self._lock:
            return self._total

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)

    def dump(self, n: int = 100, tenant: str | None = None,
             min_ms: float | None = None,
             request_id: str | None = None) -> list[FlightRecord]:
        """Newest-first records matching the filters, at most ``n``
        (none for ``n <= 0``)."""
        with self._lock:
            records = list(self._ring)
        out: list[FlightRecord] = []
        if n <= 0:
            return out
        for record in reversed(records):
            if tenant is not None and record.tenant != tenant:
                continue
            if min_ms is not None and \
                    max(record.latency_ms, record.total_ms) < min_ms:
                continue
            if request_id is not None and \
                    record.request_id != request_id:
                continue
            out.append(record)
            if len(out) >= n:
                break
        return out

    def get(self, request_id: str) -> FlightRecord | None:
        """The committed record of one request id, if still in the ring."""
        matches = self.dump(n=1, request_id=request_id)
        return matches[0] if matches else None


# ----------------------------------------------------------------------
# tail-based trace sampling
# ----------------------------------------------------------------------

class TailSampler:
    """Keep full traces only for the requests worth debugging.

    The decision runs at *completion* (DESIGN.md §10): a request is
    retained when it errored or was shed, finished slower than
    ``latency_threshold_ms``, or landed in the rolling slowest ``top_p``
    fraction of recent completions.  Retained span trees live in a
    bounded ring keyed by request id; everything else is dropped on the
    spot, so memory is bounded by ``max_traces`` × tree size, not by
    traffic.
    """

    def __init__(self, latency_threshold_ms: float | None = None,
                 top_p: float | None = 0.05, max_traces: int = 256,
                 quantile_window: int = 512, warmup: int = 50):
        if top_p is not None and not 0.0 < top_p <= 1.0:
            raise ValueError("top_p must be in (0, 1]")
        if max_traces < 1:
            raise ValueError("max_traces must be >= 1")
        if quantile_window < 1:
            raise ValueError("quantile_window must be >= 1")
        self.latency_threshold_ms = latency_threshold_ms
        self.top_p = top_p
        self.max_traces = max_traces
        self._warmup = warmup
        self._lock = threading.Lock()
        #: the rolling window in arrival order, and the same values kept
        #: sorted, so a completion pays two bisections instead of a sort
        self._latencies: deque[float] = deque(maxlen=quantile_window)
        self._ordered: list[float] = []
        self._traces: OrderedDict[str, list[Span]] = OrderedDict()
        self.retained = 0
        self.discarded = 0

    # ------------------------------------------------------------------
    def complete(self, record: FlightRecord,
                 render: Callable[[], list[Span]]) -> str:
        """One completion, under one hold of the lock: feed the rolling
        window, decide, then keep the request's span tree or count it
        discarded.

        ``render()`` builds the tree and is called only for a request
        worth keeping; one with no spans (shed at the door, before any
        layer) is not kept.  Returns why it was kept, "" when it was
        not.  Every completion feeds the window, kept or not, so the
        top-p quantile tracks *all* traffic.
        """
        latency = max(record.latency_ms, record.total_ms)
        with self._lock:
            reason = self._verdict(record, latency)
            spans = render() if reason else None
            if not spans:
                self.discarded += 1
                return ""
            traces = self._traces
            traces[record.request_id] = spans
            traces.move_to_end(record.request_id)
            while len(traces) > self.max_traces:
                traces.popitem(last=False)
            self.retained += 1
            return reason

    def _verdict(self, record: FlightRecord, latency: float) -> str:
        """The reason to keep, or "" to drop; the caller holds the lock."""
        cut = None
        if self.top_p is not None:  # the window exists for this rule only
            ordered = self._ordered
            if len(ordered) >= self._warmup:  # cut of the window so far
                cut = ordered[int((1.0 - self.top_p) * (len(ordered) - 1))]
            if len(ordered) == self._latencies.maxlen:
                del ordered[bisect_left(ordered, self._latencies[0])]
            self._latencies.append(latency)
            insort(ordered, latency)
        if record.error:
            return "error"
        if self.latency_threshold_ms is not None \
                and latency >= self.latency_threshold_ms:
            return "slow"
        # strictly above the cut: under uniform traffic every sample
        # ties the quantile, and a tie must not retain 100% of it
        if cut is not None and latency > cut:
            return "top_p"
        return ""

    def trace(self, request_id: str) -> list[Span] | None:
        """The retained span tree of one request, or None."""
        with self._lock:
            spans = self._traces.get(request_id)
            return list(spans) if spans is not None else None

    def request_ids(self) -> list[str]:
        """Ids with retained traces, oldest first."""
        with self._lock:
            return list(self._traces)

    def __len__(self) -> int:
        with self._lock:
            return len(self._traces)


# ----------------------------------------------------------------------
# SLO engine
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SloObjective:
    """One declared objective.

    ``kind="availability"``: a request is *bad* when it errored or was
    shed.  ``kind="latency"``: bad when it errored **or** finished
    slower than ``threshold_ms`` — a latency SLO that ignored errors
    would report a perfectly fast outage.
    """

    name: str
    #: target success fraction, e.g. 0.999 for "99.9%"
    target: float
    kind: str = "availability"
    #: latency SLOs: the good/bad cut in milliseconds
    threshold_ms: float | None = None

    def __post_init__(self):
        if not 0.0 < self.target < 1.0:
            raise ValueError("target must be in (0, 1), e.g. 0.999")
        if self.kind not in ("availability", "latency"):
            raise ValueError(f"unknown SLO kind {self.kind!r}")
        if self.kind == "latency" and (self.threshold_ms is None
                                       or self.threshold_ms <= 0):
            raise ValueError("latency SLOs need a positive threshold_ms")

    @property
    def budget(self) -> float:
        """Allowed bad fraction (the error budget), e.g. 0.001."""
        return 1.0 - self.target


class _BucketRing:
    """Time-bucketed good/bad event counts over a fixed horizon.

    ``bucket_s``-wide slots in a circular buffer covering ``horizon_s``;
    stale slots are zeroed lazily as time advances, so an idle engine
    costs nothing.  All methods assume the caller holds the engine lock.
    """

    def __init__(self, bucket_s: float, horizon_s: float):
        self.bucket_s = bucket_s
        self.slots = int(horizon_s / bucket_s) + 1
        self.good = [0] * self.slots
        self.bad = [0] * self.slots
        self._head: int | None = None  # absolute bucket index at head

    def _advance(self, now: float) -> int:
        index = int(now // self.bucket_s)
        if self._head is None:
            self._head = index
        elif index > self._head:
            step = min(index - self._head, self.slots)
            for offset in range(1, step + 1):
                slot = (self._head + offset) % self.slots
                self.good[slot] = 0
                self.bad[slot] = 0
            self._head = index
        return index

    def add(self, ok: bool, now: float) -> None:
        index = self._advance(now)
        slot = index % self.slots
        if ok:
            self.good[slot] += 1
        else:
            self.bad[slot] += 1

    def window(self, seconds: float, now: float) -> tuple[int, int]:
        """(good, bad) totals over the trailing ``seconds``."""
        index = self._advance(now)
        buckets = min(int(seconds / self.bucket_s) + 1, self.slots)
        good = bad = 0
        for offset in range(buckets):
            slot = (index - offset) % self.slots
            good += self.good[slot]
            bad += self.bad[slot]
        return good, bad


#: the standard multiwindow burn-rate alert policy (SRE workbook):
#: (short window s, long window s, burn-rate threshold)
FAST_BURN = (300.0, 3600.0, 14.4)
SLOW_BURN = (1800.0, 21600.0, 6.0)
#: display labels of every distinct alert window
_WINDOW_LABELS = {300.0: "5m", 1800.0: "30m", 3600.0: "1h",
                  21600.0: "6h"}


class SloEngine:
    """Evaluates declared objectives from time-bucketed events.

    Each request completion is one event per objective (good or bad per
    the objective's kind); burn rate over a window is
    ``bad_fraction / error_budget``.  An alert fires when **both**
    windows of a pair exceed the pair's threshold — the short window
    makes the alert fast to clear, the long one keeps one noisy minute
    from paging (the reason multiwindow policies exist).
    """

    def __init__(self, objectives, registry: MetricsRegistry | None = None,
                 clock=time.monotonic, bucket_s: float = 5.0,
                 fast=FAST_BURN, slow=SLOW_BURN):
        self.objectives = tuple(objectives)
        names = [o.name for o in self.objectives]
        if len(names) != len(set(names)):
            raise ValueError(f"duplicate SLO names in {names}")
        self._registry = registry
        self._clock = clock
        self.fast = fast
        self.slow = slow
        horizon = max(fast[1], slow[1])
        self._lock = threading.Lock()
        self._rings = {o.name: _BucketRing(bucket_s, horizon)
                       for o in self.objectives}

    # ------------------------------------------------------------------
    def observe(self, ok: bool, latency_ms: float = 0.0,
                now: float | None = None) -> None:
        """Fold one request completion into every objective."""
        if now is None:
            now = self._clock()
        with self._lock:
            for objective in self.objectives:
                good = ok
                if objective.kind == "latency":
                    good = ok and latency_ms <= objective.threshold_ms
                self._rings[objective.name].add(good, now)

    def burn_rate(self, objective: SloObjective, window_s: float,
                  now: float | None = None) -> float:
        """``bad_fraction(window) / error_budget``; 0 with no traffic."""
        if now is None:
            now = self._clock()
        with self._lock:
            good, bad = self._rings[objective.name].window(window_s, now)
        total = good + bad
        if total == 0:
            return 0.0
        return (bad / total) / objective.budget

    def evaluate(self, now: float | None = None) -> list[dict]:
        """Per-objective burn rates + alert verdicts; refreshes gauges.

        Publishes ``slo_burn_rate{slo=,window=}`` and
        ``slo_alert_active{slo=}`` (0/1/2 = ok/slow/fast) on the
        attached registry so a Prometheus scrape sees what
        ``/debug/slo`` sees.
        """
        if now is None:
            now = self._clock()
        out = []
        windows = sorted({self.fast[0], self.fast[1],
                          self.slow[0], self.slow[1]})
        for objective in self.objectives:
            burns = {w: self.burn_rate(objective, w, now) for w in windows}
            fast_hit = (burns[self.fast[0]] > self.fast[2]
                        and burns[self.fast[1]] > self.fast[2])
            slow_hit = (burns[self.slow[0]] > self.slow[2]
                        and burns[self.slow[1]] > self.slow[2])
            alert = "fast" if fast_hit else ("slow" if slow_hit else "")
            entry = {
                "slo": objective.name,
                "kind": objective.kind,
                "target": objective.target,
                "threshold_ms": objective.threshold_ms,
                "burn_rates": {_WINDOW_LABELS.get(w, f"{int(w)}s"):
                               burns[w] for w in windows},
                "alert": alert,
                #: error-budget fraction consumed over the long slow
                #: window (burn 1.0 = spending exactly the budget)
                "budget_burn_6h": burns[self.slow[1]],
            }
            out.append(entry)
            if self._registry is not None:
                for w in windows:
                    label = _WINDOW_LABELS.get(w, f"{int(w)}s")
                    self._registry.gauge("slo_burn_rate",
                                         slo=objective.name,
                                         window=label).set(burns[w])
                self._registry.gauge(
                    "slo_alert_active", slo=objective.name).set(
                    2.0 if fast_hit else (1.0 if slow_hit else 0.0))
        return out


# ----------------------------------------------------------------------
# the facade
# ----------------------------------------------------------------------

#: objectives installed when a DiagConfig does not declare any
DEFAULT_SLOS = (
    SloObjective("availability", target=0.999),
    SloObjective("latency_p99", target=0.99, kind="latency",
                 threshold_ms=50.0),
)


@dataclass(frozen=True)
class DiagConfig:
    """Knobs of the diagnostics layer (all bounded, all always-on)."""

    flight_capacity: int = 4096
    #: retain traces for requests at/above this latency (None = only
    #: the top-p / error rules apply)
    trace_latency_ms: float | None = None
    #: retain the rolling slowest fraction of completions (None = off)
    trace_top_p: float | None = 0.05
    max_traces: int = 256
    slos: tuple[SloObjective, ...] = DEFAULT_SLOS


class Diagnostics:
    """Flight recorder + tail sampler + SLO engine behind one handle.

    :meth:`commit` finalises one record — the tail-sampling verdict
    (rendering the request's span tree only when it is "keep"), SLO
    observation, ring append.  Requests reach it through
    :meth:`RequestContext.finish`, which is what makes it exactly-once.
    """

    def __init__(self, config: DiagConfig | None = None,
                 registry: MetricsRegistry | None = None,
                 clock=time.monotonic):
        self.config = config or DiagConfig()
        self.registry = registry if registry is not None else get_registry()
        self.flight = FlightRecorder(self.config.flight_capacity)
        self.sampler = TailSampler(
            latency_threshold_ms=self.config.trace_latency_ms,
            top_p=self.config.trace_top_p,
            max_traces=self.config.max_traces)
        self.slo = SloEngine(self.config.slos, registry=self.registry,
                             clock=clock)

    # ------------------------------------------------------------------
    def commit(self, record: FlightRecord,
               render: Callable[[], list[Span]] = list) -> None:
        """Finalise one record: tail sampling, SLO, ring.  ``render``
        builds the request's span tree; the sampler calls it only for a
        request it keeps (the default builds none)."""
        record.completed_at = time.time()
        record.trace_retained = bool(self.sampler.complete(record, render))
        self.slo.observe(not record.error,
                         max(record.latency_ms, record.total_ms))
        self.flight.append(record)

    # ------------------------------------------------------------------
    # HTTP payloads
    # ------------------------------------------------------------------
    def flight_payload(self, n: int = 100, tenant: str | None = None,
                       min_ms: float | None = None,
                       request_id: str | None = None) -> dict:
        records = self.flight.dump(n=n, tenant=tenant, min_ms=min_ms,
                                   request_id=request_id)
        return {
            "records": [r.to_dict() for r in records],
            "count": len(records),
            "ring_size": len(self.flight),
            "total_recorded": self.flight.total,
            "traces_retained": len(self.sampler),
        }

    def slo_payload(self) -> dict:
        """The ``/debug/slo`` body: objectives + p99 exemplars."""
        objectives = self.slo.evaluate()
        for entry in objectives:
            if entry["kind"] != "latency":
                continue
            histogram = self.registry.histogram("latency_ms")
            stats = histogram.stats()
            pairs = histogram.exemplars(min_value=stats.p99) \
                if stats.count else []
            entry["exemplars"] = [
                {"request_id": rid, "latency_ms": value}
                for value, rid in pairs[-10:]]
        return {"objectives": objectives,
                "windows": {"fast": list(self.slo.fast),
                            "slow": list(self.slo.slow)}}

    def trace(self, request_id: str) -> list[Span] | None:
        """Retained span tree of one request (tail-sampled), or None."""
        return self.sampler.trace(request_id)


# ----------------------------------------------------------------------
# the per-request context
# ----------------------------------------------------------------------

#: the FlightRecord field a stage's duration lands in; a stage not listed
#: (``serve.fallback``, the two admission stages) is a span only
_STAGE_FIELDS = {
    "serve.queue": "queue_ms",
    "serve.embed": "embed_ms",
    "serve.distance": "distance_ms",
    "serve.rank": "rank_ms",
}

#: slots of one stamp in a context's flat ``stamps`` list
_SLOTS = 6


class RequestContext:
    """Everything diagnostics knows about one request, behind one object.

    Minted by the first door the request passes and handed down by
    reference — gateway → ``ServeRuntime.submit(ctx=)`` → the batcher →
    ``ShardedRanker.topk(ctx)`` → ``ShardWorkerPool.dispatch(ctx)`` — so
    no layer looks another layer's record up by id.  It holds the
    request id, the :class:`FlightRecord` and the request's stamps, and
    is the only writer of both: :meth:`note` fills record fields,
    :meth:`stage` turns one pair of ``perf_counter`` instants into a
    ``*_ms`` field *and* a stamp, so the two agree by construction.

    A stamp is six slots, ``name, start, end, thread, attrs, parent``:
    ``thread`` is the name of the thread that took it, ``attrs`` a dict
    that may be shared with the request's batch siblings (read, never
    written) or None, and ``parent`` the offset of the stamp of the
    layer it sits in (-1 for the first layer).  The layers a request
    enters (``gateway.request``, ``serve.request``) are stamps whose
    ``end`` stays None until they close.  All stamps share one flat
    list: the garbage collector counts every container a request keeps
    alive, and a batch holds hundreds of requests at once (a list per
    stamp tripled the full collections of an in-process batch run).
    Nothing is written to a tracer while the request runs: :meth:`spans`
    renders the stamps as a span tree at completion, and only for a
    request the tail sampler keeps or while tracing is on.

    Ownership: ``owner`` is whoever minted the context.  Whoever ends
    the request — the door for a shed there, else the runtime, before
    it resolves the future — calls :meth:`finish`, which commits the
    record to ``diag`` (nowhere, with diagnostics off) exactly once.  A
    context that is never finished is garbage like any other object —
    nothing else holds it.
    """

    __slots__ = ("owner", "request_id", "record", "stamps", "_inner",
                 "_above", "_diag", "_tracer", "finished")

    #: guards every context's ``finished`` flag; held for one
    #: test-and-set, so sharing it costs less than a lock per request
    _finish_lock = threading.Lock()

    def __init__(self, owner, diag: "Diagnostics | None", tracer: Tracer,
                 request_id: str | None = None, **fields):
        self.owner = owner
        self.request_id = request_id or next_request_id()
        self.record = FlightRecord(self.request_id, **fields)
        self.stamps: list = []
        #: offset of the innermost open layer's stamp (-1: none open)
        self._inner = -1
        #: id of the span the minting thread had open when the first
        #: layer was entered (the rendered root's parent), or None
        self._above: int | None = None
        self._diag = diag
        self._tracer = tracer
        self.finished = False

    def enter(self, name: str, **attrs) -> None:
        """Open one layer (``gateway.request``, ``serve.request``).

        It nests under the innermost open layer; the first one nests
        under whatever span is current on the calling thread and is the
        root of the request's tree.
        """
        if self._inner < 0:
            above = self._tracer.current()
            self._above = None if above is None else above.span_id
        self.stamps += (name, time.perf_counter(), None,
                        threading.current_thread().name, attrs,
                        self._inner)
        self._inner = len(self.stamps) - _SLOTS

    def tag(self, **attrs) -> None:
        """Attributes on the innermost open layer."""
        if self._inner >= 0:
            self.stamps[self._inner + 4].update(attrs)

    def leave(self, **attrs) -> None:
        """Tag and close the innermost open layer; the one it sits in
        is innermost again."""
        at = self._inner
        if at >= 0:
            stamps = self.stamps
            stamps[at + 4].update(attrs)
            stamps[at + 2] = time.perf_counter()
            self._inner = stamps[at + 5]

    def note(self, **fields) -> None:
        """Fill :class:`FlightRecord` fields."""
        record = self.record
        for name, value in fields.items():
            setattr(record, name, value)

    def stage(self, name: str, start: float, end: float,
              attrs: dict | None = None) -> None:
        """One timed stage, ``perf_counter`` instants: the record's
        ``*_ms`` field and a ``name`` stamp under the innermost layer."""
        field_name = _STAGE_FIELDS.get(name)
        if field_name is not None:
            setattr(self.record, field_name, 1000.0 * (end - start))
        self.stamps += (name, start, end, threading.current_thread().name,
                        attrs, self._inner)

    def spans(self) -> list[Span]:
        """The stamps rendered as the request's span tree, oldest first:
        ids from the tracer's counter, every span tagged with the
        request id.  Meant for a finished request: a layer still open
        renders with no end."""
        stamps = self.stamps
        ids = [self._tracer.new_id() for _ in range(0, len(stamps), _SLOTS)]
        pid = os.getpid()
        out = []
        for at in range(0, len(stamps), _SLOTS):
            name, start, end, thread, attrs, parent = stamps[at:at + _SLOTS]
            out.append(Span(
                name, start, end, ids[at // _SLOTS],
                self._above if parent < 0 else ids[parent // _SLOTS],
                thread, dict(attrs or (), request_id=self.request_id), pid))
        out.sort(key=lambda span: (span.start, span.span_id))
        return out

    def finish(self, **fields) -> bool:
        """Fill the last fields, close every open layer, commit.

        The tree is rendered here while tracing is on (and lands in the
        tracer's ring); otherwise only if the tail sampler keeps the
        request.  Idempotent and safe under a race: the first call wins
        (returns True), any later one changes nothing.
        """
        with self._finish_lock:
            if self.finished:
                return False
            self.finished = True
        self.note(**fields)
        while self._inner >= 0:
            self.leave()
        render = self.spans
        if is_enabled():
            spans = self.spans()
            self._tracer.add(spans)
            render = spans.copy
        if self._diag is not None:
            self._diag.commit(self.record, render)
        return True
