"""Production diagnostics: flight recorder, tail sampling, SLO burn rates.

The always-on layer that answers "what happened to *that* request?"
after the fact.  Three pieces, all bounded in memory and cheap enough to
leave on under full load:

* **Request record** — one :class:`FlightRecord` per request, minted
  at the first door it passes (gateway admission, or ``ServeRuntime``
  when the gateway is off) and handed down by reference through the
  batcher, the runtime and the shard worker pool; in the runtime it is
  the request itself (``repro.serve.batcher.ServeRequest``: record,
  queue entry and future in one ``__slots__`` object).  It carries the
  monotonic, pid-stamped request id (:func:`next_request_id`,
  ``r<pid-hex>-<counter>``), the flight fields and the stage stamps,
  all plain attribute writes.  Spans are a rendering of the stamps,
  made when someone reads them.  The id is stamped on the shard worker
  spans the pool records and on histogram exemplars, and comes back on
  the :class:`~repro.serve.runtime.ServeResult` — every span, metric
  exemplar, and flight-recorder entry for one query is joinable.

* **Flight recorder** — a fixed-size ring of compact rows, one per
  request: tenant, query structure, admission decision, per-stage
  timings (queue / embed / distance / rank), cache hit/miss, shard
  fan-out, result count, error or shed reason.  Always on; one tuple
  per request and one lock-guarded append per committed batch.
  Dumpable via ``GET /debug/flight?n=100&tenant=...&min_ms=...`` and
  ``python -m repro.cli get flight host:port``.

* **Tail-based trace sampling** — the :class:`TailSampler` decides *at
  request completion* whether the request's full span tree is worth
  keeping: it finished slow (fixed latency threshold and/or rolling
  top-p), errored or was shed.  A keeper's record is held with its
  stamps in a bounded ring keyed by request id and rendered as spans
  only when read (``GET /debug/trace/<request_id>`` exports Chrome
  trace JSON); everything else is discarded, so memory stays bounded no
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
them once, when whoever ends it commits its record (:func:`commit`, a
batch at a time in the runtime; DESIGN.md §10).
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from bisect import bisect_left, insort
from collections import OrderedDict, deque
from dataclasses import dataclass

from .metrics import MetricsRegistry, get_registry
from .trace import Span, Tracer, get_tracer, is_enabled

__all__ = [
    "next_request_id", "FlightRecord", "FlightRecorder",
    "TailSampler", "SloObjective", "SloEngine", "DiagConfig",
    "Diagnostics", "commit",
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
# the request record and the flight recorder
# ----------------------------------------------------------------------

#: the fields of one flight-recorder row (``FlightRecord.to_dict`` keys,
#: in order)
FLIGHT_FIELDS = (
    "request_id", "tenant",
    #: canonical query-structure key (``batch_key``), e.g. ``p(p(e))``
    "structure",
    #: gateway verdict: "" (no gateway) | admitted | ratelimit |
    #: queue_full | doomed | deadline | unknown_tenant | shutdown
    "admission", "priority",
    #: which path answered: model | answer_cache | exact | shed | error
    "source",
    #: shed/error reason; empty on success
    "error",
    #: degradation path taken: "" | deadline | failure
    "fallback",
    #: answer-cache verdict: hit | miss
    "cache", "embedding_cached",
    #: requests the worker took in the turn this request was taken in
    "batch_size",
    #: stage timings, milliseconds
    "queue_ms", "embed_ms", "distance_ms", "rank_ms",
    #: runtime submit→resolve latency
    "latency_ms",
    #: gateway admission→completion latency (0 when the gateway is off)
    "total_ms", "result_count",
    #: compiled-plan shape (0/0 unless this request was embedded): ops
    #: the micro-batch would hold without CSE, and ops actually executed
    "plan_ops_total", "plan_ops_executed",
    #: per-plan-op-kind milliseconds of the micro-batch this request
    #: rode (empty on cache hits and fallbacks); shared across siblings
    "plan_stage_ms",
    #: shard fan-out of the ranking pass (0 = in-process)
    "shards", "model_version",
    #: wall-clock completion time (time.time; display only — no
    #: deadline arithmetic ever reads this)
    "completed_at", "trace_retained",
)

#: the stamps: ``perf_counter`` instants of the request's stages, the
#: shared attribute dicts of its batched stages, and whose threads took
#: them.  A stage whose first instant is None did not happen.
_STAMPS = (
    "thread",        # the admitting thread: layers, canonicalise, lookup
    "worker",        # the worker thread: queue, embed, rank, fallback
    "top_k",
    "gateway_at",    # gateway.request opened (None: no gateway layer)
    "received_at",   # serve.request and serve.canonicalise start
    "walked_at",     # canonicalise → cache_lookup
    "looked_at",     # cache_lookup end; serve.queue start
    "dequeued_at",   # serve.queue end
    "embed_at", "embedded_at", "embed_attrs",
    "rank_at", "split_at", "ranked_at", "rank_attrs",
    "fallback_at", "fell_back_at",
    "left_at",       # every open layer closed
)


class FlightRecord:
    """One request's record: its flight-recorder fields and its stamps.

    Minted by the first door the request passes (gateway admission, or
    ``ServeRuntime`` when the gateway is off) and handed down by
    reference — gateway → ``ServeRuntime.submit(ctx=)`` → the batcher →
    ``ShardedRanker.topk(ctx)`` → ``ShardWorkerPool.dispatch(ctx)`` — so
    no layer looks another layer's record up by id.  Every layer writes
    its fields and stage instants as plain attributes: a stage is its
    ``perf_counter`` instants (see ``_STAMPS``) plus, for the four timed
    ones, the ``*_ms`` field computed from the same instants, so the two
    agree by construction.  In the runtime the record *is* the request
    (:class:`repro.serve.batcher.ServeRequest` adds the queue fields and
    the future), so a request costs one object, not five.

    Nothing is written to a tracer while the request runs: :meth:`spans`
    renders the stamps as the request's span tree — at completion while
    ``repro.obs`` tracing is on, else only when someone reads a kept
    trace (``/debug/trace/<id>``).

    Ownership: ``owner`` is whoever minted the record.  Whoever ends the
    request — the door for a shed there, else the runtime, before it
    resolves the future — finishes it exactly once (:meth:`finish`, or
    the runtime's batch commit), which commits it to ``diag``
    (nowhere, with diagnostics off).  A record never finished is garbage
    like any other object — nothing else holds it.
    """

    __slots__ = FLIGHT_FIELDS + _STAMPS + (
        "owner", "finished", "_diag", "_tracer", "_above", "_spans")

    #: guards every record's ``finished`` flag; held for one test-and-set
    #: (or one per batch), so sharing it costs less than a lock each
    _finish_lock = threading.Lock()

    def __init__(self, request_id: str | None = None, owner=None,
                 diag: "Diagnostics | None" = None,
                 tracer: Tracer | None = None, **fields):
        self.request_id = request_id or next_request_id()
        self.tenant = self.structure = self.admission = self.priority = ""
        self.source = self.error = self.fallback = self.cache = ""
        self.embedding_cached = self.trace_retained = False
        self.batch_size = self.result_count = self.shards = 0
        self.plan_ops_total = self.plan_ops_executed = 0
        self.model_version = self.top_k = 0
        self.queue_ms = self.embed_ms = self.distance_ms = 0.0
        self.rank_ms = self.latency_ms = self.total_ms = 0.0
        self.completed_at = 0.0
        self.plan_stage_ms = _NO_STAGES
        self.thread = self.worker = ""
        self.gateway_at = self.received_at = self.walked_at = None
        self.looked_at = self.dequeued_at = self.left_at = None
        self.embed_at = self.embedded_at = self.embed_attrs = None
        self.rank_at = self.split_at = self.ranked_at = None
        self.rank_attrs = self.fallback_at = self.fell_back_at = None
        self.owner = owner
        self.finished = False
        self._diag = diag
        self._tracer = tracer if tracer is not None else get_tracer()
        #: id of the span open on the minting thread (the rendered
        #: root's parent) — looked up only while tracing is on
        self._above = None
        if is_enabled():
            above = self._tracer.current()
            self._above = None if above is None else above.span_id
        self._spans = None
        for name, value in fields.items():
            setattr(self, name, value)

    def to_dict(self) -> dict:
        """JSON-safe dict (the ``/debug/flight`` row)."""
        out = dict(zip(FLIGHT_FIELDS, self.row()))
        out["plan_stage_ms"] = dict(self.plan_stage_ms)  # shared: a copy
        return out

    def row(self) -> tuple:
        """The flight fields as one tuple: what the ring keeps."""
        return (self.request_id, self.tenant, self.structure,
                self.admission, self.priority, self.source, self.error,
                self.fallback, self.cache, self.embedding_cached,
                self.batch_size, self.queue_ms, self.embed_ms,
                self.distance_ms, self.rank_ms, self.latency_ms,
                self.total_ms, self.result_count, self.plan_ops_total,
                self.plan_ops_executed, self.plan_stage_ms, self.shards,
                self.model_version, self.completed_at, self.trace_retained)

    @classmethod
    def from_row(cls, row: tuple) -> "FlightRecord":
        record = cls(row[0])
        for name, value in zip(FLIGHT_FIELDS, row):
            setattr(record, name, value)
        return record

    @property
    def has_tree(self) -> bool:
        """Whether any layer was entered: a request shed at the door
        never was, and has no span tree to keep."""
        return self.gateway_at is not None or self.received_at is not None

    def spans(self) -> list[Span]:
        """The stamps rendered as the request's span tree, oldest first,
        every span tagged with the request id.  Rendered once (ids from
        the tracer's counter) and kept, so every read of a kept trace
        sees the same ids.  Meant for a finished request: a layer still
        open renders with no end."""
        if self._spans is None:
            self._spans = self._render()
        return list(self._spans)

    def _render(self) -> list[Span]:
        tracer, rid, pid, out = self._tracer, self.request_id, os.getpid(), []

        def add(name, start, end, parent, thread, attrs) -> int:
            span = Span(name, start, end, tracer.new_id(), parent, thread,
                        dict(attrs or (), request_id=rid), pid)
            out.append(span)
            return span.span_id

        root = self._above
        if self.gateway_at is not None:
            root = add("gateway.request", self.gateway_at, self.left_at,
                       root, self.thread,
                       {"tenant": self.tenant, "priority": self.priority})
        if self.received_at is not None:
            attrs = {"top_k": self.top_k}
            if self.cache == "miss":
                attrs.update(structure=self.structure,
                             model_version=self.model_version)
            if self.source:
                attrs["source"] = self.source
            if self.error:
                attrs["reason"] = self.error
            layer = add("serve.request", self.received_at, self.left_at,
                        root, self.thread, attrs)
            thread, worker = self.thread, self.worker
            if self.walked_at is not None:
                add("serve.canonicalise", self.received_at, self.walked_at,
                    layer, thread, None)
                add("serve.cache_lookup", self.walked_at, self.looked_at,
                    layer, thread, None)
            if self.dequeued_at is not None:
                add("serve.queue", self.looked_at, self.dequeued_at, layer,
                    worker, None)
            if self.embed_at is not None:
                add("serve.embed", self.embed_at, self.embedded_at, layer,
                    worker, self.embed_attrs)
            if self.rank_at is not None:
                add("serve.distance", self.rank_at, self.split_at, layer,
                    worker, self.rank_attrs)
                add("serve.rank", self.split_at, self.ranked_at, layer,
                    worker, None)
            if self.fallback_at is not None:
                add("serve.fallback", self.fallback_at, self.fell_back_at,
                    layer, worker, {"reason": self.fallback,
                                    "path": "exact"})
        out.sort(key=lambda span: (span.start, span.span_id))
        return out

    def finish(self) -> bool:
        """Close every open layer and commit — :func:`commit` of one.
        Idempotent and safe under a race: the first call wins (returns
        True), any later one changes nothing."""
        return bool(commit([self]))


#: the plan-stage map of a request that rode no compiled plan (shared;
#: never written)
_NO_STAGES: dict = {}


def commit(records) -> list[FlightRecord]:
    """Finish a batch of records: mark each finished under one hold of
    the finish lock (a record finished before is left out), close every
    open layer at one instant, render the trees while tracing is on
    (they land in the tracer's ring), then hand the batch to each
    record's diagnostics.  Returns the records this call finished."""
    with FlightRecord._finish_lock:
        fresh = [record for record in records if not record.finished]
        for record in fresh:
            record.finished = True
    if not fresh:
        return fresh
    left = time.perf_counter()
    for record in fresh:
        if record.left_at is None:
            record.left_at = left
    if is_enabled():
        for record in fresh:
            if record.has_tree:
                record._tracer.add(record.spans())
    batches: dict = {}  # by diagnostics: in practice one per call
    for record in fresh:
        if record._diag is not None:
            batches.setdefault(record._diag, []).append(record)
        # a kept record must not hold its minter or its sinks (which
        # hold it): a closed runtime is then freed without a collection
        record.owner = record._diag = None
    for diag, batch in batches.items():
        diag.commit_many(batch)
    return fresh


class FlightRecorder:
    """Fixed-size, lock-cheap ring of committed flight rows.

    The ring keeps each record's :meth:`FlightRecord.row` — one tuple of
    plain values, which the collector stops tracking — not the record,
    so a kept row holds neither the request's answer nor its stamps.
    One mutex hold per committed batch; dumps snapshot the deque under
    the lock and rebuild records outside it.
    """

    def __init__(self, capacity: int = 4096):
        if capacity < 1:
            raise ValueError("flight recorder capacity must be >= 1")
        self._lock = threading.Lock()
        self._ring: deque[tuple] = deque(maxlen=capacity)
        self._total = 0

    def append(self, record: FlightRecord) -> None:
        self.extend([record.row()])

    def extend(self, rows: list[tuple]) -> None:
        with self._lock:
            self._ring.extend(rows)
            self._total += len(rows)

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
            rows = list(self._ring)
        out: list[FlightRecord] = []
        if n <= 0:
            return out
        for row in reversed(rows):
            if tenant is not None and row[_TENANT] != tenant:
                continue
            if min_ms is not None and \
                    max(row[_LATENCY], row[_TOTAL]) < min_ms:
                continue
            if request_id is not None and row[0] != request_id:
                continue
            out.append(FlightRecord.from_row(row))
            if len(out) >= n:
                break
        return out

    def get(self, request_id: str) -> FlightRecord | None:
        """The committed record of one request id, if still in the ring."""
        matches = self.dump(n=1, request_id=request_id)
        return matches[0] if matches else None


_TENANT = FLIGHT_FIELDS.index("tenant")
_LATENCY = FLIGHT_FIELDS.index("latency_ms")
_TOTAL = FLIGHT_FIELDS.index("total_ms")


# ----------------------------------------------------------------------
# tail-based trace sampling
# ----------------------------------------------------------------------

class TailSampler:
    """Keep full traces only for the requests worth debugging.

    The decision runs at *completion* (DESIGN.md §10): a request is
    retained when it errored or was shed, finished slower than
    ``latency_threshold_ms``, or landed in the rolling slowest ``top_p``
    fraction of recent completions.  Retained records — stamps, not yet
    spans — live in a bounded ring keyed by request id; everything else
    is dropped on the spot, so memory is bounded by ``max_traces``
    records, not by traffic.
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
        #: kept records by request id; a tree is rendered when read
        self._traces: OrderedDict[str, FlightRecord] = OrderedDict()
        self.retained = 0
        self.discarded = 0

    # ------------------------------------------------------------------
    def complete(self, records) -> list[str]:
        """A batch of completions, under one hold of the lock: each feeds
        the rolling window, gets its verdict, and is kept — the record
        itself, its tree unrendered — or counted discarded.

        Sets each record's ``trace_retained`` and returns why each was
        kept ("" when it was not).  A record with no tree (shed at the
        door, before any layer) is not kept.  Every completion feeds the
        window, kept or not, so the top-p quantile tracks *all* traffic.
        """
        reasons = []
        with self._lock:
            traces = self._traces
            for record in records:
                latency = max(record.latency_ms, record.total_ms)
                reason = self._verdict(record, latency)
                if not record.has_tree:
                    reason = ""
                reasons.append(reason)
                record.trace_retained = bool(reason)
                if not reason:
                    self.discarded += 1
                    continue
                traces[record.request_id] = record
                traces.move_to_end(record.request_id)
                if len(traces) > self.max_traces:
                    traces.popitem(last=False)
                self.retained += 1
        return reasons

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
        """The retained span tree of one request, rendered from its
        stamps on the first read, or None."""
        with self._lock:
            record = self._traces.get(request_id)
            return record.spans() if record is not None else None

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

    def add(self, good: int, bad: int, now: float) -> None:
        slot = self._advance(now) % self.slots
        self.good[slot] += good
        self.bad[slot] += bad

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
        self.observe_many([(ok, latency_ms)], now)

    def observe_many(self, outcomes, now: float | None = None) -> None:
        """Fold ``(ok, latency_ms)`` completions into every objective,
        under one hold of the lock."""
        if now is None:
            now = self._clock()
        with self._lock:
            for objective in self.objectives:
                if objective.kind == "latency":
                    cut = objective.threshold_ms
                    good = sum(1 for ok, latency_ms in outcomes
                               if ok and latency_ms <= cut)
                else:
                    good = sum(1 for ok, _ in outcomes if ok)
                self._rings[objective.name].add(
                    good, len(outcomes) - good, now)

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

    :meth:`commit_many` finalises a batch of records — the tail-sampling
    verdicts, SLO observations, ring appends.  Records reach it through
    :func:`commit` (or :meth:`FlightRecord.finish`), which is what makes
    it exactly-once.
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
    def commit(self, record: FlightRecord) -> None:
        """Finalise one record: :meth:`commit_many` of one."""
        self.commit_many([record])

    def commit_many(self, records: list[FlightRecord]) -> None:
        """Finalise a batch of finished records — tail sampling, SLO,
        ring — under one hold of each one's lock.  Kept records keep
        their stamps; a tree is rendered only when read."""
        completed = time.time()
        for record in records:
            record.completed_at = completed
        self.sampler.complete(records)
        self.slo.observe_many(
            [(not record.error, max(record.latency_ms, record.total_ms))
             for record in records])
        self.flight.extend([record.row() for record in records])

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
        """Retained span tree of one request (tail-sampled, rendered
        when read), or None."""
        return self.sampler.trace(request_id)
