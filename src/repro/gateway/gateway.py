"""The front door: admission control in front of ServeRuntime's queue.

:class:`Gateway` sits between the socket (or any caller) and the
runtime.  A request travels::

    handle_http(body)  — SPARQL text → its walk, remembered per text
    submit(query or walk, tenant=, priority=, deadline=)
        │  caller thread — synchronous admission verdict
        ├─ token bucket empty?      → GatewayRejected(ratelimit, 429)
        ├─ deadline already doomed? → GatewayRejected(doomed, 429)
        ▼  admitted — record minted, still on the caller's thread
    ServeRuntime.submit(ctx=, lane=(tenant, priority, weight, max_queue))
        ▼  answer-cache hit → resolved before submit returns
    the runtime's one queue (priority bands × per-tenant fair lanes)
        │  tenant queue full at the push? → GatewayRejected(queue_full)
        ▼  popped by a free worker: doomed → GatewayRejected(deadline)
    model

The gateway keeps only the door.  It owns no thread, no queue and no
lock, and it is not on the way back: whoever resolves a request (the
runtime, on the worker or the caller's thread) commits its record
before resolving its future, so a completion touches nothing of the
gateway's.  A cache
hit is admitted, looked up and answered on the caller's thread without
one hand-off; a miss hands off only queue → worker → waiter.  The HTTP
door remembers the walk of each SPARQL text it has compiled (an LRU of
``answer_cache_size`` entries), so a repeated text is neither parsed nor
walked again.

Why shed at the door *and* when popped: once a worker takes a request
it spends a batch row and a pass on it whether or not its deadline can
still be met — a doomed request in a batch steals capacity from requests
that could still succeed.  The door refuses what the backlog already
dooms (an explicit, counted 429 the client can react to, with
``Retry-After``); the worker sheds what the wait doomed since, at the
latest moment where shedding still saves work.  (DESIGN.md §9.)

Backpressure is bounded end to end: per-tenant ``max_queue`` caps
waiting work — checked by the queue under the lock of the push, so
concurrent submitters cannot each take the last place — and the token
buckets cap the admission rate: overload turns into 429s, not into
queue growth.
"""

from __future__ import annotations

import dataclasses
import math
import threading
import time
from functools import cached_property
from typing import Any, Callable

from ..obs.diag import FlightRecord
from ..obs.trace import Tracer, get_tracer
from ..serve.batcher import (MIN_RETRY_AFTER, PRIORITIES, Lane, ServeFuture,
                             ServeRequest)
from ..serve.batcher import ShedError as GatewayRejected
from ..serve.cache import LruCache
from ..serve.canonical import walk
from ..serve.runtime import ServeError, ServeResult, ServeRuntime
from .tenancy import TenantConfig, TokenBucket

__all__ = ["Gateway", "GatewayConfig", "GatewayRejected"]

#: priority assumed when submit() does not name one
DEFAULT_PRIORITY = "interactive"
#: seconds an HTTP caller without a deadline waits for a result before 504
HTTP_TIMEOUT = 30.0
#: longest SPARQL text (characters) whose walk the HTTP door remembers;
#: a query is a few hundred, so this bounds the memo's footprint without
#: turning a real query away
MAX_MEMO_TEXT = 4096


@dataclasses.dataclass(frozen=True)
class GatewayConfig:
    """Knobs of the admission layer.

    Deadlines default to the runtime's ``ServeConfig.default_deadline``.
    """

    #: explicit tenant configs; requests name tenants by ``name``
    tenants: tuple[TenantConfig, ...] = ()
    #: template applied to tenants not listed in ``tenants`` (the name is
    #: substituted); None = reject unknown tenants
    default_tenant: TenantConfig | None = \
        dataclasses.field(default_factory=lambda: TenantConfig("default"))

    def __post_init__(self):
        names = [t.name for t in self.tenants]
        if len(names) != len(set(names)):
            raise ValueError(f"duplicate tenant names in {names}")


class _TenantState:
    """One tenant at the door: its bucket, its lanes, its counter.

    The counter handle resolves on first use, not at construction, so
    the series still appears in ``/metrics`` with its first event.
    """

    def __init__(self, config: TenantConfig, clock, metrics):
        self.config = config
        self.bucket = TokenBucket(config.rate, config.burst, clock=clock)
        self.lanes = {priority: Lane(config.name, priority, config.weight,
                                     config.max_queue)
                      for priority in PRIORITIES}
        self._metrics = metrics

    @cached_property
    def admitted(self):
        return self._metrics.counter("admitted", tenant=self.config.name)


class Gateway:
    """Admission-controlled, multi-tenant front door of a ServeRuntime.

    Parameters
    ----------
    runtime:
        The serving runtime admitted requests are queued in.  The
        gateway does not own it — closing the gateway leaves the
        runtime up.
    config:
        Admission knobs; default is a single unlimited ``default``
        tenant, which makes the gateway a deadline-shedding door.
    compile_fn:
        Optional ``str -> computation graph`` (e.g.
        ``SparqlEngine.compile``) enabling the HTTP query endpoint.  It
        must be a function of the text alone: the door remembers each
        text's result (walked) and does not call it again.
    clock:
        Injectable monotonic clock of the token buckets.
    """

    def __init__(self, runtime: ServeRuntime,
                 config: GatewayConfig | None = None,
                 compile_fn: Callable[[str], Any] | None = None,
                 clock: Callable[[], float] = time.monotonic,
                 tracer: Tracer | None = None):
        self.runtime = runtime
        self.config = config or GatewayConfig()
        self.metrics = runtime.metrics
        #: diagnostics are shared with the runtime: the gateway mints
        #: each admitted request's record and hands it to the runtime
        #: by reference, which commits it — one record per request
        self.diag = getattr(runtime, "diag", None)
        self._compile = compile_fn
        #: SPARQL text -> its walk; texts that compiled only
        self._walks = LruCache(runtime.config.answer_cache_size)
        self._clock = clock
        self.tracer = tracer if tracer is not None else get_tracer()
        self._tenants: dict[str, _TenantState] = {
            tenant.name: _TenantState(tenant, clock, self.metrics)
            for tenant in self.config.tenants}
        self._closed = False
        if runtime.http_server is not None:
            runtime.http_server.set_query_fn(self.handle_http)

    # ------------------------------------------------------------------
    # admission (caller threads)
    # ------------------------------------------------------------------
    def submit(self, query: Any, top_k: int = 10, tenant: str = "default",
               priority: str | None = None,
               deadline: float | None = None) -> ServeFuture:
        """Admit-or-shed one query; returns the runtime's future.

        ``query`` is a computation graph or its walk
        (:func:`repro.serve.canonical.walk`).  Raises
        :class:`GatewayRejected` synchronously when the request is shed
        at the door (rate limit, doomed deadline) or its tenant's queue
        is full;
        a request shed later (its deadline doomed by the time a worker
        pops it) resolves its future with the same exception.  An
        answer-cache hit comes back already resolved.

        Done-callbacks added to the returned :class:`ServeFuture` follow
        ``concurrent.futures``: they run on whichever thread resolves the
        future (this one, when it is already done), and one that raises
        is logged on the ``repro.serve`` logger and goes no further — the
        callbacks after it still run and the resolving thread carries on.
        """
        priority = priority or DEFAULT_PRIORITY
        if priority not in PRIORITIES:
            raise ValueError(f"unknown priority {priority!r}; expected "
                             f"one of {PRIORITIES}")
        if self._closed:
            raise GatewayRejected("shutdown", retry_after=0.0)
        if deadline is None:
            deadline = self.runtime.config.default_deadline
        state = self._tenant_state(tenant)
        if state is None:  # refused before its priority counts
            raise self._door_shed(tenant, "unknown_tenant")
        shed = self._verdict(state, deadline)
        if shed is not None:
            raise self._door_shed(tenant, shed[0], priority, shed[1])
        state.admitted.inc()
        # the request's one record, minted here and handed down by
        # reference: the runtime's serve.request layer nests under its
        # gateway.request root
        request = ServeRequest(owner=self, diag=self.diag,
                               tracer=self.tracer)
        request.tenant = tenant
        request.priority = priority
        request.admission = "admitted"
        request.gateway_at = time.perf_counter()
        return self.runtime.submit(query, top_k, deadline=deadline,
                                   ctx=request, lane=state.lanes[priority])

    def answer(self, query: Any, top_k: int = 10, tenant: str = "default",
               priority: str | None = None, deadline: float | None = None,
               timeout: float | None = None) -> ServeResult:
        """Synchronous single-query answer through the gateway."""
        return self.submit(query, top_k, tenant=tenant, priority=priority,
                           deadline=deadline).result(timeout)

    def _tenant_state(self, tenant: str) -> _TenantState | None:
        """The tenant's state, minted from the default template on first
        sight; None when unknown tenants are refused."""
        state = self._tenants.get(tenant)
        template = self.config.default_tenant
        if state is None and template is not None:
            # one atomic setdefault: two first sightings share one state
            state = self._tenants.setdefault(tenant, _TenantState(
                dataclasses.replace(template, name=tenant), self._clock,
                self.metrics))
        return state

    def _verdict(self, state: _TenantState,
                 deadline: float | None) -> tuple[str, float] | None:
        """The ``(reason, retry_after)`` :meth:`_door_shed` is owed,
        None to admit.  The tenant's ``max_queue`` is not read here: the
        queue checks it under the lock of the push (its lane carries
        it), where no concurrent submitter can take the place meanwhile.
        """
        if not state.bucket.try_acquire():
            return "ratelimit", state.bucket.retry_after()
        if deadline is not None:
            queue = self.runtime.batcher
            ahead = queue.depth
            if queue.doomed(deadline, ahead):
                return "doomed", max(queue.wait(ahead), MIN_RETRY_AFTER)
        return None

    def _door_shed(self, tenant: str, reason: str, priority: str = "",
                   retry_after: float = 0.0) -> GatewayRejected:
        """Count and record one shed at the door; returns the rejection
        for the caller to raise.  No request exists past the door, so
        its record is minted and finished right here."""
        self.metrics.counter("shed", reason=reason, tenant=tenant).inc()
        FlightRecord(owner=self, diag=self.diag, tracer=self.tracer,
                     tenant=tenant, priority=priority, admission=reason,
                     source="shed", error=reason).finish()
        return GatewayRejected(reason, retry_after=retry_after,
                               tenant=tenant)

    # ------------------------------------------------------------------
    # HTTP surface (mounted on repro.serve.http when present)
    # ------------------------------------------------------------------
    def handle_http(self, payload: dict) -> tuple[int, dict, dict]:
        """``POST /v1/query`` body → ``(status, headers, body)``.

        Body schema: ``{"sparql": str, "tenant": str, "priority": str,
        "top_k": int, "deadline_ms": float}`` — only ``sparql`` is
        required.  429 replies carry ``Retry-After`` (whole seconds,
        rounded up) alongside the machine-readable
        ``retry_after_s`` field in the JSON body.

        A text compiled before is not compiled or walked again: its
        walk comes from an LRU of ``answer_cache_size`` entries, which
        keeps texts that compiled and are at most
        :data:`MAX_MEMO_TEXT` characters long.
        """
        if self._compile is None:
            return 503, {}, {"error": "gateway has no query compiler "
                                      "(constructed without compile_fn)"}
        if not isinstance(payload, dict):
            return 400, {}, {"error": "body must be a JSON object"}
        sparql = payload.get("sparql")
        if not isinstance(sparql, str) or not sparql.strip():
            return 400, {}, {"error": "missing required field 'sparql'"}
        tenant = payload.get("tenant", "default")
        priority = payload.get("priority", None)
        top_k = payload.get("top_k", 10)
        deadline_ms = payload.get("deadline_ms", None)
        if not isinstance(tenant, str) or not tenant:
            return 400, {}, {"error": "'tenant' must be a non-empty "
                                      "string"}
        if priority is not None and priority not in PRIORITIES:
            return 400, {}, {"error": f"unknown priority {priority!r}; "
                                      f"expected one of {list(PRIORITIES)}"}
        # JSON true/false decode to bool, a subclass of int: not numbers
        if not isinstance(top_k, int) or isinstance(top_k, bool) \
                or top_k < 1:
            return 400, {}, {"error": "'top_k' must be a positive integer"}
        # json.loads reads NaN and Infinity; the reply is waited for
        # the deadline plus a second, which must be a lock timeout
        if deadline_ms is not None and (
                not isinstance(deadline_ms, (int, float))
                or isinstance(deadline_ms, bool)
                or not 0 < deadline_ms
                < 1000.0 * (threading.TIMEOUT_MAX - 1.0)):
            return 400, {}, {"error": "'deadline_ms' must be a positive, "
                                      "finite number of milliseconds"}
        query = self._walks.get(sparql)
        if query is None:
            try:
                query = self._compile(sparql)
            except Exception as exc:
                return 400, {}, {"error": f"cannot compile query: {exc}"}
            try:
                query = walk(query)
            except Exception:
                pass  # the graph goes in: the runtime refuses and counts it
            else:
                if len(sparql) <= MAX_MEMO_TEXT:
                    self._walks.put(sparql, query)
        deadline = None if deadline_ms is None else deadline_ms / 1000.0
        try:
            future = self.submit(query, top_k=top_k, tenant=tenant,
                                 priority=priority, deadline=deadline)
        except GatewayRejected as exc:
            return self._rejected_reply(exc)
        timeout = HTTP_TIMEOUT if deadline is None \
            else deadline + 1.0
        try:
            result = future.result(timeout=timeout)
        except GatewayRejected as exc:  # shed when popped
            return self._rejected_reply(exc)
        except TimeoutError:
            return 504, {}, {"error": "request did not complete in time"}
        except ServeError as exc:
            return 500, {}, {"error": str(exc)}
        return 200, {}, {"entity_ids": result.entity_ids,
                         "source": result.source,
                         "latency_ms": 1000.0 * result.latency,
                         "tenant": tenant,
                         "request_id": result.request_id}

    @staticmethod
    def _rejected_reply(exc: GatewayRejected) -> tuple[int, dict, dict]:
        headers = {"Retry-After": str(int(math.ceil(exc.retry_after)))}
        return 429, headers, {"error": "shed", "reason": exc.reason,
                              "retry_after_s": exc.retry_after,
                              "tenant": exc.tenant}

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Small live-state summary (queue depths, service estimate,
        and the hits, misses, evictions and size of the HTTP door's
        text → walk memo under ``query_memo``).

        When the runtime carries a continuous sampling profiler
        (``ServeConfig.profiling``), its health rides along —
        ``prof_effective_hz`` drops below the configured rate when the
        overhead budget forced down-sampling, which is the first thing
        to check when gateway latency and profile detail disagree.
        """
        queue = self.runtime.batcher
        out = {"queued": queue.depth,
               "tenants": {name: queue.depth_of(name)
                           for name in list(self._tenants)},
               "est_service_ms": 1000.0 * queue.service_time,
               "query_memo": self._walks.stats()}
        prof = getattr(self.runtime, "prof", None)
        if prof is not None:
            out["prof_effective_hz"] = prof.effective_hz
            out["prof_overhead_ratio"] = prof.overhead_ratio
        return out

    def close(self) -> None:
        """Stop admitting: later submits are shed with ``shutdown``.

        Idempotent.  Requests already queued are served like any
        accepted request; ``runtime.close()`` drains them.
        """
        self._closed = True

    def __enter__(self) -> "Gateway":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
