"""The front door: admission-controlled dispatch into ServeRuntime.

:class:`Gateway` sits between the socket (or any caller) and the
micro-batcher.  A request travels::

    submit(query, tenant=, priority=, deadline=)
        │  caller thread — synchronous admission verdict
        ├─ token bucket empty?      → GatewayRejected(ratelimit, 429)
        ├─ tenant queue full?       → GatewayRejected(queue_full, 429)
        ├─ deadline already doomed? → GatewayRejected(doomed, 429)
        ▼  admitted — pushed under the gateway lock
    FairScheduler (priority bands + weighted fair queuing per tenant)
        ▼  dispatched while the inflight window has room
    deadline re-check (shed *before* the batcher, never after)
        ▼
    ServeRuntime.submit  →  micro-batcher  →  model

The gateway owns no thread.  One lock guards the scheduling state (the
scheduler, the inflight count, the service-time estimate, the queue
gauges) and is held only to read or change it — never across a call
into the runtime, a diagnostics commit or a caller's future.  ``submit``
admits, pushes and pumps on the caller's thread; a completion runs on
whichever thread resolved the runtime's future — a worker, or the
pumping thread itself when ``ServeRuntime.submit`` answered from its
cache.  So a cache hit is admitted, looked up and answered without one
thread hand-off, and a miss hands off only queue → worker → waiter.

One thread pumps at a time (``_pumping``, claimed and released under
the lock together with the decision that nothing is dispatchable): it
pops an entry and carries it into the runtime before popping the next,
which is why requests enter the runtime in ``FairScheduler.pop()``
order, and why a completion that fires *inside* ``runtime.submit``
returns to the pump's loop instead of recursing into a second pump.  A
thread that finds the pump taken leaves its push or its freed slot to
it: the pumping thread re-reads the state under the lock before it
lets go, so nothing made ready is left behind.  (DESIGN.md §9.)

Why shed *before* the batcher: once a request enters the micro-batcher
it occupies a batch slot and a worker's pass whether or not its
deadline can still be met — a doomed request in the batcher steals
capacity from requests that could still succeed.  The gateway keeps the
batcher's queue short (``max_inflight``) and makes every drop an
explicit, counted 429 *at the door*, where the client can react
(back off per ``Retry-After``) instead of timing out blind.

Backpressure is bounded end to end: per-tenant queues cap waiting work,
``max_inflight`` caps work inside the batcher, and the token buckets cap
the admission rate — overload turns into 429s, not into queue growth.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable

from ..obs.diag import RequestContext
from ..obs.trace import Tracer, get_tracer
from ..serve.batcher import ServeFuture
from ..serve.runtime import ServeError, ServeResult, ServeRuntime
from .admission import FairScheduler, QueuedRequest
from .tenancy import PRIORITIES, TenantConfig, TokenBucket

__all__ = ["Gateway", "GatewayConfig", "GatewayRejected"]

#: priority assumed when submit() does not name one
DEFAULT_PRIORITY = "interactive"
#: EWMA smoothing of the per-request service-time estimate
SERVICE_TIME_ALPHA = 0.1
#: seconds an HTTP caller without a deadline waits for a result before 504
HTTP_TIMEOUT = 30.0


class GatewayRejected(ServeError):
    """A request the gateway shed instead of queueing (HTTP 429).

    ``reason`` is one of ``ratelimit`` / ``queue_full`` / ``doomed`` /
    ``deadline`` / ``unknown_tenant`` / ``shutdown``; ``retry_after`` is
    the suggested client back-off in seconds (the ``Retry-After``
    header value).
    """

    def __init__(self, reason: str, retry_after: float = 0.0,
                 tenant: str = ""):
        detail = f" (tenant {tenant})" if tenant else ""
        super().__init__(f"request shed: {reason}{detail}, "
                         f"retry after {retry_after:.3f}s")
        self.reason = reason
        self.retry_after = retry_after
        self.tenant = tenant
        self.status = 429


@dataclass(frozen=True)
class GatewayConfig:
    """Knobs of the admission layer."""

    #: explicit tenant configs; requests name tenants by ``name``
    tenants: tuple[TenantConfig, ...] = ()
    #: template applied to tenants not listed in ``tenants`` (the name is
    #: substituted); None = reject unknown tenants
    default_tenant: TenantConfig | None = \
        field(default_factory=lambda: TenantConfig("default"))
    #: max requests concurrently inside the batcher and its workers; this is
    #: the *only* queueing the runtime ever sees, so batcher queue depth
    #: is bounded by construction
    max_inflight: int = 64
    #: relative deadline (seconds) applied when submit() passes none;
    #: None = requests without deadlines are never deadline-shed
    default_deadline: float | None = None
    #: shed a dispatched request whose remaining deadline budget is
    #: below ``doom_factor * estimated_service_time`` — it cannot finish
    doom_factor: float = 1.0

    def __post_init__(self):
        if self.max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        names = [t.name for t in self.tenants]
        if len(names) != len(set(names)):
            raise ValueError(f"duplicate tenant names in {names}")


class _TenantState:
    """Runtime state of one tenant: its bucket and its metric handles.

    The handles resolve on first use, not at construction, so a series
    still appears in ``/metrics`` with its first event.
    """

    def __init__(self, config: TenantConfig, clock, metrics):
        self.config = config
        self.bucket = TokenBucket(config.rate, config.burst, clock=clock)
        self._metrics = metrics

    @cached_property
    def admitted(self):
        return self._metrics.counter("admitted", tenant=self.config.name)

    @cached_property
    def queue_depth(self):
        return self._metrics.gauge("tenant_queue", tenant=self.config.name)

    @cached_property
    def latency_ms(self):
        return self._metrics.histogram("gateway_latency_ms",
                                       tenant=self.config.name)


class Gateway:
    """Admission-controlled, multi-tenant front door of a ServeRuntime.

    Parameters
    ----------
    runtime:
        The serving runtime requests dispatch into.  The gateway does
        not own it — closing the gateway leaves the runtime up.
    config:
        Admission knobs; default is a single unlimited ``default``
        tenant, which makes the gateway a pure inflight-bounding,
        deadline-shedding layer.
    compile_fn:
        Optional ``str -> computation graph`` (e.g.
        ``SparqlEngine.compile``) enabling the HTTP query endpoint.
    clock:
        Injectable monotonic clock shared with deadline arithmetic.
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
        #: each request's context at admission, hands it to the runtime
        #: by reference, and finishes it in its completion funnel — one
        #: record per request, end to end
        self.diag = getattr(runtime, "diag", None)
        self._compile = compile_fn
        self._clock = clock
        self.tracer = tracer if tracer is not None else get_tracer()
        #: guards every write below it and every read of more than one
        #: field (tenant states are only ever added, so a thread that
        #: holds a name reads its state without it); see the module
        #: docstring for what may not happen while it is held
        self._lock = threading.Lock()
        self._tenants: dict[str, _TenantState] = {
            tenant.name: _TenantState(tenant, clock, self.metrics)
            for tenant in self.config.tenants}
        self._scheduler = FairScheduler()
        self._pumping = False
        self._inflight = 0
        self._est_service = 0.0  # EWMA seconds; 0 = no estimate yet
        self._closed = False
        self._queue_gauge = self.metrics.gauge("gateway_queue_depth")
        self._inflight_gauge = self.metrics.gauge("gateway_inflight")
        self._wait_ms = self.metrics.histogram("gateway_wait_ms")
        if runtime.http_server is not None:
            runtime.http_server.set_query_fn(self.handle_http)

    # ------------------------------------------------------------------
    # admission (caller threads)
    # ------------------------------------------------------------------
    def submit(self, query: Any, top_k: int = 10, tenant: str = "default",
               priority: str | None = None,
               deadline: float | None = None) -> ServeFuture:
        """Admit-or-shed one query; returns a future like the runtime's.

        Raises :class:`GatewayRejected` synchronously when the request
        is shed at the door (rate limit, full queue, doomed deadline);
        requests shed later (deadline expired while queued) resolve
        their future with the same exception.  An admitted request is
        dispatched on this thread when the inflight window has room, so
        the future may come back already resolved.

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
        if deadline is None:
            deadline = self.config.default_deadline
        now = self._clock()
        with self._lock:
            if self._closed:
                raise GatewayRejected("shutdown", retry_after=0.0)
            state = self._tenant_state(tenant)
            shed = self._verdict(state, tenant, priority, deadline)
            if shed is None:
                state.admitted.inc()
                ctx = RequestContext(self, self.diag, self.tracer,
                                     tenant=tenant, priority=priority,
                                     admission="admitted")
                ctx.enter("gateway.request", tenant=tenant,
                          priority=priority)
                entry = QueuedRequest(
                    query=query, top_k=top_k, tenant=tenant,
                    priority=priority, future=ServeFuture(),
                    deadline=None if deadline is None else now + deadline,
                    admitted_at=now, queued_at=time.perf_counter(),
                    ctx=ctx)
                self._scheduler.push(entry, weight=state.config.weight)
                self._observe_queues(state)
        if shed is not None:
            raise self._door_shed(tenant, *shed)
        self._pump()
        return entry.future

    def answer(self, query: Any, top_k: int = 10, tenant: str = "default",
               priority: str | None = None, deadline: float | None = None,
               timeout: float | None = None) -> ServeResult:
        """Synchronous single-query answer through the gateway."""
        return self.submit(query, top_k, tenant=tenant, priority=priority,
                           deadline=deadline).result(timeout)

    def _tenant_state(self, tenant: str) -> _TenantState | None:
        """The tenant's state, minted from the default template on first
        sight; None when unknown tenants are refused.  Lock held."""
        state = self._tenants.get(tenant)
        template = self.config.default_tenant
        if state is None and template is not None:
            config = TenantConfig(
                tenant, rate=template.rate, burst=template.burst,
                weight=template.weight, max_queue=template.max_queue)
            state = self._tenants[tenant] = _TenantState(
                config, self._clock, self.metrics)
        return state

    def _verdict(self, state: _TenantState | None, tenant: str,
                 priority: str, deadline: float | None) -> tuple | None:
        """The ``(reason, priority, retry_after)`` :meth:`_door_shed` is
        owed, None to admit.  Lock held: the queue and backlog read
        here are the ones the caller then pushes into."""
        if state is None:  # refused before its priority counts
            return ("unknown_tenant",)
        if not state.bucket.try_acquire():
            return "ratelimit", priority, state.bucket.retry_after()
        queued = self._scheduler.depth(tenant)
        if queued >= state.config.max_queue:
            return "queue_full", priority, self._drain_eta(queued)
        if deadline is not None and self._doomed_at_admission(deadline):
            return "doomed", priority, self._drain_eta(1)
        return None

    def _doomed_at_admission(self, deadline_rel: float) -> bool:
        """Conservative pre-queue doom check from the current backlog."""
        est = self._est_service
        if est <= 0.0:
            return False
        waiting = len(self._scheduler) + self._inflight
        est_wait = est * waiting / self.config.max_inflight
        return deadline_rel < est_wait + est * self.config.doom_factor

    def _drain_eta(self, backlog: int) -> float:
        """Rough seconds until ``backlog`` queued requests drain."""
        est = self._est_service if self._est_service > 0 else 0.001
        return backlog * est / self.config.max_inflight

    def _door_shed(self, tenant: str, reason: str, priority: str = "",
                   retry_after: float = 0.0) -> GatewayRejected:
        """Count and record one shed at the door; returns the rejection
        for the caller to raise.

        Door sheds never reach the completion funnel (the caller gets a
        synchronous exception, no QueuedRequest exists), so their
        context is minted and finished right here; queued sheds
        (deadline/shutdown) finish through :meth:`_finish` like every
        other completion.
        """
        self.metrics.counter("shed", reason=reason, tenant=tenant).inc()
        RequestContext(self, self.diag, self.tracer, tenant=tenant,
                       priority=priority).finish(
            admission=reason, source="shed", error=reason)
        return GatewayRejected(reason, retry_after=retry_after,
                               tenant=tenant)

    # ------------------------------------------------------------------
    # scheduling (whichever thread pushed an entry or freed a slot)
    # ------------------------------------------------------------------
    def _pump(self) -> None:
        """Dispatch in ``pop()`` order while the inflight window has
        room; returns at once when another thread is already pumping."""
        with self._lock:
            if self._pumping:
                return
            self._pumping = True
        try:
            while True:
                with self._lock:
                    entry = None
                    if self._inflight < self.config.max_inflight:
                        entry = self._scheduler.pop()
                    if entry is None:
                        # decided under the lock that made it true: a
                        # later push or completion finds the pump free
                        self._pumping = False
                        return
                    self._observe_queues(self._tenants[entry.tenant])
                    now = self._clock()
                    doomed = self._doomed(entry, now)
                    if not doomed:
                        self._inflight += 1
                        self._inflight_gauge.set(self._inflight)
                self._dispatch(entry, now, doomed)
        except BaseException:
            with self._lock:
                self._pumping = False
            raise

    def _doomed(self, entry: QueuedRequest, now: float) -> bool:
        """Deadline gate at the batcher door.  Lock held."""
        if entry.deadline is None:
            return False
        remaining = entry.deadline - now
        return remaining <= 0 or (
            self._est_service > 0.0
            and remaining < self.config.doom_factor * self._est_service)

    def _dispatch(self, entry: QueuedRequest, now: float,
                  doomed: bool) -> None:
        """Carry one popped entry into the runtime, or shed the doomed."""
        self._wait_ms.observe(1000.0 * (now - entry.admitted_at))
        entry.ctx.stage("gateway.queue", entry.queued_at,
                        time.perf_counter())
        if doomed:
            self._finish(entry, error=GatewayRejected(
                "deadline", retry_after=0.0, tenant=entry.tenant))
            return
        remaining = None if entry.deadline is None \
            else entry.deadline - now
        try:
            # by reference: the runtime's serve.request span nests
            # under the context's gateway.request root
            inner = self.runtime.submit(entry.query, entry.top_k,
                                        deadline=remaining, ctx=entry.ctx)
        except BaseException as exc:
            self._release_slot()
            self._finish(entry, error=exc)
            return
        inner.add_done_callback(
            lambda f, e=entry: self._complete(e, f))

    def _release_slot(self, service_time: float | None = None) -> None:
        """One request left the runtime; a served one folds its real
        service time into the doom/Retry-After estimate (cache hits
        included: they are real service times)."""
        with self._lock:
            self._inflight -= 1
            self._inflight_gauge.set(self._inflight)
            if service_time is not None:
                self._est_service = service_time \
                    if self._est_service == 0 \
                    else (1 - SERVICE_TIME_ALPHA) * self._est_service \
                    + SERVICE_TIME_ALPHA * service_time

    def _complete(self, entry: QueuedRequest, inner: ServeFuture) -> None:
        """Done-callback of the runtime's future, on the thread that
        resolved it — possibly the pumping thread, inside
        ``runtime.submit``; the closing :meth:`_pump` then returns to
        that loop instead of nesting."""
        try:
            result: ServeResult = inner.result(timeout=0)
        except BaseException as exc:
            self._release_slot()
            self._finish(entry, error=exc)
        else:
            self._release_slot(result.latency)
            latency = self._clock() - entry.admitted_at
            self._tenants[entry.tenant].latency_ms.observe(
                1000.0 * latency, exemplar=entry.ctx.request_id)
            self._finish(entry, result=ServeResult(
                result.entity_ids, result.source, latency=latency,
                request_id=entry.ctx.request_id))
        self._pump()

    def _finish(self, entry: QueuedRequest, result=None,
                error: BaseException | None = None) -> None:
        """The one completion funnel: every admitted request — served,
        errored, deadline-shed, shutdown-shed — resolves here, so this
        is where the gateway-minted context is finished."""
        ctx = entry.ctx
        outcome = {}
        if isinstance(error, GatewayRejected):  # shed while queued
            self.metrics.counter("shed", reason=error.reason,
                                 tenant=entry.tenant).inc()
            outcome = dict(admission=error.reason, source="shed",
                           error=error.reason)
        elif error is not None and not ctx.record.error:
            outcome = dict(source=ctx.record.source or "error",
                           error=type(error).__name__)
        if error is not None:
            ctx.tag(error=type(error).__name__)
        ctx.finish(total_ms=1000.0 * (self._clock() - entry.admitted_at),
                   **outcome)
        if error is not None:
            entry.future.set_exception(error)
        else:
            entry.future.set_result(result)

    def _observe_queues(self, state: _TenantState) -> None:
        """Publish the queue depths.  Lock held."""
        self._queue_gauge.set(len(self._scheduler))
        state.queue_depth.set(self._scheduler.depth(state.config.name))

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
        if not isinstance(tenant, str):
            return 400, {}, {"error": "'tenant' must be a string"}
        if priority is not None and priority not in PRIORITIES:
            return 400, {}, {"error": f"unknown priority {priority!r}; "
                                      f"expected one of {list(PRIORITIES)}"}
        # JSON true/false decode to bool, a subclass of int: not numbers
        if not isinstance(top_k, int) or isinstance(top_k, bool) \
                or top_k < 1:
            return 400, {}, {"error": "'top_k' must be a positive integer"}
        if deadline_ms is not None and (
                not isinstance(deadline_ms, (int, float))
                or isinstance(deadline_ms, bool) or deadline_ms <= 0):
            return 400, {}, {"error": "'deadline_ms' must be a positive "
                                      "number of milliseconds"}
        try:
            query = self._compile(sparql)
        except Exception as exc:
            return 400, {}, {"error": f"cannot compile query: {exc}"}
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
        except GatewayRejected as exc:  # shed while queued
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
        """Small live-state summary (queue depths, inflight, estimate).

        When the runtime carries a continuous sampling profiler
        (``ServeConfig.profiling``), its health rides along —
        ``prof_effective_hz`` drops below the configured rate when the
        overhead budget forced down-sampling, which is the first thing
        to check when gateway latency and profile detail disagree.
        """
        with self._lock:
            tenants = {name: self._scheduler.depth(name)
                       for name in self._tenants}
            out = {"queued": len(self._scheduler), "tenants": tenants,
                   "inflight": self._inflight,
                   "est_service_ms": 1000.0 * self._est_service}
        prof = getattr(self.runtime, "prof", None)
        if prof is not None:
            out["prof_effective_hz"] = prof.effective_hz
            out["prof_overhead_ratio"] = prof.overhead_ratio
        return out

    def close(self) -> None:
        """Stop admitting and shed the queue; idempotent.

        In-flight requests (already inside the batcher) are left to the
        runtime to finish; their futures still resolve, on the thread
        that resolves the runtime's.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            queued = self._scheduler.drain()
            self._queue_gauge.set(0)
            for tenant in {entry.tenant for entry in queued}:
                self._tenants[tenant].queue_depth.set(0)
        for entry in queued:
            self._finish(entry, error=GatewayRejected(
                "shutdown", tenant=entry.tenant))

    def __enter__(self) -> "Gateway":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
