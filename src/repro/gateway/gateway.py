"""The front door: admission-controlled async dispatch into ServeRuntime.

:class:`Gateway` sits between the socket (or any caller) and the
micro-batcher.  A request travels::

    submit(query, tenant=, priority=, deadline=)
        │  caller thread — synchronous admission verdict
        ├─ token bucket empty?      → GatewayRejected(ratelimit, 429)
        ├─ tenant queue full?       → GatewayRejected(queue_full, 429)
        ├─ deadline already doomed? → GatewayRejected(doomed, 429)
        ▼  admitted — crosses into the event loop
    FairScheduler (priority bands + weighted fair queuing per tenant)
        ▼  dispatched while the inflight window has room
    deadline re-check (shed *before* the batcher, never after)
        ▼
    ServeRuntime.submit  →  micro-batcher  →  model

The asyncio event loop (a dedicated daemon thread) owns every piece of
scheduling state, so the scheduler itself needs no locks; submissions
and completions hop onto the loop via ``call_soon_threadsafe``.  The
caller-facing surface stays synchronous (:class:`ServeFuture`), so the
gateway drops in front of any existing runtime user.

Why shed *before* the batcher: once a request enters the micro-batcher
it occupies a batch slot and a worker-pool pass whether or not its
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
from typing import Any, Callable

from ..obs.diag import RequestContext
from ..obs.trace import Tracer, get_tracer
from ..serve.batcher import ServeFuture
from ..serve.runtime import ServeError, ServeResult, ServeRuntime
from .admission import FairScheduler, QueuedRequest
from .tenancy import PRIORITIES, TenantConfig, TokenBucket

__all__ = ["Gateway", "GatewayConfig", "GatewayRejected"]


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
    #: max requests concurrently inside the batcher/worker pool; this is
    #: the *only* queueing the runtime ever sees, so batcher queue depth
    #: is bounded by construction
    max_inflight: int = 64
    #: priority assumed when submit() does not name one
    default_priority: str = "interactive"
    #: relative deadline (seconds) applied when submit() passes none;
    #: None = requests without deadlines are never deadline-shed
    default_deadline: float | None = None
    #: EWMA smoothing of the per-request service-time estimate
    service_time_alpha: float = 0.1
    #: shed a dispatched request whose remaining deadline budget is
    #: below ``doom_factor * estimated_service_time`` — it cannot finish
    doom_factor: float = 1.0
    #: seconds an HTTP caller waits for a result before 504
    http_timeout: float = 30.0

    def __post_init__(self):
        if self.max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if self.default_priority not in PRIORITIES:
            raise ValueError(f"default_priority must be one of {PRIORITIES}")
        if not 0.0 < self.service_time_alpha <= 1.0:
            raise ValueError("service_time_alpha must be in (0, 1]")
        names = [t.name for t in self.tenants]
        if len(names) != len(set(names)):
            raise ValueError(f"duplicate tenant names in {names}")


class _TenantState:
    """Runtime state of one tenant: bucket + shared counters."""

    def __init__(self, config: TenantConfig, clock):
        self.config = config
        self.bucket = TokenBucket(config.rate, config.burst, clock=clock)
        #: queued-but-not-dispatched count; written by both the submit
        #: threads (admission) and the loop thread (dispatch/shed), so it
        #: lives behind a lock rather than in the scheduler
        self.pending = 0
        self.lock = threading.Lock()


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
        import asyncio

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
        self._tenants: dict[str, _TenantState] = {}
        self._tenants_lock = threading.Lock()
        for tenant in self.config.tenants:
            self._tenants[tenant.name] = _TenantState(tenant, clock)
        self._scheduler = FairScheduler()
        #: id(entry) -> (entry, inner future) for requests inside the
        #: runtime; lock-guarded so close() can sweep what the loop
        #: thread can no longer complete
        self._live: dict[int, tuple] = {}
        self._live_lock = threading.Lock()
        self._inflight = 0
        self._est_service = 0.0  # EWMA seconds; 0 = no estimate yet
        self._closed = False
        self._queue_gauge = self.metrics.gauge("gateway_queue_depth")
        self._inflight_gauge = self.metrics.gauge("gateway_inflight")
        self._wait_ms = self.metrics.histogram("gateway_wait_ms")
        # the event loop thread owns all scheduling state
        self._loop = asyncio.new_event_loop()
        self._started = threading.Event()
        self._thread = threading.Thread(target=self._run_loop, daemon=True,
                                        name="gateway-loop")
        self._thread.start()
        self._started.wait()
        if runtime.http_server is not None:
            runtime.http_server.set_query_fn(self.handle_http)

    def _run_loop(self) -> None:
        import asyncio

        asyncio.set_event_loop(self._loop)
        self._loop.call_soon(self._started.set)
        try:
            self._loop.run_forever()
        finally:
            self._loop.close()

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
        their future with the same exception.
        """
        if self._closed:
            raise GatewayRejected("shutdown", retry_after=0.0)
        priority = priority or self.config.default_priority
        if priority not in PRIORITIES:
            raise ValueError(f"unknown priority {priority!r}; expected "
                             f"one of {PRIORITIES}")
        if deadline is None:
            deadline = self.config.default_deadline
        state = self._tenant_state(tenant)
        now = self._clock()
        if not state.bucket.try_acquire():
            raise self._door_shed(tenant, "ratelimit", priority,
                                  state.bucket.retry_after())
        with state.lock:
            if state.pending >= state.config.max_queue:
                queue_full = True
            else:
                queue_full = False
                state.pending += 1
        if queue_full:
            raise self._door_shed(tenant, "queue_full", priority,
                                  self._drain_eta(state.pending))
        absolute = None if deadline is None else now + deadline
        if absolute is not None and self._doomed_at_admission(deadline):
            with state.lock:
                state.pending -= 1
            raise self._door_shed(tenant, "doomed", priority,
                                  self._drain_eta(1))
        self.metrics.counter("admitted", tenant=tenant).inc()
        ctx = RequestContext(self, self.diag, self.tracer, tenant=tenant,
                             priority=priority, admission="admitted")
        ctx.enter("gateway.request", tenant=tenant, priority=priority)
        entry = QueuedRequest(query=query, top_k=top_k, tenant=tenant,
                              priority=priority, deadline=absolute,
                              future=ServeFuture(), admitted_at=now,
                              queued_at=time.perf_counter(), ctx=ctx)
        self._loop.call_soon_threadsafe(self._enqueue, entry,
                                        state.config.weight)
        return entry.future

    def answer(self, query: Any, top_k: int = 10, tenant: str = "default",
               priority: str | None = None, deadline: float | None = None,
               timeout: float | None = None) -> ServeResult:
        """Synchronous single-query answer through the gateway."""
        return self.submit(query, top_k, tenant=tenant, priority=priority,
                           deadline=deadline).result(timeout)

    def _tenant_state(self, tenant: str) -> _TenantState:
        with self._tenants_lock:
            state = self._tenants.get(tenant)
            if state is None:
                template = self.config.default_tenant
                if template is None:
                    raise self._door_shed(tenant, "unknown_tenant")
                config = TenantConfig(
                    tenant, rate=template.rate, burst=template.burst,
                    weight=template.weight, max_queue=template.max_queue)
                state = self._tenants[tenant] = _TenantState(config,
                                                             self._clock)
            return state

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
    # scheduling (event-loop thread only)
    # ------------------------------------------------------------------
    def _enqueue(self, entry: QueuedRequest, weight: float) -> None:
        self._scheduler.push(entry, weight=weight)
        self._observe_queues(entry.tenant)
        self._pump()

    def _pump(self) -> None:
        while self._inflight < self.config.max_inflight:
            entry = self._scheduler.pop()
            if entry is None:
                break
            state = self._tenant_state(entry.tenant)
            with state.lock:
                state.pending -= 1
            self._observe_queues(entry.tenant)
            now = self._clock()
            self._wait_ms.observe(1000.0 * (now - entry.admitted_at))
            entry.ctx.stage("gateway.queue", entry.queued_at,
                            time.perf_counter())
            if not self._dispatchable(entry, now):
                continue
            self._inflight += 1
            self._inflight_gauge.set(self._inflight)
            remaining = None if entry.deadline is None \
                else entry.deadline - now
            try:
                # by reference: the runtime's serve.request span nests
                # under the context's gateway.request root
                inner = self.runtime.submit(entry.query, entry.top_k,
                                            deadline=remaining,
                                            ctx=entry.ctx)
            except BaseException as exc:
                self._inflight -= 1
                self._inflight_gauge.set(self._inflight)
                self._finish(entry, error=exc)
                continue
            with self._live_lock:
                self._live[id(entry)] = (entry, inner)
            inner.add_done_callback(
                lambda f, e=entry: self._on_inner_done(e, f))

    def _dispatchable(self, entry: QueuedRequest, now: float) -> bool:
        """Deadline gate at the batcher door; sheds the doomed."""
        if entry.deadline is None:
            return True
        remaining = entry.deadline - now
        doomed = remaining <= 0 or (
            self._est_service > 0.0
            and remaining < self.config.doom_factor * self._est_service)
        if doomed:
            self._finish(entry, error=GatewayRejected(
                "deadline", retry_after=0.0, tenant=entry.tenant))
            return False
        return True

    def _on_inner_done(self, entry: QueuedRequest,
                       inner: ServeFuture) -> None:
        """Runtime completion → loop hop; never raises into the runtime.

        Runs on whichever runtime thread resolved the inner future.  If
        the loop is already closed (gateway shut down with the request
        still in the batcher) the caller-facing future is resolved
        directly instead — a completion must never strand the caller or
        throw inside the runtime's resolver thread.
        """
        try:
            self._loop.call_soon_threadsafe(self._complete, entry, inner)
        except RuntimeError:  # loop closed mid-shutdown
            self._finish_direct(entry, inner)

    def _finish_direct(self, entry: QueuedRequest,
                       inner: ServeFuture) -> None:
        """Resolve off-loop (shutdown path); at-most-once per entry."""
        with self._live_lock:
            if self._live.pop(id(entry), None) is None:
                return
        try:
            result: ServeResult = inner.result(timeout=0)
        except BaseException as exc:
            self._finish(entry, error=exc)
        else:
            self._finish(entry, result=ServeResult(
                result.entity_ids, result.source,
                latency=self._clock() - entry.admitted_at,
                request_id=entry.ctx.request_id))

    def _complete(self, entry: QueuedRequest, inner: ServeFuture) -> None:
        with self._live_lock:
            if self._live.pop(id(entry), None) is None:
                return  # already resolved by the shutdown sweep
        self._inflight -= 1
        self._inflight_gauge.set(self._inflight)
        try:
            result: ServeResult = inner.result(timeout=0)
        except BaseException as exc:
            self._finish(entry, error=exc)
        else:
            # fold the real service time into the doom/Retry-After
            # estimate (cache hits included: they are real service times)
            alpha = self.config.service_time_alpha
            self._est_service = result.latency if self._est_service == 0 \
                else (1 - alpha) * self._est_service \
                + alpha * result.latency
            latency = self._clock() - entry.admitted_at
            self.metrics.histogram(
                "gateway_latency_ms", tenant=entry.tenant).observe(
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

    def _observe_queues(self, tenant: str) -> None:
        self._queue_gauge.set(len(self._scheduler))
        self.metrics.gauge("tenant_queue", tenant=tenant).set(
            self._scheduler.depth(tenant))

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
        if priority is not None and priority not in PRIORITIES:
            return 400, {}, {"error": f"unknown priority {priority!r}; "
                                      f"expected one of {list(PRIORITIES)}"}
        if not isinstance(top_k, int) or top_k < 1:
            return 400, {}, {"error": "'top_k' must be a positive integer"}
        if deadline_ms is not None and (
                not isinstance(deadline_ms, (int, float))
                or deadline_ms <= 0):
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
        timeout = self.config.http_timeout if deadline is None \
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
        with self._tenants_lock:
            tenants = {name: state.pending
                       for name, state in self._tenants.items()}
        out = {"queued": sum(tenants.values()), "tenants": tenants,
               "inflight": self._inflight,
               "est_service_ms": 1000.0 * self._est_service}
        prof = getattr(self.runtime, "prof", None)
        if prof is not None:
            out["prof_effective_hz"] = prof.effective_hz
            out["prof_overhead_ratio"] = prof.overhead_ratio
        return out

    def close(self, timeout: float = 5.0) -> None:
        """Stop admitting, shed the queue, stop the loop; idempotent.

        In-flight requests (already inside the batcher) are left to the
        runtime to finish; their futures still resolve.
        """
        if self._closed:
            return
        self._closed = True
        drained = threading.Event()

        def shutdown() -> None:
            for entry in self._scheduler.drain():
                state = self._tenant_state(entry.tenant)
                with state.lock:
                    state.pending -= 1
                self._finish(entry, error=GatewayRejected(
                    "shutdown", tenant=entry.tenant))
            self._queue_gauge.set(0)
            drained.set()

        self._loop.call_soon_threadsafe(shutdown)
        drained.wait(timeout)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout)
        # completions scheduled onto the loop in the stop window would
        # be dropped with it — resolve whatever is still live directly
        # once its inner future fires (immediately when already done)
        with self._live_lock:
            leftovers = list(self._live.values())
        for entry, inner in leftovers:
            inner.add_done_callback(
                lambda f, e=entry, i=inner: self._finish_direct(e, i))

    def __enter__(self) -> "Gateway":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
