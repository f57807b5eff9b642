"""The one request queue: fair lanes that free workers pull batches from.

Every request the runtime accepts waits here, as a :class:`ServeRequest`
(its record and its future in one object), in a :class:`Lane`: a
tenant's queue in one priority band.  A free worker pops whatever is
queued — up to ``max_batch_size``, in fair order
(:class:`FairScheduler`), whatever the query structures (the plan
compiler executes mixed batches and needs them for cross-query CSE) —
the moment anything is queued, so a lone request on an idle runtime is
a batch of one at once.  Requests coalesce only while every worker is
busy, which is exactly when batching pays.  There is no flush window,
no timed wait and no hand-off thread.

Requests submitted to the runtime directly share one default lane, so
in-process traffic is served in arrival order; a gateway gives each
tenant a lane per band, and its doomed requests are shed when a worker
pops them — before any work is spent on them; the worker then takes as
many more (:meth:`MicroBatcher.take`), so a shed leaves no row empty.

The batcher knows nothing about models or caches; the runtime supplies
the function a worker runs on each batch.  This keeps the queueing logic
independently testable.
"""

from __future__ import annotations

import logging
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from ..obs.diag import FlightRecord

__all__ = ["ServeFuture", "ServeRequest", "MicroBatcher", "FairScheduler",
           "Lane", "PRIORITIES", "ServeError", "ShedError"]

_LOGGER = logging.getLogger("repro.serve")

#: priority bands, strongest first; a worker pops ``interactive``
#: requests before any ``batch`` request regardless of tenant weights
PRIORITIES = ("interactive", "batch")
#: a budget below this many batch executions (after the wait for the
#: batches ahead) cannot be met: the request is doomed
DOOM_FACTOR = 1.0
#: EWMA smoothing of the batch service-time estimate
SERVICE_TIME_ALPHA = 0.1
#: the shortest ``Retry-After`` a shed names, before any batch has run
MIN_RETRY_AFTER = 0.001


class ServeError(RuntimeError):
    """Raised to the caller when a request exhausts every path."""


class ShedError(ServeError):
    """A request refused instead of served (HTTP 429).

    ``reason`` is one of ``ratelimit`` / ``queue_full`` / ``doomed`` /
    ``deadline`` / ``unknown_tenant`` / ``shutdown``; ``retry_after`` is
    the suggested client back-off in seconds (the ``Retry-After``
    header value).  ``repro.gateway`` exports it as ``GatewayRejected``.
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


#: the state of a future: its latch, flag, outcome and callbacks
_FUTURE_SLOTS = ("_latch", "_done", "_result", "_error", "_callbacks")


class ServeFuture:
    """Write-once result slot handed back to the caller at submit time.

    Waiters take turns on ``_latch``, a lock held until the future
    resolves: one lock per request, not an ``Event``'s two and a list.
    A request's future is the request itself (:class:`ServeRequest`);
    ``ServeFuture()`` alone makes a bare one.  The class holds behaviour
    only — the state lives in the slots of whichever class it is mixed
    into, so it adds nothing to a request's layout."""

    __slots__ = ()

    #: every future's flag and callback list; held for a test or a swap
    _state_lock = threading.Lock()

    def __new__(cls, *args, **kwargs):
        return object.__new__(_BareFuture if cls is ServeFuture else cls)

    def __init__(self):
        self._arm()

    def _arm(self) -> None:
        self._latch = threading.Lock()
        self._latch.acquire()
        self._done = False
        self._result: Any = None
        self._error: BaseException | None = None
        self._callbacks: list | None = None  # made by the first add

    def set_result(self, result: Any) -> None:
        self._result = result
        self._fire()

    def set_exception(self, error: BaseException) -> None:
        self._error = error
        self._fire()

    def _fire(self) -> None:
        with self._state_lock:
            if self._done:
                return
            self._done = True
            callbacks, self._callbacks = self._callbacks, None
        self._latch.release()
        for callback in callbacks or ():
            self._call(callback)

    def _call(self, callback: Callable[["ServeFuture"], None]) -> None:
        # A callback's failure is the callback's: logged, as
        # concurrent.futures does.  Let it unwind and it lands in
        # whoever resolved the future — the runtime's batch executor,
        # which would count a model failure and run the batch again.
        try:
            callback(self)
        except Exception:
            _LOGGER.exception("exception calling callback for %r", self)

    def add_done_callback(self,
                          callback: Callable[["ServeFuture"], None]) -> None:
        """Run ``callback(self)`` once resolved (immediately if done).

        Callbacks run on whichever thread resolves the future (or the
        registering thread when already done), with none of the
        future's locks held.  They must not block on work that needs
        the resolving thread back.  An exception a callback raises is
        logged (``repro.serve``) and goes no further; the callbacks
        after it still run.
        """
        with self._state_lock:
            if not self._done:
                if self._callbacks is None:
                    self._callbacks = []
                self._callbacks.append(callback)
                return
        self._call(callback)

    def done(self) -> bool:
        return self._done

    def result(self, timeout: float | None = None) -> Any:
        if not self._done:
            latch = self._latch
            if timeout is None or timeout >= threading.TIMEOUT_MAX:
                acquired = latch.acquire()
            elif timeout > 0:
                acquired = latch.acquire(True, timeout)
            else:
                acquired = latch.acquire(False)
            if acquired:
                latch.release()  # hand it on to the next waiter
            elif not self._done:  # else a waiter held it to hand it on
                raise TimeoutError("serve request did not complete in time")
        if self._error is not None:
            raise self._error
        return self._result


class _BareFuture(ServeFuture):
    """A future that is nothing else (``ServeFuture()``)."""

    __slots__ = _FUTURE_SLOTS


@dataclass(frozen=True)
class Lane:
    """Where a request waits: one tenant's queue in one priority band.

    The default lane (no tenant) holds every request submitted to the
    runtime directly.  A lane with a tenant was admitted at a door, and
    a request of it that cannot meet its deadline is shed when popped
    rather than served late.
    """

    tenant: str = ""
    priority: str = "interactive"
    #: share of service under contention (weighted fair queuing)
    weight: float = 1.0
    #: the most requests of this lane's tenant that may wait, across
    #: both bands; a push past it is refused (None = unbounded)
    max_queue: int | None = None

    def __post_init__(self):
        if self.priority not in PRIORITIES:
            raise ValueError(f"unknown priority {self.priority!r}; "
                             f"expected one of {PRIORITIES}")


DEFAULT_LANE = Lane()


class ServeRequest(FlightRecord, ServeFuture):
    """One in-flight query: its record, its queue entry and its future.

    One ``__slots__`` object per request: the :class:`FlightRecord`
    (flight fields and stage stamps), the fields the queue and the
    runtime read (the canonical ``query``, its ``cache_key`` and walk,
    the absolute ``deadline``, the ``lane``), and the
    :class:`ServeFuture` the caller waits on — the request *is* the
    future handed back at submit time.
    """

    __slots__ = _FUTURE_SLOTS + ("query", "cache_key", "deadline", "lane",
                                 "walk", "submitted_at")

    def __init__(self, query: Any = None, top_k: int = 0,
                 cache_key: str = "", deadline: float | None = None,
                 lane: "Lane | None" = None, owner=None, diag=None,
                 tracer=None, request_id: str | None = None):
        FlightRecord.__init__(self, request_id, owner, diag, tracer)
        self._arm()
        self.query = query
        self.top_k = top_k
        self.cache_key = cache_key
        #: absolute deadline on the runtime clock, or None
        self.deadline = deadline
        self.lane = DEFAULT_LANE if lane is None else lane
        #: the query's one walk (admission); the plan compiler reads it
        self.walk = None
        #: runtime clock at admission (latency and deadlines)
        self.submitted_at = 0.0


@dataclass
class _LaneQueue:
    """One lane's FIFO plus its fair-queuing start tag."""

    weight: float = 1.0
    queue: deque = field(default_factory=deque)
    tag: float = 0.0


class FairScheduler:
    """Two priority bands of per-tenant start-time fair lanes.

    ``interactive`` drains before ``batch``; *within* a band it is a
    start-time fair queue (SFQ, the virtual-time scheme of Goyal et al.)
    across lanes: each lane carries a virtual start tag, the scheduler
    always serves the backlogged lane with the smallest tag, and serving
    advances the tag by ``1 / weight`` — so over any contended interval
    lane throughput is proportional to weights, regardless of arrival
    pattern.  One lane alone is a FIFO.

    A plain data structure with no locking of its own: the batcher calls
    it under its lock.  ``push``/``pop`` are O(#backlogged lanes) —
    tenant counts are small (tens), request rates are what's large, so
    a heap would buy nothing over the linear minimum scan.
    """

    def __init__(self):
        self._bands: dict[str, dict[str, _LaneQueue]] = \
            {band: {} for band in PRIORITIES}
        #: virtual time per band: the tag of the last lane served
        self._vtime: dict[str, float] = {band: 0.0 for band in PRIORITIES}
        self._depth = 0

    def push(self, request: ServeRequest) -> None:
        lane = request.lane
        lanes = self._bands[lane.priority]
        queue = lanes.get(lane.tenant)
        if queue is None:
            queue = lanes[lane.tenant] = _LaneQueue()
        if not queue.queue:
            # a lane going from idle to backlogged rejoins at the current
            # virtual time: its idle period earns no credit (otherwise a
            # long-idle tenant could burst ahead of everyone)
            queue.tag = max(queue.tag, self._vtime[lane.priority])
        queue.weight = lane.weight
        queue.queue.append(request)
        self._depth += 1

    def pop(self) -> ServeRequest | None:
        """Next request by (priority band, then min virtual start tag)."""
        for band in PRIORITIES:
            best: _LaneQueue | None = None
            for queue in self._bands[band].values():
                if queue.queue and (best is None or queue.tag < best.tag):
                    best = queue
            if best is None:
                continue
            self._vtime[band] = best.tag
            best.tag += 1.0 / best.weight
            self._depth -= 1
            return best.queue.popleft()
        return None

    def __len__(self) -> int:
        return self._depth

    def depth(self, tenant: str) -> int:
        """Waiting requests of one tenant, across both bands."""
        return sum(len(lanes[tenant].queue)
                   for lanes in self._bands.values() if tenant in lanes)


class MicroBatcher:
    """One fair queue and the worker threads that pull batches from it.

    Parameters
    ----------
    execute:
        Called with each batch (``list[ServeRequest]``) on the worker
        thread that pulled it; it resolves the batch's futures, and may
        top the batch up with :meth:`take`.  Should it raise, the error
        is logged and set on every future of the batch (as topped up)
        it left unresolved — a request always gets an outcome and the
        worker lives on.  It returns whether it spent work on the
        batch: only such batches teach :attr:`service_time` (one whose
        requests were all shed costs next to nothing).
    max_batch_size:
        The most requests one pull takes.
    num_workers:
        Worker threads, i.e. batches in execution at once.
    depth_callback:
        Optional ``callable(int)`` observing queue depth on every change.
    """

    def __init__(self, execute: Callable[[list[ServeRequest]], bool],
                 max_batch_size: int = 64, num_workers: int = 1,
                 depth_callback: Optional[Callable[[int], None]] = None):
        if max_batch_size <= 0:
            raise ValueError("max_batch_size must be positive")
        if num_workers <= 0:
            raise ValueError("num_workers must be positive")
        self._execute = execute
        self.max_batch_size = max_batch_size
        self.num_workers = num_workers
        #: EWMA seconds one batch takes to execute; 0 until one has
        self.service_time = 0.0
        self._depth_callback = depth_callback
        self._lock = threading.Lock()
        self._nonempty = threading.Condition(self._lock)
        self._queue = FairScheduler()
        self._closed = False
        self._workers = [
            threading.Thread(target=self._run, daemon=True,
                             name=f"serve-worker_{index}")
            for index in range(num_workers)]

    # ------------------------------------------------------------------
    def start(self) -> "MicroBatcher":
        for worker in self._workers:
            worker.start()
        return self

    def submit(self, *requests: ServeRequest) -> None:
        """Enqueue ``requests`` as one arrival: no worker can pull
        between two of them, so a bulk pass is cut into batches at
        ``max_batch_size`` by construction.

        Raises :class:`ShedError` (``queue_full``), enqueuing nothing of
        the arrival, when a request's lane caps its tenant's depth and
        that depth is already reached.  The check and the push share
        one lock hold, so concurrent submitters of one tenant cannot
        each see the last free place.
        """
        with self._nonempty:
            if self._closed:
                raise RuntimeError("batcher is closed")
            for request in requests:
                cap = request.lane.max_queue
                if cap is not None:
                    queued = self._queue.depth(request.lane.tenant)
                    if queued >= cap:
                        raise ShedError(
                            "queue_full", tenant=request.lane.tenant,
                            retry_after=max(self.wait(queued),
                                            MIN_RETRY_AFTER))
            for request in requests:
                self._queue.push(request)
            self._observe_depth()
            # one waiter per batch the queue now holds is enough
            self._nonempty.notify(
                -(-len(self._queue) // self.max_batch_size))

    def close(self) -> None:
        """Stop accepting requests; the workers drain the queue, exit,
        and are joined.  The batcher then lets go of its callbacks: the
        runtime it executes for is freed without a cyclic collection."""
        with self._nonempty:
            self._closed = True
            self._nonempty.notify_all()
        for worker in self._workers:
            if worker.is_alive():
                worker.join()
        self._execute = self._depth_callback = None

    def take(self, batch: list, count: int) -> list:
        """Pop up to ``count`` more requests onto ``batch``, in fair
        order: a worker refilling the rows of requests it shed when it
        popped them.  Returns the requests taken."""
        if count <= 0:
            return []
        with self._lock:
            taken = [self._queue.pop()
                     for _ in range(min(count, len(self._queue)))]
            if taken:
                self._observe_depth()
        batch.extend(taken)
        return taken

    @property
    def depth(self) -> int:
        with self._lock:
            return len(self._queue)

    def depth_of(self, tenant: str) -> int:
        """Requests of ``tenant`` waiting, across both bands."""
        with self._lock:
            return self._queue.depth(tenant)

    def wait(self, queued: int) -> float:
        """Estimated seconds until ``queued`` requests ahead are taken:
        ⌈queued / max_batch_size⌉ batches spread over the workers."""
        return -(-queued // self.max_batch_size) / self.num_workers \
            * self.service_time

    def doomed(self, budget: float, queued: int = 0) -> bool:
        """Whether ``budget`` seconds cannot cover the wait for
        ``queued`` requests ahead plus one batch's execution."""
        return budget <= 0 or budget < \
            self.wait(queued) + DOOM_FACTOR * self.service_time

    # ------------------------------------------------------------------
    def _observe_depth(self) -> None:
        if self._depth_callback is not None:
            self._depth_callback(len(self._queue))

    def _run(self) -> None:
        while True:
            with self._nonempty:
                while not self._queue and not self._closed:
                    self._nonempty.wait()
                if not self._queue:
                    return  # closed and drained
                batch = [self._queue.pop() for _ in
                         range(min(len(self._queue), self.max_batch_size))]
                self._observe_depth()
            started = time.perf_counter()
            try:
                worked = self._execute(batch)
            except Exception as exc:
                _LOGGER.exception("batch of %d failed outside the model "
                                  "path", len(batch))
                for request in batch:
                    if not request.done():
                        request.set_exception(exc)
                continue
            if worked:
                took = time.perf_counter() - started
                with self._lock:
                    self.service_time = took if not self.service_time \
                        else (1 - SERVICE_TIME_ALPHA) * self.service_time \
                        + SERVICE_TIME_ALPHA * took
