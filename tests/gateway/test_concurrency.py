"""The gateway without a loop thread: re-entrancy, races, ordering.

Scheduling state sits behind one lock and is touched from whichever
thread submits, completes or closes, so the properties the event loop
used to give for free — one thing at a time, completions never nested
inside a dispatch — are now the gateway's to keep.  Stub runtimes make
the two hard cases deterministic: one that answers *inside* ``submit``
(what an answer-cache hit does: the done-callback fires inline, under
the dispatching frame) and one that answers from a foreign thread.
"""

import queue
import sys
import threading
import time

import pytest

from repro.gateway import (FairScheduler, Gateway, GatewayConfig,
                           GatewayRejected, QueuedRequest, TenantConfig)
from repro.obs.metrics import MetricsRegistry
from repro.serve import ServeResult
from repro.serve.batcher import ServeFuture

pytestmark = pytest.mark.gateway

TENANTS = (TenantConfig("heavy", weight=3.0, max_queue=4096),
           TenantConfig("light", weight=1.0, max_queue=4096))
PRIORITIES = ("interactive", "batch")


class StubRuntime:
    """The slice of ``ServeRuntime`` the gateway uses."""

    def __init__(self):
        self.metrics = MetricsRegistry()
        self.http_server = None
        self.lock = threading.Lock()
        #: queries in the order they entered the runtime
        self.entered: list = []


class InlineRuntime(StubRuntime):
    """Answers inside ``submit`` like an answer-cache hit — except the
    queries in ``held``, whose futures the test resolves."""

    def __init__(self, held=()):
        super().__init__()
        self.held = {query: ServeFuture() for query in held}

    def submit(self, query, top_k=10, deadline=None, ctx=None):
        self.entered.append(query)
        future = self.held.get(query)
        if future is None:
            future = ServeFuture()
            future.set_result(ServeResult([query], "answer_cache",
                                          latency=1e-5))
        return future


class ForeignThreadRuntime(StubRuntime):
    """Answers from its own thread, and counts what it holds."""

    def __init__(self):
        super().__init__()
        self.outstanding = self.most_outstanding = 0
        self._work: queue.Queue = queue.Queue()
        self._thread = threading.Thread(target=self._resolve, daemon=True)
        self._thread.start()

    def submit(self, query, top_k=10, deadline=None, ctx=None):
        future = ServeFuture()
        # were two threads ever dispatching at once, this is where the
        # one that popped later would overtake
        time.sleep(0)
        with self.lock:
            self.entered.append(query)
            self.outstanding += 1
            self.most_outstanding = max(self.most_outstanding,
                                        self.outstanding)
        self._work.put((query, future))
        return future

    def _resolve(self):
        while True:
            item = self._work.get()
            if item is None:
                return
            query, future = item
            with self.lock:
                self.outstanding -= 1
            future.set_result(ServeResult([query], "model", latency=1e-4))

    def stop(self):
        self._work.put(None)
        self._thread.join(5.0)
        assert not self._thread.is_alive()


class RecordingScheduler(FairScheduler):
    """Records every pop — under the gateway's lock, so the record *is*
    the pop order — and whether an interactive entry was passed over."""

    def __init__(self):
        super().__init__()
        self.popped: list = []
        self.batch_before_interactive = 0

    def pop(self):
        entry = super().pop()
        if entry is not None:
            self.popped.append(entry.query)
            if entry.priority == "batch" and any(
                    lane.queue
                    for lane in self._bands["interactive"].values()):
                self.batch_before_interactive += 1
        return entry


def replayed_pop_order(first, pushes):
    """The order a scheduler pops ``(query, tenant, priority)`` pushes
    in when ``first`` was pushed and popped alone and the rest were all
    queued before the next pop."""
    weights = {t.name: t.weight for t in TENANTS}
    scheduler = FairScheduler()
    order = []
    for batch in ([first], pushes):
        for query, tenant, priority in batch:
            scheduler.push(
                QueuedRequest(query, 10, tenant, priority, None, None, 0.0),
                weight=weights[tenant])
        while (entry := scheduler.pop()) is not None:
            order.append(entry.query)
    return order


class TestOwnsNoThread:
    def test_constructing_a_gateway_starts_nothing(self):
        before = set(threading.enumerate())
        gateway = Gateway(InlineRuntime())
        try:
            assert set(threading.enumerate()) == before
            assert gateway.answer("q", timeout=0).entity_ids == ["q"]
            assert set(threading.enumerate()) == before
        finally:
            gateway.close()

    def test_a_cache_hit_is_answered_on_the_callers_thread(self):
        """No hand-off: the future is resolved when ``submit`` returns."""
        with Gateway(InlineRuntime()) as gateway:
            assert gateway.submit("q").done()


class TestReentrancy:
    def test_two_thousand_inline_completions_do_not_nest(self):
        """``max_inflight=1`` and a queue of requests that each complete
        inside ``runtime.submit``: every completion frees the slot the
        next dispatch needs, from *under* the dispatching frame.  A pump
        that re-entered itself there would recurse a handful of frames
        per request into a RecursionError; a lock held across the
        dispatch would deadlock on the first."""
        runtime = InlineRuntime(held=["blocker"])
        config = GatewayConfig(tenants=TENANTS, default_tenant=None,
                               max_inflight=1)
        with Gateway(runtime, config) as gateway:
            blocker = gateway.submit("blocker", tenant="heavy")
            pushes = [(index, TENANTS[index % 3 == 0].name,
                       PRIORITIES[index % 5 == 0])
                      for index in range(2000)]
            futures = [gateway.submit(query, tenant=tenant,
                                      priority=priority)
                       for query, tenant, priority in pushes]
            assert runtime.entered == ["blocker"]
            assert gateway.stats()["queued"] == 2000
            # the test thread resolves the blocker and thereby pumps
            # all 2000, one loop, before set_result returns
            runtime.held["blocker"].set_result(
                ServeResult([], "model", latency=1e-3))
            assert blocker.done() and all(f.done() for f in futures)
            stats = gateway.stats()
        assert [f.result(0).entity_ids for f in futures] == \
            [[query] for query, _, _ in pushes]
        assert runtime.entered == replayed_pop_order(
            ("blocker", "heavy", "interactive"), pushes)
        assert (stats["queued"], stats["inflight"]) == (0, 0)


@pytest.fixture()
def fast_switching():
    """Hand the GIL over every 10 µs so races have room to happen."""
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(previous)


def hammer(gateway, threads: int, per_thread: int, on_shed=None):
    """``threads`` submitters across both tenants and both priorities;
    returns every future handed out."""
    futures, lock = [], threading.Lock()

    def submitter(offset: int) -> None:
        mine = []
        for index in range(per_thread):
            query = offset * per_thread + index
            try:
                mine.append(gateway.submit(
                    query, tenant=TENANTS[query % 2].name,
                    priority=PRIORITIES[query % 3 == 0]))
            except GatewayRejected as exc:
                on_shed(exc)
        with lock:
            futures.extend(mine)

    workers = [threading.Thread(target=submitter, args=(offset,))
               for offset in range(threads)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(30.0)
        assert not worker.is_alive()
    return futures


class TestRaces:
    @pytest.mark.parametrize("threads, max_inflight",
                             [(2, 1), (6, 3), (8, 64)])
    def test_every_request_resolves_once_in_pop_order(
            self, fast_switching, threads, max_inflight):
        runtime = ForeignThreadRuntime()
        gateway = Gateway(runtime, GatewayConfig(
            tenants=TENANTS, default_tenant=None,
            max_inflight=max_inflight))
        scheduler = gateway._scheduler = RecordingScheduler()
        finished = []
        finish = gateway._finish
        gateway._finish = lambda entry, **how: (finished.append(entry),
                                                finish(entry, **how))
        per_thread = 150
        try:
            futures = hammer(gateway, threads, per_thread)
            results = [future.result(10.0) for future in futures]
        finally:
            gateway.close()
            runtime.stop()
        total = threads * per_thread
        assert len(futures) == total  # nothing shed: queues are deep
        assert sorted(r.entity_ids[0] for r in results) == \
            list(range(total))
        # exactly once each
        assert len(finished) == len({id(e) for e in finished}) == total
        # the window held, and emptied
        assert 1 <= runtime.most_outstanding <= max_inflight
        stats, gauges = gateway.stats(), runtime.metrics.snapshot().gauges
        assert (stats["queued"], stats["inflight"]) == (0, 0)
        assert gauges["gateway_queue_depth"] == 0
        assert gauges["gateway_inflight"] == 0
        assert all(depth == 0 for depth in stats["tenants"].values())
        # requests entered the runtime in the order they were popped,
        # and no pop passed over a queued interactive request
        assert runtime.entered == scheduler.popped
        assert scheduler.batch_before_interactive == 0

    def test_close_mid_run_sheds_the_queued_and_spares_the_inflight(
            self, fast_switching):
        """Submitters racing ``close()``: whatever was queued resolves
        with ``shutdown``, whatever was in the runtime with its answer,
        whatever came later is refused at the door — and nothing is
        left unresolved."""
        runtime = ForeignThreadRuntime()
        gateway = Gateway(runtime, GatewayConfig(
            tenants=TENANTS, default_tenant=None, max_inflight=2))
        refused = []
        closer = threading.Timer(0.02, gateway.close)
        closer.start()
        try:
            futures = hammer(gateway, threads=6, per_thread=400,
                             on_shed=refused.append)
            closer.join(5.0)
            outcomes = []
            for future in futures:
                try:
                    outcomes.append(future.result(10.0).source)
                except GatewayRejected as exc:
                    outcomes.append(exc.reason)
        finally:
            closer.cancel()
            gateway.close()
            runtime.stop()
        assert len(futures) + len(refused) == 6 * 400
        assert set(outcomes) <= {"model", "shutdown"}
        assert {exc.reason for exc in refused} <= {"shutdown"}
        assert outcomes.count("model") == len(runtime.entered)
        stats = gateway.stats()
        assert (stats["queued"], stats["inflight"]) == (0, 0)
        gauges = runtime.metrics.snapshot().gauges
        assert gauges["gateway_queue_depth"] == 0
        # the drained tenants' own gauges go to zero with it
        shed = set()
        for future in futures:
            try:
                future.result(0.0)
            except GatewayRejected as exc:
                shed.add(exc.tenant)
        assert shed, "close() found nothing queued: the race was not run"
        for tenant in shed:
            assert gauges[f"tenant_queue{{tenant={tenant}}}"] == 0
