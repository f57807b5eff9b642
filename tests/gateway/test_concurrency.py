"""The gateway without a queue or a thread: races through the one door.

The gateway gives its verdict on the caller's thread and puts admitted
requests straight into the runtime's one queue; whoever resolves a
request finishes its record.  So the properties to keep are the queue's
and the door's under contention: every request gets exactly one outcome
and one flight record, a worker never passes over a queued interactive
request, and ``close()`` racing submitters refuses what comes later
without stranding anything accepted.
"""

import sys
import threading

import pytest

from repro.gateway import (FairScheduler, Gateway, GatewayConfig,
                           GatewayRejected, TenantConfig)
from repro.serve import ServeConfig, ServeRuntime

pytestmark = pytest.mark.gateway

TENANTS = (TenantConfig("heavy", weight=3.0, max_queue=4096),
           TenantConfig("light", weight=1.0, max_queue=4096))
PRIORITIES = ("interactive", "batch")


class RecordingScheduler(FairScheduler):
    """Records every pop — under the batcher's lock, so the record *is*
    the pop order — and whether an interactive request was passed
    over."""

    def __init__(self):
        super().__init__()
        self.popped: list = []
        self.batch_before_interactive = 0

    def pop(self):
        request = super().pop()
        if request is not None:
            self.popped.append(request.request_id)
            if request.lane.priority == "batch" and any(
                    lane.queue
                    for lane in self._bands["interactive"].values()):
                self.batch_before_interactive += 1
        return request


class TestOwnsNoThread:
    def test_constructing_a_gateway_starts_nothing(self, model, tiny_kg,
                                                   queries):
        with ServeRuntime(model, kg=tiny_kg) as runtime:
            before = set(threading.enumerate())
            gateway = Gateway(runtime)
            try:
                assert set(threading.enumerate()) == before
                assert gateway.answer(queries[0], timeout=10.0).source \
                    == "model"
                assert set(threading.enumerate()) == before
            finally:
                gateway.close()

    def test_a_cache_hit_is_answered_on_the_callers_thread(
            self, model, tiny_kg, queries):
        """No hand-off: the future is resolved when ``submit`` returns,
        and its done-callback ran on this thread."""
        with ServeRuntime(model, kg=tiny_kg) as runtime, \
                Gateway(runtime) as gateway:
            gateway.answer(queries[0], timeout=10.0)
            future = gateway.submit(queries[0])
            assert future.done()
            ran_on = []
            future.add_done_callback(
                lambda f: ran_on.append(threading.current_thread()))
            assert ran_on == [threading.current_thread()]
            assert future.result(0).source == "answer_cache"


@pytest.fixture()
def fast_switching():
    """Hand the GIL over every 10 µs so races have room to happen."""
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(previous)


def hammer(gateway, queries, threads: int, per_thread: int, on_shed=None):
    """``threads`` submitters across both tenants and both priorities
    (a repeated query is an answer-cache hit); returns every future
    handed out."""
    futures, lock = [], threading.Lock()

    def submitter(offset: int) -> None:
        mine = []
        for index in range(per_thread):
            query = offset * per_thread + index
            try:
                mine.append(gateway.submit(
                    queries[query % len(queries)], top_k=3,
                    tenant=TENANTS[query % 2].name,
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
        worker.join(60.0)
        assert not worker.is_alive()
    return futures


class TestRaces:
    @pytest.mark.parametrize("threads, max_batch_size",
                             [(2, 1), (6, 3), (8, 64)])
    def test_every_request_resolves_once_in_pop_order(
            self, fast_switching, model, tiny_kg, queries, threads,
            max_batch_size):
        config = ServeConfig(max_batch_size=max_batch_size, num_workers=1)
        per_thread = 150
        with ServeRuntime(model, kg=tiny_kg, config=config) as runtime:
            scheduler = runtime.batcher._queue = RecordingScheduler()
            gateway = Gateway(runtime, GatewayConfig(
                tenants=TENANTS, default_tenant=None))
            futures = hammer(gateway, queries, threads, per_thread)
            results = [future.result(30.0) for future in futures]
            stats = gateway.stats()
            gauges = runtime.metrics.snapshot().gauges
            records = runtime.diag.flight.dump(n=10_000)
            total = runtime.diag.flight.total
            expected = [model.answer(queries[q % len(queries)], top_k=3)
                        for q in range(threads * per_thread)]
        assert len(futures) == threads * per_thread  # queues are deep
        assert sorted(tuple(r.entity_ids) for r in results) == \
            sorted(map(tuple, expected))
        # exactly one outcome and one record each
        assert total == len({r.request_id for r in results}) == \
            len(futures)
        # what the worker popped is what the model served, once each
        served = [r.request_id for r in records if r.source == "model"]
        assert sorted(scheduler.popped) == sorted(served)
        assert len(set(scheduler.popped)) == len(scheduler.popped) > 0
        assert scheduler.batch_before_interactive == 0
        # and the queue emptied
        assert stats["queued"] == 0 and gauges["queue_depth"] == 0
        assert all(depth == 0 for depth in stats["tenants"].values())

    def test_close_mid_run_serves_the_queued_and_refuses_the_rest(
            self, fast_switching, model, tiny_kg, queries):
        """Submitters racing ``close()``: whatever was accepted resolves
        with its answer and its record, whatever came later is refused
        at the door — and nothing is left unresolved."""
        config = ServeConfig(max_batch_size=4, num_workers=1)
        with ServeRuntime(model, kg=tiny_kg, config=config) as runtime:
            gateway = Gateway(runtime, GatewayConfig(
                tenants=TENANTS, default_tenant=None))
            refused = []
            closer = threading.Timer(0.02, gateway.close)
            closer.start()
            try:
                futures = hammer(gateway, queries, threads=6,
                                 per_thread=400, on_shed=refused.append)
                closer.join(5.0)
                outcomes = [future.result(30.0).source
                            for future in futures]
            finally:
                closer.cancel()
                gateway.close()
            stats = gateway.stats()
            total = runtime.diag.flight.total
        assert len(futures) + len(refused) == 6 * 400
        assert refused, "close() came after every submit: no race was run"
        assert {exc.reason for exc in refused} == {"shutdown"}
        assert set(outcomes) <= {"model", "answer_cache"}
        assert total == len(futures)  # a refusal after close has no record
        assert stats["queued"] == 0
