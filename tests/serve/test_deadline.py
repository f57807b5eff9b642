"""Deadline arithmetic regressions: one monotonic clock, zero drift.

The invariant under test: a relative deadline becomes absolute exactly
once (``clock() + deadline`` at submit) and every later comparison uses
the same injected clock — wall-clock time (``time.time``) never enters
the math.  A frozen fake clock makes any violation loud: code that
consults a real clock sees time pass; code on the injected clock sees
none.
"""

import time

import pytest

from repro.queries import Entity, Projection
from repro.serve import ServeConfig, ServeRuntime
from repro.serve.batcher import MicroBatcher, ServeRequest

from .conftest import Gate, HookedModel


class ManualClock:
    def __init__(self, now: float = 1000.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture()
def frozen_runtime(model, tiny_kg):
    """Real runtime on a frozen clock (the queue consults no clock: an
    idle worker takes an unfilled batch at once)."""
    clock = ManualClock()
    config = ServeConfig(max_batch_size=8, num_workers=1,
                         answer_cache_size=1, embedding_cache_size=1)
    with ServeRuntime(model, kg=tiny_kg, config=config,
                      clock=clock) as runtime:
        yield runtime, clock


class TestSingleClockBase:
    def test_tiny_deadline_survives_queue_hop_unshed(self, frozen_runtime):
        """1 ms of budget, frozen clock → zero elapses, nothing sheds.

        Any ``time.time()`` (or second ``time.monotonic()`` base) mixed
        into submit→queue→batch would burn real microseconds against a
        1 ms budget and shed at least one of these 20 requests.
        """
        runtime, _ = frozen_runtime
        for index in range(20):  # distinct → no answer-cache hits
            result = runtime.answer(Projection(index % 4, Entity(index)),
                                    top_k=3, deadline=0.001)
            assert result.source == "model"
        counters = runtime.metrics.snapshot().counters
        assert "deadline_overruns" not in counters

    def test_zero_deadline_expires_at_batch_exactly(self, frozen_runtime):
        """deadline=0.0 → absolute == now → ``now >= deadline`` at the
        batch boundary → graceful fallback, not an error."""
        runtime, _ = frozen_runtime
        result = runtime.answer(Projection(0, Entity(1)), top_k=3,
                                deadline=0.0)
        assert result.source == "exact"  # kg-backed fallback answered
        counters = runtime.metrics.snapshot().counters
        assert counters["deadline_overruns"] == 1

    def test_queue_wait_burns_budget(self, model, tiny_kg):
        """Time spent *queued* counts against the budget.

        The one worker is held, so the request waits for it exactly as
        long as we say — 60 ms on the injected clock against a 50 ms
        budget — and is past its deadline when the worker dequeues it:
        deterministically shed.
        """
        clock = ManualClock()
        gate = Gate()
        config = ServeConfig(max_batch_size=2, num_workers=1,
                             answer_cache_size=1, embedding_cache_size=1)
        with ServeRuntime(HookedModel(model, gate), kg=tiny_kg,
                          config=config, clock=clock) as runtime:
            blocker = runtime.submit(Projection(0, Entity(1)), top_k=3)
            assert gate.entered.wait(10.0)
            future = runtime.submit(Projection(1, Entity(2)), top_k=3,
                                    deadline=0.05)
            clock.advance(0.06)
            gate.open()
            result = future.result(timeout=10.0)
            assert blocker.result(timeout=10.0).source == "model"
            counters = runtime.metrics.snapshot().counters
        assert result.source == "exact"
        assert counters["deadline_overruns"] == 1


class TestBatcherPreservesDeadline:
    def test_absolute_deadline_crosses_queue_unchanged(self):
        """The batcher stores and forwards the absolute deadline
        bit-for-bit; remaining budget is derivable exactly."""
        clock = ManualClock(now=500.0)
        batches = []
        batcher = MicroBatcher(batches.append, max_batch_size=2)
        first = ServeRequest(query="a", top_k=1, cache_key="a",
                             deadline=500.25)
        batcher.submit(first)
        clock.advance(0.1)  # queue wait, on the caller's clock
        second = ServeRequest(query="b", top_k=1, cache_key="b",
                              deadline=500.25)
        batcher.submit(second)
        # the worker starts after both are queued: one batch of two
        batcher.start().close()
        (batch,) = batches
        assert batch == [first, second]
        assert [r.deadline for r in batch] == [500.25, 500.25]
        remaining = batch[0].deadline - clock()
        assert remaining == pytest.approx(0.25 - 0.1)


class TestAnswerBatchTimeout:
    def test_one_timeout_bounds_the_whole_call(self, model, tiny_kg):
        """``answer_batch(timeout=T)`` gives up near T, not after T per
        future: three one-request batches that take 0.6 T each resolve
        at 0.6, 1.2 and 1.8 T, so the call must raise at T — and every
        request still gets its answer and its flight record."""
        T = 0.5
        config = ServeConfig(max_batch_size=1, num_workers=1,
                             answer_cache_size=1, embedding_cache_size=1)
        queries = [Projection(index, Entity(index)) for index in range(3)]
        with ServeRuntime(HookedModel(model, lambda: time.sleep(0.6 * T)),
                          kg=tiny_kg, config=config) as runtime:
            started = time.monotonic()
            with pytest.raises(TimeoutError):
                runtime.answer_batch(queries, top_k=3, timeout=T)
            elapsed = time.monotonic() - started
        # close() drained the queue: the abandoned requests completed
        assert T <= elapsed < 1.4 * T
        records = runtime.diag.flight.dump()
        assert len(records) == 3
        assert {record.source for record in records} == {"model"}
