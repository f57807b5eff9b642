"""The work-conserving queue: workers pull, nothing waits for a clock.

A free worker takes whatever is queued — up to ``max_batch_size``, in
fair order, which for requests submitted directly (one lane) is arrival
order — the moment anything is queued; requests coalesce only while
every worker is busy.  These tests pin that policy at the batcher
(no model) and through a real runtime whose one worker is held by a
:class:`~tests.serve.conftest.Gate`.
"""

import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.queries import Entity, Projection
from repro.serve import (Lane, MicroBatcher, ServeConfig, ServeRequest,
                         ServeRuntime, canonicalize)

from .conftest import Gate, HookedModel
from .test_runtime import sample_queries


def request(name, lane: Lane = Lane()) -> ServeRequest:
    return ServeRequest(query=name, top_k=1, cache_key=str(name),
                        lane=lane)


def caches_off(**overrides) -> ServeConfig:
    return ServeConfig(answer_cache_size=1, answer_ttl=1e-9,
                       embedding_cache_size=1, **overrides)


class TestNoTimer:
    def test_lone_request_resolves_on_a_clock_that_never_advances(
            self, model, tiny_kg):
        """An idle worker takes a lone request although the batch is not
        full and the injected clock stands still: no flush window exists
        that would have to run out first."""
        config = caches_off(max_batch_size=8)
        with ServeRuntime(model, kg=tiny_kg, config=config,
                          clock=lambda: 1000.0) as runtime:
            result = runtime.answer(Projection(0, Entity(1)), top_k=3,
                                    timeout=10.0)
            record = runtime.diag.flight.get(result.request_id)
        assert result.source == "model"
        assert record.batch_size == 1

    def test_an_in_process_runtime_is_one_worker_and_the_profiler(
            self, model, tiny_kg):
        """No batcher thread and no executor pool beside the worker."""
        before = set(threading.enumerate())
        with ServeRuntime(model, kg=tiny_kg) as runtime:
            runtime.answer(Projection(0, Entity(1)), top_k=3, timeout=10.0)
            names = sorted(t.name for t in
                           set(threading.enumerate()) - before)
        assert names == ["prof-sampler-serve", "serve-worker_0"]
        assert set(threading.enumerate()) <= before


class TestCoalescingWhileBusy:
    @pytest.mark.parametrize("count", [1, 4, 5, 14])
    def test_queued_behind_a_busy_worker_come_out_in_arrival_order(
            self, count):
        """Held worker, N submits: ⌈N / max_batch_size⌉ batches, cut in
        arrival order, the last one short."""
        held, release = threading.Event(), threading.Event()
        batches = []

        def execute(batch):
            batches.append([r.query for r in batch])
            held.set()
            release.wait(10.0)
            for r in batch:
                r.set_result(r.query)

        batcher = MicroBatcher(execute, max_batch_size=4).start()
        try:
            blocker = request("blocker")
            batcher.submit(blocker)
            assert held.wait(10.0)
            queued = [request(i) for i in range(count)]
            for r in queued:
                batcher.submit(r)
            assert batcher.depth == count
            release.set()
            assert [r.result(10.0) for r in queued] == \
                list(range(count))
        finally:
            release.set()
            batcher.close()
        names = list(range(count))
        assert batches == [["blocker"]] + [names[i:i + 4]
                                           for i in range(0, count, 4)]
        assert batcher.depth == 0

    def test_runtime_batches_what_queued_behind_its_held_worker(
            self, model, tiny_kg):
        gate = Gate()
        queries = sample_queries(tiny_kg, 9, seed=3)
        assert len(queries) == 9
        config = caches_off(max_batch_size=4)
        with ServeRuntime(HookedModel(model, gate), kg=tiny_kg,
                          config=config) as runtime:
            blocker = runtime.submit(Projection(0, Entity(29)), top_k=3)
            assert gate.entered.wait(10.0)
            futures = [runtime.submit(q, top_k=3) for q in queries]
            assert runtime.stats().gauges["queue_depth"] == 9
            gate.open()
            results = [f.result(10.0) for f in [blocker] + futures]
            sizes = [runtime.diag.flight.get(r.request_id).batch_size
                     for r in results]
            stats = runtime.stats()
        assert sizes == [1] + [4] * 8 + [1]
        assert stats.counters["batches"] == 4
        assert stats.gauges["queue_depth"] == 0
        assert [r.entity_ids for r in results[1:]] == \
            [model.answer(canonicalize(q), top_k=3) for q in queries]


class TestBulkEnqueue:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_answer_batch_is_cut_at_max_batch_size_by_construction(
            self, model, tiny_kg, workers):
        """256 misses at ``max_batch_size=64`` are four batches of 64 —
        one arrival under one lock acquisition, so no worker can pull a
        short batch from the middle of it."""
        queries = sample_queries(tiny_kg, 256, seed=9,
                                 structures=("1p", "2p", "2i", "3i"))
        assert len(queries) == 256
        config = caches_off(max_batch_size=64, num_workers=workers)
        with ServeRuntime(model, kg=tiny_kg, config=config) as runtime:
            for passes in (1, 2):
                results = runtime.answer_batch(queries, top_k=3,
                                               timeout=60.0)
                stats = runtime.stats()
                assert stats.counters["batches"] == 4 * passes
                assert {runtime.diag.flight.get(r.request_id).batch_size
                        for r in results} == {64}
        assert stats.histograms["batch_size"].count == 8

    def test_requests_admitted_before_a_bad_query_still_get_outcomes(
            self, model, tiny_kg):
        with ServeRuntime(model, kg=tiny_kg) as runtime:
            with pytest.raises(AttributeError):  # not a query node
                runtime.answer_batch([Projection(0, Entity(1)),
                                      Projection(1, Entity(2)), object()],
                                     top_k=3)
        # the runtime drained on close: two answers, one refusal
        assert runtime.diag.flight.total == 3
        counters = runtime.stats().counters
        assert counters["requests"] == 3 and counters["errors"] == 1
        assert runtime.stats().histograms["latency_ms"].count == 2


class TestServiceEstimate:
    def test_only_batches_that_did_work_teach_the_estimate(self):
        """A batch whose every request was shed when popped costs next
        to nothing; counted, it would pull the doom checks' estimate
        down under exactly the overload they are for."""
        def execute(batch):
            for r in batch:
                r.set_result(r.query)
            return batch[0].query == "work"

        batcher = MicroBatcher(execute, max_batch_size=1).start()
        batcher.submit(request("shed"))
        batcher.close()  # drained and joined: every fold has happened
        assert batcher.service_time == 0.0
        batcher = MicroBatcher(execute, max_batch_size=1).start()
        batcher.submit(request("shed"), request("work"))
        batcher.close()
        assert batcher.service_time > 0.0


#: the lane an arrival queues in: the default one (no tenant) or one of
#: two tenants', in either band, at either of two weights
_LANES = st.builds(Lane, tenant=st.sampled_from(["", "a", "b"]),
                   priority=st.sampled_from(["interactive", "batch"]),
                   weight=st.sampled_from([1.0, 3.0]))
#: one thread's script: submit one, enqueue a bulk of n, or close —
#: each arrival in its lane
_OPS = st.lists(st.tuples(st.one_of(st.just("submit"), st.integers(2, 7),
                                    st.just("close")), _LANES),
                max_size=8)


class TestInterleavings:
    @settings(max_examples=40, deadline=None)
    @given(scripts=st.lists(_OPS, min_size=2, max_size=4),
           workers=st.integers(1, 3), max_batch_size=st.integers(1, 5))
    def test_every_request_gets_exactly_one_outcome(
            self, scripts, workers, max_batch_size):
        """``submit`` / bulk enqueue / ``close`` from several threads,
        into any lanes: an accepted request lands in exactly one batch
        and resolves once,
        a refused one raises and is never executed, nothing is accepted
        once a ``close`` has returned, and the depth gauge ends at 0."""
        executed = []           # request names, appended per batch
        depths = []
        lock = threading.Lock()

        def execute(batch):
            assert 0 < len(batch) <= max_batch_size
            with lock:
                executed.extend(r.query for r in batch)
            for r in batch:
                r.set_result(r.query)

        batcher = MicroBatcher(execute, max_batch_size=max_batch_size,
                               num_workers=workers,
                               depth_callback=depths.append).start()
        accepted, refused, late = [], [], []
        closed = threading.Event()
        start = threading.Barrier(len(scripts))

        def run(thread, script):
            start.wait(10.0)
            for step, (op, lane) in enumerate(script):
                if op == "close":
                    batcher.close()
                    closed.set()
                    continue
                was_closed = closed.is_set()
                arrival = [request((thread, step, i), lane)
                           for i in range(1 if op == "submit" else op)]
                try:
                    batcher.submit(*arrival)
                except RuntimeError:
                    with lock:
                        refused.extend(arrival)
                else:
                    with lock:
                        accepted.extend(arrival)
                        if was_closed:
                            late.extend(arrival)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=run, args=(i, script))
                       for i, script in enumerate(scripts)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30.0)
            assert not any(thread.is_alive() for thread in threads)
            batcher.close()  # whatever the scripts did: drained after this
        finally:
            sys.setswitchinterval(interval)
        assert late == []
        assert sorted(executed) == sorted(r.query for r in accepted)
        assert all(r.done() and r.result(0) == r.query
                   for r in accepted)
        assert not any(r.done() for r in refused)
        assert batcher.depth == 0 and (not depths or depths[-1] == 0)
        with pytest.raises(RuntimeError):
            batcher.submit(request("after close"))
        assert not any(worker.is_alive() for worker in batcher._workers)


class TestServeFuture:
    """The future waits on one lock that waiters hand on; the waits an
    ``Event`` gave must hold: every waiter wakes, a lapsed or spent
    timeout raises, and a resolved future answers at once."""

    def test_every_waiter_wakes_with_the_result(self):
        from repro.serve import ServeFuture
        future = ServeFuture()
        got = []
        waiters = [threading.Thread(target=lambda: got.append(
            future.result(timeout=10.0))) for _ in range(4)]
        for waiter in waiters:
            waiter.start()
        future.set_result("answer")
        for waiter in waiters:
            waiter.join(10.0)
        assert got == ["answer"] * 4
        assert future.done() and future.result(0) == "answer"

    @pytest.mark.parametrize("timeout", [0.05, 0, -1])
    def test_an_unresolved_future_times_out(self, timeout):
        from repro.serve import ServeFuture
        future = ServeFuture()
        with pytest.raises(TimeoutError):
            future.result(timeout)
        future.set_exception(ValueError("late"))
        with pytest.raises(ValueError):
            future.result(timeout)
        future.set_result("again")  # resolving twice is not an error

    @pytest.mark.parametrize("timeout", [None, float("inf"),
                                         2 * threading.TIMEOUT_MAX])
    def test_a_timeout_past_timeout_max_waits_like_none(self, timeout):
        from repro.serve import ServeFuture
        future = ServeFuture()
        got = []
        waiter = threading.Thread(
            target=lambda: got.append(future.result(timeout)))
        waiter.start()
        future.set_result("answer")
        waiter.join(10.0)
        assert got == ["answer"]
        assert future.result(timeout) == "answer"
