"""Gateway admission, scheduling, shedding, and completion.

The gateway keeps only the door; behind it is the runtime's one queue.
Scheduling tests hold the runtime's one worker with
:class:`~tests.serve.conftest.Gate`, so whatever is submitted meanwhile
queues, then open it and read the order the worker served requests in
from the flight recorder — with ``max_batch_size=1`` every batch is one
request, so that order is the queue's pop order.
"""

import contextlib
import math
import threading
import time

import pytest

from repro.gateway import (Gateway, GatewayConfig, GatewayRejected,
                           TenantConfig)
from repro.serve import ServeConfig, ServeRuntime

from ..serve.conftest import Gate, HookedModel
from .conftest import ManualClock

pytestmark = pytest.mark.gateway


def wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.002)
    return False


@pytest.fixture()
def runtime(model, tiny_kg):
    config = ServeConfig(max_batch_size=4, num_workers=1)
    with ServeRuntime(model, kg=tiny_kg, config=config) as runtime:
        yield runtime


@contextlib.contextmanager
def held_runtime(model, kg, clock=time.monotonic):
    """A runtime whose one worker parks in its first embed until the
    gate opens; one request per batch, answer cache off."""
    gate = Gate()
    config = ServeConfig(max_batch_size=1, num_workers=1,
                         answer_cache_size=1, answer_ttl=1e-9)
    with ServeRuntime(HookedModel(model, gate), kg=kg, config=config,
                      clock=clock) as runtime:
        yield runtime, gate


def served_order(runtime, futures: dict) -> list:
    """The names of ``futures`` in the order their records were
    committed — the order the one worker resolved them in."""
    names = {future.result(10.0).request_id: name
             for name, future in futures.items()}
    return [names[record.request_id]
            for record in reversed(runtime.diag.flight.dump(n=10_000))
            if record.request_id in names]


class TestAdmission:
    def test_admitted_request_completes(self, runtime, queries):
        with Gateway(runtime) as gateway:
            result = gateway.submit(queries[0], top_k=5).result(10.0)
        assert result.source == "model"
        assert result.entity_ids == runtime.answer(queries[0],
                                                   top_k=5).entity_ids
        counters = runtime.metrics.snapshot().counters
        assert counters["admitted{tenant=default}"] == 1

    def test_ratelimit_sheds_with_retry_after(self, runtime, queries):
        clock = ManualClock()
        config = GatewayConfig(tenants=(
            TenantConfig("slow", rate=2.0, burst=1),), default_tenant=None)
        with Gateway(runtime, config, clock=clock) as gateway:
            gateway.submit(queries[0], tenant="slow")
            with pytest.raises(GatewayRejected) as excinfo:
                gateway.submit(queries[1], tenant="slow")
            assert excinfo.value.reason == "ratelimit"
            assert excinfo.value.status == 429
            assert excinfo.value.retry_after == pytest.approx(0.5)
            clock.advance(0.5)  # bucket refills one token
            gateway.submit(queries[2], tenant="slow").result(10.0)
        counters = runtime.metrics.snapshot().counters
        assert counters["shed{reason=ratelimit,tenant=slow}"] == 1
        assert counters["admitted{tenant=slow}"] == 2

    def test_unknown_tenant_rejected_when_no_default(self, runtime,
                                                     queries):
        config = GatewayConfig(tenants=(TenantConfig("known"),),
                               default_tenant=None)
        with Gateway(runtime, config) as gateway:
            with pytest.raises(GatewayRejected) as excinfo:
                gateway.submit(queries[0], tenant="stranger")
            assert excinfo.value.reason == "unknown_tenant"

    def test_default_tenant_template_applies(self, runtime, queries):
        template = TenantConfig("default", rate=2.0, burst=1)
        config = GatewayConfig(default_tenant=template)
        with Gateway(runtime, config) as gateway:
            gateway.submit(queries[0], tenant="newcomer")
            with pytest.raises(GatewayRejected):  # template's burst of 1
                gateway.submit(queries[1], tenant="newcomer")

    def test_queue_full_sheds(self, model, tiny_kg, queries):
        config = GatewayConfig(tenants=(
            TenantConfig("t", max_queue=2),), default_tenant=None)
        with held_runtime(model, tiny_kg) as (runtime, gate), \
                Gateway(runtime, config) as gateway:
            futures = [gateway.submit(queries[0], tenant="t")]
            assert gate.entered.wait(10.0)  # popped: the queue is empty
            futures += [gateway.submit(q, tenant="t")
                        for q in queries[1:3]]  # queued (max_queue=2)
            with pytest.raises(GatewayRejected) as excinfo:
                gateway.submit(queries[3], tenant="t")
            assert excinfo.value.reason == "queue_full"
            assert excinfo.value.retry_after > 0
            gate.open()
            assert [f.result(10.0).source for f in futures] == \
                ["model"] * 3

    def test_concurrent_submitters_cannot_overfill_a_tenant_queue(
            self, model, tiny_kg, queries, monkeypatch):
        """Eight threads race for a ``max_queue=2`` tenant's two places.

        The door used to read the depth, then the runtime walked the
        query and pushed it: every racer saw room.  Each walk here
        sleeps, so the racers all pass the door before any of them
        pushes; the queue's own check at the push still lets two in.
        """
        from repro.serve import runtime as runtime_module
        walk = runtime_module.walk
        barrier = threading.Barrier(8)

        def slow_walk(query):
            time.sleep(0.05)
            return walk(query)

        config = GatewayConfig(tenants=(
            TenantConfig("t", max_queue=2),), default_tenant=None)
        with held_runtime(model, tiny_kg) as (runtime, gate), \
                Gateway(runtime, config) as gateway:
            blocker = gateway.submit(queries[0], tenant="t")
            assert gate.entered.wait(10.0)  # popped: the queue is empty
            monkeypatch.setattr(runtime_module, "walk", slow_walk)
            outcomes = [None] * 8

            def racer(index):
                barrier.wait()
                try:
                    outcomes[index] = gateway.submit(queries[1 + index],
                                                     tenant="t")
                except GatewayRejected as exc:
                    outcomes[index] = exc

            threads = [threading.Thread(target=racer, args=(i,))
                       for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(10.0)
            queued = runtime.batcher.depth_of("t")
            gate.open()
            futures = [o for o in outcomes
                       if not isinstance(o, GatewayRejected)]
            shed = [o for o in outcomes if isinstance(o, GatewayRejected)]
            assert queued == 2
            assert len(futures) == 2 and len(shed) == 6
            assert {exc.reason for exc in shed} == {"queue_full"}
            assert all(exc.retry_after > 0 for exc in shed)
            assert [f.result(10.0).source for f in [blocker, *futures]] \
                == ["model"] * 3
        counters = runtime.metrics.snapshot().counters
        assert counters["shed{reason=queue_full,tenant=t}"] == 6
        records = [r for r in runtime.diag.flight.dump(tenant="t")
                   if r.error == "queue_full"]
        assert len(records) == 6
        assert {(r.admission, r.source) for r in records} == \
            {("queue_full", "shed")}

    def test_unknown_priority_is_a_caller_error(self, runtime, queries):
        with Gateway(runtime) as gateway:
            with pytest.raises(ValueError, match="priority"):
                gateway.submit(queries[0], priority="turbo")


class TestScheduling:
    def test_interactive_dispatches_before_batch(self, model, tiny_kg,
                                                 queries):
        with held_runtime(model, tiny_kg) as (runtime, gate), \
                Gateway(runtime) as gateway:
            futures = {"blocker": gateway.submit(queries[0])}
            assert gate.entered.wait(10.0)
            futures["bulk1"] = gateway.submit(queries[1], priority="batch")
            futures["bulk2"] = gateway.submit(queries[2], priority="batch")
            futures["ui"] = gateway.submit(queries[3],
                                           priority="interactive")
            gate.open()
            assert served_order(runtime, futures) == \
                ["blocker", "ui", "bulk1", "bulk2"]

    def test_weighted_fairness_across_tenants(self, model, tiny_kg,
                                              queries):
        config = GatewayConfig(tenants=(
            TenantConfig("heavy", weight=3.0),
            TenantConfig("light", weight=1.0)), default_tenant=None)
        with held_runtime(model, tiny_kg) as (runtime, gate), \
                Gateway(runtime, config) as gateway:
            futures = {"blocker": gateway.submit(queries[0],
                                                 tenant="heavy")}
            assert gate.entered.wait(10.0)
            for index in range(12):
                futures[f"h{index}"] = gateway.submit(
                    queries[1 + 2 * index], tenant="heavy")
                futures[f"l{index}"] = gateway.submit(
                    queries[2 + 2 * index], tenant="light")
            gate.open()
            served = [name[0] for name in served_order(runtime, futures)]
        assert served[1:9].count("h") == 6  # 3:1 over the contended run
        assert served[1:9].count("l") == 2


class TestDeadlines:
    def test_deadline_passes_remaining_to_runtime(self, model, tiny_kg,
                                                  queries, monkeypatch):
        """The gateway hands the caller's budget to the runtime as it
        came, and the runtime's own default when the caller gave none."""
        config = ServeConfig(default_deadline=2.5)
        with ServeRuntime(model, kg=tiny_kg, config=config) as runtime, \
                Gateway(runtime) as gateway:
            seen, submit = [], runtime.submit
            monkeypatch.setattr(runtime, "submit", lambda *args, **kw: (
                seen.append(kw["deadline"]), submit(*args, **kw))[1])
            gateway.submit(queries[0], deadline=0.75).result(10.0)
            gateway.submit(queries[1]).result(10.0)
        assert seen == [0.75, 2.5]

    def test_expired_while_queued_sheds_before_batcher(self, model,
                                                       tiny_kg, queries):
        """A request whose deadline passes while it waits is shed when a
        worker pops it, before any model work is spent on it."""
        clock = ManualClock()
        with held_runtime(model, tiny_kg, clock) as (runtime, gate), \
                Gateway(runtime) as gateway:
            blocker = gateway.submit(queries[0])
            assert gate.entered.wait(10.0)
            doomed = gateway.submit(queries[1], deadline=0.05)
            clock.advance(0.2)  # deadline passes while queued
            gate.open()
            with pytest.raises(GatewayRejected) as excinfo:
                doomed.result(timeout=10.0)
            assert blocker.result(timeout=10.0).source == "model"
            counters = runtime.metrics.snapshot().counters
            (record,) = [r for r in runtime.diag.flight.dump()
                         if r.source == "shed"]
        assert excinfo.value.reason == "deadline"
        assert excinfo.value.status == 429
        assert counters["shed{reason=deadline,tenant=default}"] == 1
        assert (record.admission, record.error) == ("deadline", "deadline")
        assert record.embed_ms == 0.0 and record.result_count == 0
        assert "deadline_overruns" not in counters

    def test_a_request_shed_when_popped_gives_its_row_to_the_next(
            self, model, tiny_kg, queries):
        """The worker tops its batch up from the queue for each request
        it sheds on popping: the two requests queued behind a doomed one
        ride one batch, where they used to ride two."""
        clock = ManualClock()
        gate = Gate()
        embeds = []

        def hook():
            embeds.append(1)
            gate()

        config = ServeConfig(max_batch_size=2, num_workers=1,
                             answer_cache_size=1, answer_ttl=1e-9)
        with ServeRuntime(HookedModel(model, hook), kg=tiny_kg,
                          config=config, clock=clock) as runtime, \
                Gateway(runtime) as gateway:
            blocker = runtime.submit(queries[0])
            assert gate.entered.wait(10.0)
            doomed = gateway.submit(queries[1], deadline=0.05)
            behind = [runtime.submit(query) for query in queries[2:4]]
            clock.advance(0.2)  # the doomed one's deadline passes
            gate.open()
            with pytest.raises(GatewayRejected):
                doomed.result(timeout=10.0)
            results = [future.result(timeout=10.0)
                       for future in [blocker] + behind]
            sizes = [runtime.diag.flight.get(r.request_id).batch_size
                     for r in results[1:]]
            counters = runtime.stats().counters
        assert [r.source for r in results] == ["model"] * 3
        assert len(embeds) == 2  # the blocker's, then one for both
        assert counters["batches"] == 2
        assert sizes == [3, 3]  # taken in one turn, the shed one with them

    def test_doomed_at_admission_uses_service_estimate(self, runtime,
                                                       queries):
        with Gateway(runtime) as gateway:
            gateway.answer(queries[0], timeout=10.0)
            # the worker folds the batch's time in after resolving it
            assert wait_until(
                lambda: gateway.stats()["est_service_ms"] > 0)
            with pytest.raises(GatewayRejected) as excinfo:
                gateway.submit(queries[1], deadline=1e-9)
            assert excinfo.value.reason == "doomed"
        counters = runtime.metrics.snapshot().counters
        assert counters["shed{reason=doomed,tenant=default}"] == 1


class TestLifecycle:
    def test_close_serves_the_queue_and_rejects_new_submits(
            self, model, tiny_kg, queries):
        with held_runtime(model, tiny_kg) as (runtime, gate):
            gateway = Gateway(runtime)
            inflight = gateway.submit(queries[0])
            assert gate.entered.wait(10.0)
            queued = gateway.submit(queries[1])
            gateway.close()
            with pytest.raises(GatewayRejected) as excinfo:
                gateway.submit(queries[2])
            assert excinfo.value.reason == "shutdown"
            gateway.close()  # idempotent
            gate.open()
            # accepted before the close: served like any other
            assert inflight.result(timeout=10.0).source == "model"
            assert queued.result(timeout=10.0).source == "model"

    def test_stats_shape(self, runtime):
        with Gateway(runtime) as gateway:
            stats = gateway.stats()
        assert stats["queued"] == 0
        assert "est_service_ms" in stats and "tenants" in stats
        assert "inflight" not in stats  # one queue, no window


class TestMetricHandles:
    def test_a_known_tenant_renders_no_labelled_key(self, runtime, queries,
                                                    monkeypatch):
        """``admitted`` was a labelled lookup — a key render — per
        request; the tenant's state holds the handle.  (The second
        request is an answer-cache hit, so the runtime adds none.)"""
        from repro.obs import metrics

        with Gateway(runtime) as gateway:
            gateway.submit(queries[0], tenant="acme").result(10.0)
            rendered = []
            render = metrics.metric_key
            monkeypatch.setattr(
                metrics, "metric_key",
                lambda name, labels=None: (
                    rendered.append(name) if labels else None,
                    render(name, labels))[1])
            gateway.submit(queries[0], tenant="acme").result(10.0)
            monkeypatch.undo()
        assert rendered == []
        snapshot = runtime.metrics.snapshot()
        assert snapshot.counters["admitted{tenant=acme}"] == 2

    def test_a_tenant_has_no_series_before_its_first_event(self, runtime):
        """Handles resolve on first use: configuring a tenant adds
        nothing to ``/metrics`` until it is admitted or shed."""
        config = GatewayConfig(tenants=(TenantConfig("quiet"),))
        with Gateway(runtime, config):
            snapshot = runtime.metrics.snapshot()
        assert not [key for kind in (snapshot.counters, snapshot.gauges,
                                     snapshot.histograms)
                    for key in kind if "quiet" in key]


class TestIntegration:
    def test_gateway_over_real_runtime(self, model, tiny_kg, queries):
        config = ServeConfig(max_batch_size=8, num_workers=1)
        gw_config = GatewayConfig(tenants=(
            TenantConfig("web", weight=3.0),
            TenantConfig("batchers", weight=1.0)))
        with ServeRuntime(model, kg=tiny_kg, config=config) as runtime:
            with Gateway(runtime, gw_config) as gateway:
                futures = [
                    gateway.submit(query, top_k=3,
                                   tenant=("web", "batchers")[i % 2],
                                   priority=("interactive",
                                             "batch")[i % 2])
                    for i, query in enumerate(queries[:12])]
                results = [f.result(timeout=30.0) for f in futures]
                stats = gateway.stats()
            direct = [runtime.answer(q, top_k=3) for q in queries[:12]]
        for through, bare in zip(results, direct):
            assert through.entity_ids == bare.entity_ids
        assert stats["queued"] == 0
        counters = runtime.metrics.snapshot().counters
        assert counters["admitted{tenant=web}"] == 6
        assert counters["admitted{tenant=batchers}"] == 6

    @pytest.mark.parametrize("timeout", [math.inf,
                                         2 * threading.TIMEOUT_MAX])
    def test_a_timeout_past_timeout_max_waits_like_none(
            self, runtime, queries, timeout):
        """No wait overflows the lock's timeout: every caller-facing
        wait takes an infinite timeout as "no timeout"."""
        with Gateway(runtime) as gateway:
            assert gateway.answer(queries[0], timeout=timeout).source \
                == "model"
        assert runtime.answer(queries[1], timeout=timeout).source \
            == "model"
        assert [r.source for r in runtime.answer_batch(
            queries[2:4], timeout=timeout)] == ["model"] * 2
