"""Gateway admission, scheduling, shedding, and completion.

Most tests drive the gateway against a *fake* runtime whose futures the
test resolves by hand — admission and scheduling decisions become fully
deterministic (the gateway pumps only when we submit or complete
something).
One integration test runs the real ServeRuntime end to end.
"""

import time

import pytest

from repro.gateway import (Gateway, GatewayConfig, GatewayRejected,
                           TenantConfig)
from repro.obs.metrics import MetricsRegistry
from repro.serve import ServeConfig, ServeResult, ServeRuntime
from repro.serve.batcher import ServeFuture

from .conftest import ManualClock

pytestmark = pytest.mark.gateway


class FakeRuntime:
    """Records submits; the test resolves the returned futures."""

    def __init__(self):
        self.metrics = MetricsRegistry()
        self.http_server = None
        self.submitted = []

    def submit(self, query, top_k=10, deadline=None, ctx=None):
        future = ServeFuture()
        self.submitted.append(
            {"query": query, "top_k": top_k, "deadline": deadline,
             "ctx": ctx, "future": future})
        return future

    def resolve(self, index=-1, latency=0.01):
        entry = self.submitted[index]
        entry["future"].set_result(
            ServeResult([1, 2, 3], "model", latency=latency))


def wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.002)
    return False


@pytest.fixture()
def fake():
    return FakeRuntime()


class TestAdmission:
    def test_admitted_request_completes(self, fake):
        with Gateway(fake) as gateway:
            future = gateway.submit("q", top_k=5)
            assert wait_until(lambda: fake.submitted)
            assert fake.submitted[0]["top_k"] == 5
            fake.resolve(latency=0.02)
            result = future.result(timeout=5.0)
        assert result.entity_ids == [1, 2, 3]
        counters = fake.metrics.snapshot().counters
        assert counters["admitted{tenant=default}"] == 1

    def test_ratelimit_sheds_with_retry_after(self, fake):
        clock = ManualClock()
        config = GatewayConfig(tenants=(
            TenantConfig("slow", rate=2.0, burst=1),), default_tenant=None)
        with Gateway(fake, config, clock=clock) as gateway:
            gateway.submit("q1", tenant="slow")
            with pytest.raises(GatewayRejected) as excinfo:
                gateway.submit("q2", tenant="slow")
            assert excinfo.value.reason == "ratelimit"
            assert excinfo.value.status == 429
            assert excinfo.value.retry_after == pytest.approx(0.5)
            clock.advance(0.5)  # bucket refills one token
            gateway.submit("q3", tenant="slow")
        counters = fake.metrics.snapshot().counters
        assert counters["shed{reason=ratelimit,tenant=slow}"] == 1
        assert counters["admitted{tenant=slow}"] == 2

    def test_unknown_tenant_rejected_when_no_default(self, fake):
        config = GatewayConfig(tenants=(TenantConfig("known"),),
                               default_tenant=None)
        with Gateway(fake, config) as gateway:
            with pytest.raises(GatewayRejected) as excinfo:
                gateway.submit("q", tenant="stranger")
            assert excinfo.value.reason == "unknown_tenant"

    def test_default_tenant_template_applies(self, fake):
        template = TenantConfig("default", rate=2.0, burst=1)
        config = GatewayConfig(default_tenant=template)
        with Gateway(fake, config) as gateway:
            gateway.submit("q", tenant="newcomer")
            with pytest.raises(GatewayRejected):  # template's burst of 1
                gateway.submit("q2", tenant="newcomer")

    def test_queue_full_sheds(self, fake):
        config = GatewayConfig(tenants=(
            TenantConfig("t", max_queue=2),), default_tenant=None,
            max_inflight=1)
        with Gateway(fake, config) as gateway:
            gateway.submit("q1", tenant="t")  # dispatches (inflight 1/1)
            assert wait_until(lambda: fake.submitted)
            gateway.submit("q2", tenant="t")  # queued
            gateway.submit("q3", tenant="t")  # queued (max_queue=2)
            with pytest.raises(GatewayRejected) as excinfo:
                gateway.submit("q4", tenant="t")
            assert excinfo.value.reason == "queue_full"
            assert excinfo.value.retry_after > 0 or True  # present field
            fake.resolve(0)
            assert wait_until(lambda: len(fake.submitted) >= 2)

    def test_unknown_priority_is_a_caller_error(self, fake):
        with Gateway(fake) as gateway:
            with pytest.raises(ValueError, match="priority"):
                gateway.submit("q", priority="turbo")


class TestScheduling:
    def test_interactive_dispatches_before_batch(self, fake):
        config = GatewayConfig(max_inflight=1)
        with Gateway(fake, config) as gateway:
            blocker = gateway.submit("blocker")
            assert wait_until(lambda: len(fake.submitted) == 1)
            gateway.submit("bulk1", priority="batch")
            gateway.submit("bulk2", priority="batch")
            ui = gateway.submit("ui", priority="interactive")
            fake.resolve(0)
            assert wait_until(lambda: len(fake.submitted) == 2)
            assert fake.submitted[1]["query"] == "ui"
            for index in (1, 2, 3):
                fake.resolve(index)
                wait_until(
                    lambda: len(fake.submitted) >= min(index + 2, 4))
            assert [s["query"] for s in fake.submitted] == \
                ["blocker", "ui", "bulk1", "bulk2"]
            blocker.result(5.0), ui.result(5.0)

    def test_weighted_fairness_across_tenants(self, fake):
        config = GatewayConfig(tenants=(
            TenantConfig("heavy", weight=3.0),
            TenantConfig("light", weight=1.0)), default_tenant=None,
            max_inflight=1)
        with Gateway(fake, config) as gateway:
            gateway.submit("blocker", tenant="heavy")
            assert wait_until(lambda: len(fake.submitted) == 1)
            for index in range(12):
                gateway.submit(f"h{index}", tenant="heavy")
                gateway.submit(f"l{index}", tenant="light")
            for step in range(1 + 8):
                fake.resolve(step)
                assert wait_until(
                    lambda: len(fake.submitted) >= step + 2)
            served = [s["query"][0] for s in fake.submitted[1:9]]
            assert served.count("h") == 6  # 3:1 over the contended run
            assert served.count("l") == 2


class TestDeadlines:
    def test_deadline_passes_remaining_to_runtime(self, fake):
        clock = ManualClock()
        with Gateway(fake, clock=clock) as gateway:
            gateway.submit("q", deadline=0.75)
            assert wait_until(lambda: fake.submitted)
            # frozen clock, immediate dispatch: the full budget survives
            # the gateway hop bit-for-bit
            assert fake.submitted[0]["deadline"] == 0.75

    def test_expired_while_queued_sheds_before_batcher(self, fake):
        clock = ManualClock()
        config = GatewayConfig(max_inflight=1)
        with Gateway(fake, config, clock=clock) as gateway:
            gateway.submit("blocker")
            assert wait_until(lambda: fake.submitted)
            doomed = gateway.submit("late", deadline=0.05)
            clock.advance(0.2)  # deadline passes while queued
            fake.resolve(0)
            with pytest.raises(GatewayRejected) as excinfo:
                doomed.result(timeout=5.0)
            assert excinfo.value.reason == "deadline"
            # the batcher never saw the doomed request
            assert wait_until(
                lambda: "shed{reason=deadline,tenant=default}"
                in fake.metrics.snapshot().counters)
            assert len(fake.submitted) == 1

    def test_doomed_at_admission_uses_service_estimate(self, fake):
        clock = ManualClock()
        with Gateway(fake, clock=clock) as gateway:
            first = gateway.submit("warm")
            assert wait_until(lambda: fake.submitted)
            fake.resolve(0, latency=0.1)  # seeds the EWMA at 100 ms
            first.result(timeout=5.0)
            assert wait_until(
                lambda: gateway.stats()["est_service_ms"] > 0)
            with pytest.raises(GatewayRejected) as excinfo:
                gateway.submit("q", deadline=0.01)  # 10 ms budget
            assert excinfo.value.reason == "doomed"
        counters = fake.metrics.snapshot().counters
        assert counters["shed{reason=doomed,tenant=default}"] == 1


class TestLifecycle:
    def test_close_sheds_queue_and_rejects_new_submits(self, fake):
        config = GatewayConfig(max_inflight=1)
        gateway = Gateway(fake, config)
        inflight = gateway.submit("inflight")
        assert wait_until(lambda: fake.submitted)
        queued = gateway.submit("queued")
        gateway.close()
        with pytest.raises(GatewayRejected) as excinfo:
            queued.result(timeout=5.0)
        assert excinfo.value.reason == "shutdown"
        with pytest.raises(GatewayRejected):
            gateway.submit("after-close")
        gateway.close()  # idempotent
        # the in-flight request still resolves through the runtime
        fake.resolve(0)
        assert inflight.result(timeout=5.0).entity_ids == [1, 2, 3]

    def test_stats_shape(self, fake):
        with Gateway(fake) as gateway:
            stats = gateway.stats()
        assert stats["queued"] == 0
        assert stats["inflight"] == 0
        assert "est_service_ms" in stats and "tenants" in stats


class TestMetricHandles:
    def test_a_known_tenant_renders_no_labelled_key(self, fake,
                                                    monkeypatch):
        """``admitted``, ``tenant_queue`` (twice) and
        ``gateway_latency_ms`` were four labelled lookups — four key
        renders — per request; the tenant's state now holds them."""
        from repro.obs import metrics

        with Gateway(fake) as gateway:
            warm = gateway.submit("warm", tenant="acme")
            fake.resolve(0)
            warm.result(timeout=5.0)
            rendered = []
            render = metrics.metric_key
            monkeypatch.setattr(
                metrics, "metric_key",
                lambda name, labels=None: (
                    rendered.append(name) if labels else None,
                    render(name, labels))[1])
            future = gateway.submit("q", tenant="acme")
            fake.resolve(1)
            future.result(timeout=5.0)
            monkeypatch.undo()
        assert rendered == []
        snapshot = fake.metrics.snapshot()
        assert snapshot.counters["admitted{tenant=acme}"] == 2
        assert snapshot.histograms[
            "gateway_latency_ms{tenant=acme}"].count == 2
        assert snapshot.gauges["tenant_queue{tenant=acme}"] == 0

    def test_a_tenant_has_no_series_before_its_first_event(self, fake):
        """Handles resolve on first use: configuring a tenant adds
        nothing to ``/metrics`` until it is admitted, queued, served."""
        config = GatewayConfig(tenants=(TenantConfig("quiet"),))
        with Gateway(fake, config):
            snapshot = fake.metrics.snapshot()
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
