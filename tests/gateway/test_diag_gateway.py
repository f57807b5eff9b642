"""Diagnostics through the admission layer: ids, shed records, timings.

The gateway mints the request id at admission and owns the record
commit; these tests pin that every outcome — admitted/resolved, door
shed, queue shed — lands exactly one flight record with the right
admission verdict, and that the id on the result joins back to it.
"""

import pytest

from repro import obs
from repro.dist import dist_available
from repro.gateway import Gateway, GatewayConfig, GatewayRejected
from repro.gateway.tenancy import TenantConfig
from repro.obs.diag import DiagConfig
from repro.serve import ServeConfig, ServeRuntime

pytestmark = [pytest.mark.gateway, pytest.mark.diag]


@pytest.fixture()
def served(model, tiny_kg):
    config = ServeConfig(max_batch_size=8, num_workers=1)
    gateway_config = GatewayConfig(
        tenants=(TenantConfig("starved", rate=0.001, burst=1),))
    with ServeRuntime(model, kg=tiny_kg, config=config) as runtime:
        gateway = Gateway(runtime, gateway_config)
        try:
            yield gateway, runtime
        finally:
            gateway.close()


class TestAdmittedRecords:
    def test_result_id_joins_to_a_complete_record(self, served, queries):
        gateway, runtime = served
        result = gateway.answer(queries[0], top_k=3, tenant="acme")
        assert result.request_id
        record = runtime.diag.flight.get(result.request_id)
        assert record is not None
        assert record.admission == "admitted"
        assert record.priority == "interactive"
        assert record.tenant == "acme"
        assert record.total_ms >= record.latency_ms > 0.0
        assert record.source == "model"
        assert record.error == ""

    def test_ids_are_distinct_per_request(self, served, queries):
        gateway, _ = served
        ids = [gateway.answer(q, top_k=3, tenant="acme").request_id
               for q in queries[:5]]
        assert len(set(ids)) == 5

    def test_total_includes_gateway_time(self, served, queries):
        """total_ms is the door's admission -> completion time: the
        runtime fills it from the clock read that ends latency_ms."""
        gateway, runtime = served
        result = gateway.answer(queries[1], top_k=3, tenant="acme")
        record = runtime.diag.flight.get(result.request_id)
        assert record.total_ms >= record.latency_ms


class TestRuntimeRefusal:
    def test_a_refusal_reaches_the_caller_and_the_record(self, served,
                                                         queries):
        """``runtime.submit`` refusing an admitted request (a query it
        cannot canonicalise) raises to the caller, and the
        gateway-minted context is finished once, as an error."""
        gateway, runtime = served
        with pytest.raises(AttributeError):
            gateway.answer("SELECT ?x", top_k=3, tenant="acme")
        (record,) = runtime.diag.flight.dump(tenant="acme")
        assert record.admission == "admitted"
        assert (record.source, record.error) == ("error", "AttributeError")
        assert record.total_ms > 0.0
        counters = runtime.metrics.snapshot().counters
        assert counters["requests"] == counters["errors"] == 1
        # and the gateway keeps serving
        assert gateway.answer(queries[0], top_k=3,
                              tenant="acme").source == "model"
        assert runtime.diag.flight.total == 2


class TestShedRecords:
    def test_door_shed_commits_a_record(self, served, queries):
        gateway, runtime = served
        gateway.answer(queries[0], top_k=3, tenant="starved")  # burst=1
        with pytest.raises(GatewayRejected) as excinfo:
            gateway.answer(queries[1], top_k=3, tenant="starved")
        assert excinfo.value.reason == "ratelimit"
        (shed,) = [r for r in runtime.diag.flight.dump(tenant="starved")
                   if r.error]
        assert shed.admission == "ratelimit"
        assert shed.source == "shed"
        assert shed.error == "ratelimit"
        assert shed.request_id

    def test_sheds_burn_the_availability_budget(self, served, queries):
        gateway, runtime = served
        gateway.answer(queries[0], top_k=3, tenant="starved")
        for query in queries[1:4]:
            with pytest.raises(GatewayRejected):
                gateway.answer(query, top_k=3, tenant="starved")
        availability = runtime.diag.slo.objectives[0]
        assert runtime.diag.slo.burn_rate(availability, 300.0) > 0.0

    def test_flight_total_counts_both_outcomes(self, served, queries):
        gateway, runtime = served
        before = runtime.diag.flight.total
        gateway.answer(queries[0], top_k=3, tenant="acme")
        gateway.answer(queries[1], top_k=3, tenant="starved")
        with pytest.raises(GatewayRejected):
            gateway.answer(queries[2], top_k=3, tenant="starved")
        assert runtime.diag.flight.total == before + 3


class TestGatewayWithDiagnosticsOff:
    def test_gateway_still_serves_and_ids_flow(self, model, tiny_kg,
                                               queries):
        config = ServeConfig(max_batch_size=4, num_workers=1,
                             diagnostics=False)
        with ServeRuntime(model, kg=tiny_kg, config=config) as runtime:
            gateway = Gateway(runtime, GatewayConfig())
            try:
                assert gateway.diag is None
                result = gateway.answer(queries[0], top_k=3,
                                        tenant="acme")
                assert result.request_id  # ids survive the off switch
            finally:
                gateway.close()


#: flight-record stage field -> the span timed from the same instants
STAGES = {"queue_ms": "serve.queue", "embed_ms": "serve.embed",
          "distance_ms": "serve.distance", "rank_ms": "serve.rank"}


class TestStagesAreTimedOnce:
    @pytest.mark.parametrize("shards", [0, 2])
    @pytest.mark.parametrize("burst", [1, 8, 64])
    def test_stage_fields_equal_their_span_durations(self, model, tiny_kg,
                                                     queries, burst,
                                                     shards):
        """The flight record and the span tree are two views of one
        clock read: every stage field equals, to float equality, the
        duration of the same-named span under the request's root."""
        if shards and not dist_available():
            pytest.skip("multiprocessing.shared_memory unavailable here")
        assert len(queries) >= burst
        tracer = obs.Tracer()
        config = ServeConfig(
            max_batch_size=64, num_workers=1,
            num_shards=shards,
            diag=DiagConfig(trace_latency_ms=0.0, trace_top_p=None))
        with obs.enabled():
            with ServeRuntime(model, kg=tiny_kg, config=config,
                              tracer=tracer) as runtime:
                gateway = Gateway(runtime, GatewayConfig(), tracer=tracer)
                try:
                    futures = [gateway.submit(q, top_k=3)
                               for q in queries[:burst]]
                    results = [f.result(timeout=30) for f in futures]
                finally:
                    gateway.close()
                assert runtime.diag.flight.total == burst
                for result in results:
                    record = runtime.diag.flight.get(result.request_id)
                    tree = runtime.diag.trace(result.request_id)
                    assert record.source == "model"
                    assert record.shards == shards
                    for field, name in STAGES.items():
                        (span,) = [s for s in tree if s.name == name]
                        assert getattr(record, field) == span.duration_ms
                        assert span.duration_ms > 0.0
