"""Diagnostics wired through the serving runtime, end to end.

Request ids on results, flight records per request (miss and cache-hit
paths), tail-sampled trace retention under ``obs.enabled()``, histogram
exemplars, and the ``diagnostics=False`` off-switch.
"""

import pytest

from repro import obs
from repro.obs.diag import DiagConfig, RequestContext
from repro.queries import Entity, Projection
from repro.serve import ServeConfig, ServeRuntime

pytestmark = pytest.mark.diag


@pytest.fixture()
def runtime(model, tiny_kg):
    config = ServeConfig(max_batch_size=8, num_workers=1)
    with ServeRuntime(model, kg=tiny_kg, config=config) as runtime:
        yield runtime


def distinct_queries(kg, n):
    seen, out = set(), []
    for head, rel, _ in kg:
        if (head, rel) not in seen:
            seen.add((head, rel))
            out.append(Projection(rel, Entity(head)))
        if len(out) == n:
            break
    return out


class TestRequestIdsOnResults:
    def test_every_result_carries_a_distinct_id(self, runtime, tiny_kg):
        results = [runtime.answer(q, top_k=3)
                   for q in distinct_queries(tiny_kg, 5)]
        ids = [r.request_id for r in results]
        assert all(ids)
        assert len(set(ids)) == 5

    def test_caller_supplied_id_is_honoured(self, runtime, tiny_kg):
        """An upstream layer joins a request to its own diagnostics by
        handing its context in; the runtime resolves the request, so it
        finishes the context — before the future resolves."""
        (query,) = distinct_queries(tiny_kg, 1)
        ctx = RequestContext("upstream", runtime.diag, runtime.tracer,
                             request_id="ticket-42", tenant="acme")
        result = runtime.submit(query, top_k=3, ctx=ctx).result(timeout=10)
        assert result.request_id == "ticket-42"
        assert ctx.finished and not ctx.finish()  # committed once
        record = runtime.diag.flight.get("ticket-42")
        assert record.tenant == "acme"
        assert record.source == "model"  # the serve side was filled in

    def test_ids_minted_even_with_diagnostics_off(self, model, tiny_kg):
        config = ServeConfig(max_batch_size=4, num_workers=1,
                             diagnostics=False)
        with ServeRuntime(model, kg=tiny_kg, config=config) as runtime:
            assert runtime.diag is None
            (query,) = distinct_queries(tiny_kg, 1)
            result = runtime.answer(query, top_k=3)
            assert result.request_id  # the join key survives the switch
            runtime.stats()  # and stats does not trip over diag=None


class TestFlightRecords:
    def test_model_path_record_is_complete(self, runtime, tiny_kg):
        (query,) = distinct_queries(tiny_kg, 1)
        result = runtime.answer(query, top_k=3)
        record = runtime.diag.flight.get(result.request_id)
        assert record is not None
        assert record.source == "model"
        assert record.cache == "miss"
        assert record.structure  # canonical batch key, e.g. "P(E)"
        assert record.batch_size >= 1
        assert record.latency_ms > 0
        assert record.queue_ms >= 0
        assert record.embed_ms > 0
        assert record.result_count == len(result.entity_ids)
        assert record.model_version == runtime.model_version
        assert record.error == ""
        assert record.completed_at > 0

    def test_cache_hit_gets_its_own_record(self, runtime, tiny_kg):
        (query,) = distinct_queries(tiny_kg, 1)
        first = runtime.answer(query, top_k=3)
        second = runtime.answer(query, top_k=3)
        assert second.source == "answer_cache"
        assert second.request_id != first.request_id
        record = runtime.diag.flight.get(second.request_id)
        assert record.cache == "hit"
        assert record.source == "answer_cache"
        assert record.result_count == len(second.entity_ids)

    def test_commits_feed_the_slo_engine(self, runtime, tiny_kg):
        for query in distinct_queries(tiny_kg, 4):
            runtime.answer(query, top_k=3)
        availability = runtime.diag.slo.objectives[0]
        assert runtime.diag.slo.burn_rate(availability, 300.0) == 0.0
        payload = runtime.diag.slo_payload()
        assert {o["slo"] for o in payload["objectives"]} == \
            {"availability", "latency_p99"}

    def test_latency_exemplars_resolve_to_flight_entries(self, runtime,
                                                         tiny_kg):
        results = [runtime.answer(q, top_k=3)
                   for q in distinct_queries(tiny_kg, 4)]
        pairs = runtime.metrics.histogram("latency_ms").exemplars()
        assert pairs, "latency histogram recorded no exemplars"
        ids = {rid for _, rid in pairs}
        assert ids == {r.request_id for r in results}
        for rid in ids:
            assert runtime.diag.flight.get(rid) is not None


class TestSubmitAfterClose:
    def test_every_rejected_submit_gets_its_outcome(self, model, tiny_kg):
        """A closed runtime refuses the request — but the refusal is the
        request's terminal outcome: one flight record, one error count,
        its spans ended, nothing left half-open by the raise."""
        tracer = obs.Tracer()
        queries = distinct_queries(tiny_kg, 3)
        with obs.enabled():
            runtime = ServeRuntime(model, kg=tiny_kg, tracer=tracer)
            runtime.close()
            for query in queries:
                with pytest.raises(RuntimeError, match="closed"):
                    runtime.submit(query, top_k=3)
        records = runtime.diag.flight.dump()
        assert len(records) == runtime.diag.flight.total == 3
        assert {(r.source, r.error, r.cache) for r in records} == \
            {("error", "closed", "miss")}
        assert len({r.request_id for r in records}) == 3
        counters = runtime.metrics.snapshot().counters
        assert counters["requests"] == counters["errors"] == 3
        roots = [s for s in tracer.finished() if s.name == "serve.request"]
        assert len(roots) == 3  # finished() holds ended spans only
        assert {(s.attrs["source"], s.attrs["reason"]) for s in roots} == \
            {("error", "closed")}
        assert not [s for s in tracer.finished()
                    if s.name == "serve.queue"]  # never queued


class TestSubmitThatRaises:
    def test_a_query_that_cannot_be_walked_still_gets_its_outcome(
            self, model, tiny_kg):
        """Anything ``submit`` raises after it counted the request — not
        only "closed" — is that request's terminal outcome."""
        tracer = obs.Tracer()
        with obs.enabled():
            with ServeRuntime(model, kg=tiny_kg, tracer=tracer) as runtime:
                with pytest.raises(AttributeError):
                    runtime.submit("SELECT ?x", top_k=3)
                (good,) = distinct_queries(tiny_kg, 1)
                assert runtime.answer(good, top_k=3).source == "model"
                records = runtime.diag.flight.dump()
                counters = runtime.metrics.snapshot().counters
        assert len(records) == runtime.diag.flight.total == 2
        (failed,) = [r for r in records if r.error]
        assert (failed.source, failed.error) == ("error", "AttributeError")
        assert failed.latency_ms > 0.0
        assert counters["requests"] == 2 and counters["errors"] == 1
        (root,) = [s for s in tracer.finished()
                   if s.name == "serve.request"
                   and s.attrs["source"] == "error"]
        assert root.attrs["reason"] == "AttributeError"


class TestTailSampledTraces:
    def test_slow_request_trace_retained_fast_one_dropped(self, model,
                                                          tiny_kg):
        config = ServeConfig(
            max_batch_size=4, num_workers=1,
            diag=DiagConfig(trace_latency_ms=0.0, trace_top_p=None))
        with obs.enabled():
            with ServeRuntime(model, kg=tiny_kg, config=config) as runtime:
                (query,) = distinct_queries(tiny_kg, 1)
                result = runtime.answer(query, top_k=3)
                spans = runtime.diag.trace(result.request_id)
                assert spans is not None
                names = {s.name for s in spans}
                assert "serve.request" in names
                assert "serve.embed" in names
                assert {s.attrs.get("request_id") for s in spans} == \
                    {result.request_id}
                record = runtime.diag.flight.get(result.request_id)
                assert record.trace_retained

    def test_happy_path_leaves_no_retained_trace(self, model, tiny_kg):
        config = ServeConfig(
            max_batch_size=4, num_workers=1,
            diag=DiagConfig(trace_latency_ms=10_000.0, trace_top_p=None))
        with obs.enabled():
            with ServeRuntime(model, kg=tiny_kg, config=config) as runtime:
                (query,) = distinct_queries(tiny_kg, 1)
                result = runtime.answer(query, top_k=3)
                assert runtime.diag.trace(result.request_id) is None
                assert len(runtime.diag.sampler) == 0

    def test_tracing_disabled_still_records_flights(self, model, tiny_kg):
        """Tracing off, a kept request still has its tree: the record's
        stamps are rendered at completion; the tracer's ring gets
        nothing."""
        config = ServeConfig(
            max_batch_size=4, num_workers=1,
            diag=DiagConfig(trace_latency_ms=0.0, trace_top_p=None))
        tracer = obs.Tracer()
        with ServeRuntime(model, kg=tiny_kg, config=config,
                          tracer=tracer) as runtime:
            (query,) = distinct_queries(tiny_kg, 1)
            result = runtime.answer(query, top_k=3)
            record = runtime.diag.flight.get(result.request_id)
            assert record.trace_retained
            spans = runtime.diag.trace(result.request_id)
            assert {"serve.request", "serve.embed"} <= \
                {s.name for s in spans}
            assert tracer.finished() == []

    def test_retention_never_reads_the_tracer_ring(self, model, tiny_kg):
        """Keeping a request costs its own tree, not a walk of every
        span the tracer holds."""
        class RinglessTracer(obs.Tracer):
            def finished(self):
                raise AssertionError("retention read the tracer's ring")

        config = ServeConfig(
            max_batch_size=4, num_workers=1,
            diag=DiagConfig(trace_latency_ms=0.0, trace_top_p=None))
        with obs.enabled():
            with ServeRuntime(model, kg=tiny_kg, config=config,
                              tracer=RinglessTracer()) as runtime:
                (query,) = distinct_queries(tiny_kg, 1)
                result = runtime.answer(query, top_k=3, timeout=10.0)
                record = runtime.diag.flight.get(result.request_id)
                assert record.trace_retained
                spans = runtime.diag.trace(result.request_id)
                assert {"serve.request", "serve.embed"} <= \
                    {s.name for s in spans}


class TestUptime:
    def test_stats_publishes_uptime_gauge(self, runtime):
        runtime.stats()
        uptime = runtime.metrics.snapshot().gauges["uptime_seconds"]
        assert uptime >= 0.0
