"""Production diagnostics units: flight recorder, tail sampler, SLO engine.

Everything here is pure and socket-free — the HTTP surface is covered in
``tests/serve/test_debug_http.py`` and the end-to-end wiring in
``tests/serve/test_diag_runtime.py`` / ``tests/gateway/test_diag_gateway.py``.
"""

import gc
import json
import os
import re
import sys
import threading
import time
import weakref

import pytest

from repro import obs
from repro.obs.diag import (DEFAULT_SLOS, DiagConfig, Diagnostics,
                            FlightRecord, FlightRecorder, RequestContext,
                            SloEngine, SloObjective, TailSampler,
                            next_request_id)
from repro.obs.metrics import MetricsRegistry

pytestmark = [pytest.mark.obs, pytest.mark.diag]


class ManualClock:
    def __init__(self, now: float = 1000.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestRequestIds:
    def test_shape_is_pid_hex_plus_counter(self):
        rid = next_request_id()
        match = re.fullmatch(r"r([0-9a-f]+)-(\d{8})", rid)
        assert match is not None
        assert int(match.group(1), 16) == os.getpid()

    def test_monotonic_and_unique(self):
        ids = [next_request_id() for _ in range(100)]
        assert len(set(ids)) == 100
        assert ids == sorted(ids)  # zero-padded counter sorts correctly


class TestFlightRecord:
    def test_to_dict_is_json_safe_and_drops_root_span(self):
        record = FlightRecord(request_id="r1", tenant="acme",
                              latency_ms=1.5)
        row = record.to_dict()
        json.dumps(row)  # every field is a JSON scalar or a plain dict
        assert "root_span" not in row  # the span lives on the context
        assert row["request_id"] == "r1"
        assert row["tenant"] == "acme"
        assert row["latency_ms"] == 1.5


class TestFlightRecorder:
    def test_ring_evicts_but_total_keeps_counting(self):
        recorder = FlightRecorder(capacity=3)
        for index in range(5):
            recorder.append(FlightRecord(request_id=f"r{index}"))
        assert len(recorder) == 3
        assert recorder.total == 5
        assert [r.request_id for r in recorder.dump()] == \
            ["r4", "r3", "r2"]  # newest first, oldest evicted

    def test_dump_filters(self):
        recorder = FlightRecorder(capacity=16)
        for index in range(6):
            recorder.append(FlightRecord(
                request_id=f"r{index}",
                tenant="acme" if index % 2 else "bits",
                latency_ms=float(index)))
        assert len(recorder.dump(n=2)) == 2
        assert recorder.dump(n=0) == recorder.dump(n=-1) == []
        acme = recorder.dump(tenant="acme")
        assert {r.tenant for r in acme} == {"acme"}
        slow = recorder.dump(min_ms=4.0)
        assert [r.request_id for r in slow] == ["r5", "r4"]
        assert recorder.dump(request_id="r3")[0].request_id == "r3"
        assert recorder.dump(request_id="nope") == []

    def test_min_ms_uses_total_when_larger(self):
        """A gateway-queued request can spend its life *waiting*; the
        latency filter must see total_ms, not just runtime latency."""
        recorder = FlightRecorder()
        recorder.append(FlightRecord(request_id="r1", latency_ms=1.0,
                                     total_ms=100.0))
        assert recorder.dump(min_ms=50.0) != []

    def test_get_returns_none_for_unknown(self):
        recorder = FlightRecorder()
        assert recorder.get("nope") is None

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)


class TestTailSampler:
    @staticmethod
    def record(latency_ms=1.0, error=""):
        return FlightRecord(request_id="r", latency_ms=latency_ms,
                            error=error)

    @staticmethod
    def verdict(sampler, record):
        """The sampler's verdict on a completion with a tree to keep."""
        return sampler.complete(record, lambda: ["tree"])

    def test_error_always_retained(self):
        sampler = TailSampler(top_p=None)
        assert self.verdict(sampler, self.record(error="deadline")) == "error"

    def test_latency_threshold(self):
        sampler = TailSampler(latency_threshold_ms=10.0, top_p=None)
        assert self.verdict(sampler, self.record(latency_ms=9.0)) == ""
        assert self.verdict(sampler, self.record(latency_ms=10.0)) == "slow"

    def test_top_p_needs_warmup(self):
        sampler = TailSampler(top_p=0.05, warmup=50)
        # a huge outlier before warmup is NOT retained: with no history
        # the quantile is meaningless, so the sampler stays quiet
        assert self.verdict(sampler, self.record(latency_ms=1e6)) == ""

    def test_top_p_catches_the_rolling_tail(self):
        sampler = TailSampler(top_p=0.05, warmup=50)
        for _ in range(100):
            assert self.verdict(sampler, self.record(latency_ms=1.0)) == ""
        assert self.verdict(sampler, self.record(latency_ms=50.0)) == "top_p"
        # and the fast path stays unretained afterwards
        assert self.verdict(sampler, self.record(latency_ms=1.0)) == ""

    def test_retain_ring_bounded_by_max_traces(self):
        sampler = TailSampler(max_traces=2)
        for index in range(4):
            sampler.complete(FlightRecord(f"r{index}", error="shed"),
                             lambda index=index: [index])
        assert len(sampler) == 2
        assert sampler.request_ids() == ["r2", "r3"]
        assert sampler.trace("r0") is None
        assert sampler.trace("r3") == [3]
        assert (sampler.retained, sampler.discarded) == (4, 0)

    def test_a_keeper_without_spans_is_counted_discarded(self):
        """A request shed at the door entered no layer: the verdict
        says keep, but there is no tree, so nothing is retained."""
        sampler = TailSampler(top_p=None)
        assert sampler.complete(self.record(error="ratelimit"), list) == ""
        assert (sampler.retained, sampler.discarded, len(sampler)) == \
            (0, 1, 0)

    def test_render_runs_only_for_a_keeper(self):
        sampler = TailSampler(latency_threshold_ms=10.0, top_p=None)
        calls = []

        def render():
            calls.append(1)
            return ["tree"]

        assert sampler.complete(self.record(latency_ms=1.0), render) == ""
        assert calls == []
        assert sampler.complete(self.record(latency_ms=20.0),
                                render) == "slow"
        assert calls == [1]

    @staticmethod
    def sort_every_time(sampler_args, records):
        """The verdict rule as first written: sort the window's previous
        contents on every completion, then decide.  The reference the
        bisect-maintained window must reproduce."""
        from collections import deque
        threshold = sampler_args.get("latency_threshold_ms")
        top_p = sampler_args.get("top_p", 0.05)
        warmup = sampler_args.get("warmup", 50)
        latencies = deque(maxlen=sampler_args.get("quantile_window", 512))
        for record in records:
            latency = max(record.latency_ms, record.total_ms)
            window = sorted(latencies)
            latencies.append(latency)
            if record.error:
                yield "error"
            elif threshold is not None and latency >= threshold:
                yield "slow"
            elif top_p is not None and len(window) >= warmup \
                    and latency > window[int((1.0 - top_p)
                                             * (len(window) - 1))]:
                yield "top_p"
            else:
                yield ""

    @pytest.mark.parametrize("sampler_args", [
        {},
        {"top_p": 0.2, "quantile_window": 64, "warmup": 10},
        {"top_p": 1.0, "quantile_window": 1, "warmup": 1},
        {"latency_threshold_ms": 40.0, "quantile_window": 100},
        {"latency_threshold_ms": 40.0, "top_p": None},
    ])
    def test_verdicts_match_the_sort_every_time_rule(self, sampler_args):
        """2 000 completions — ties, errors, a window that
        wraps many times over — get the verdicts a full sort per
        completion gave."""
        import random
        rng = random.Random(7)
        records = []
        for _ in range(2000):
            record = self.record(
                # few distinct values: plenty of exact ties at the cut
                latency_ms=rng.choice([1.0, 1.0, 2.0, 5.0, 5.0, 30.0,
                                       rng.uniform(0.5, 80.0)]),
                error="deadline" if rng.random() < 0.03 else "")
            record.total_ms = rng.choice([0.0, record.latency_ms + 1.0])
            records.append(record)
        sampler = TailSampler(**sampler_args)
        got = [self.verdict(sampler, record) for record in records]
        want = list(self.sort_every_time(sampler_args, records))
        assert got == want
        assert {"error", ""} <= set(want)
        assert ("top_p" in want) == (sampler_args.get("top_p", 0.05)
                                     is not None)

    def test_window_stays_ordered_under_concurrent_completions(self):
        """The sorted twin of the window is shared state: four threads
        deciding at once must leave it the sorted window, no sample lost
        or left behind."""
        import sys
        import threading
        sampler = TailSampler(top_p=0.05, quantile_window=64, warmup=10)

        def complete(seed):
            for step in range(500):
                self.verdict(sampler, self.record(
                    latency_ms=float((seed * 7919 + step * 31) % 97)))

        threads = [threading.Thread(target=complete, args=(seed,))
                   for seed in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(sampler._latencies) == 64
        assert sampler._ordered == sorted(sampler._latencies)

    def test_validation(self):
        with pytest.raises(ValueError):
            TailSampler(top_p=0.0)
        with pytest.raises(ValueError):
            TailSampler(top_p=1.5)
        with pytest.raises(ValueError):
            TailSampler(max_traces=0)
        with pytest.raises(ValueError):
            TailSampler(quantile_window=0)


class TestSloObjective:
    def test_budget_is_one_minus_target(self):
        assert SloObjective("a", 0.999).budget == pytest.approx(0.001)

    def test_validation(self):
        with pytest.raises(ValueError):
            SloObjective("a", 1.0)
        with pytest.raises(ValueError):
            SloObjective("a", 0.99, kind="latency")  # no threshold
        with pytest.raises(ValueError):
            SloObjective("a", 0.99, kind="nope")

    def test_defaults_declare_availability_and_latency(self):
        kinds = {o.kind for o in DEFAULT_SLOS}
        assert kinds == {"availability", "latency"}
        latency = next(o for o in DEFAULT_SLOS if o.kind == "latency")
        assert latency.threshold_ms == 50.0


class TestSloEngine:
    @staticmethod
    def engine(clock, registry=None):
        return SloEngine([SloObjective("availability", 0.999)],
                         registry=registry, clock=clock)

    def test_no_traffic_means_zero_burn(self):
        clock = ManualClock()
        engine = self.engine(clock)
        assert engine.burn_rate(engine.objectives[0], 300.0) == 0.0

    def test_all_good_means_zero_burn(self):
        clock = ManualClock()
        engine = self.engine(clock)
        for _ in range(10):
            engine.observe(ok=True)
        assert engine.burn_rate(engine.objectives[0], 300.0) == 0.0

    def test_burn_is_bad_fraction_over_budget(self):
        clock = ManualClock()
        engine = self.engine(clock)
        for _ in range(9):
            engine.observe(ok=True)
        engine.observe(ok=False)
        # bad fraction 0.1, budget 0.001 -> burn 100
        assert engine.burn_rate(engine.objectives[0], 300.0) == \
            pytest.approx(100.0)

    def test_events_age_out_of_the_window(self):
        clock = ManualClock()
        engine = self.engine(clock)
        engine.observe(ok=False)
        assert engine.burn_rate(engine.objectives[0], 300.0) > 0
        clock.advance(400.0)  # past the 5m window
        assert engine.burn_rate(engine.objectives[0], 300.0) == 0.0
        clock.advance(30000.0)  # past the whole 6h horizon
        assert engine.burn_rate(engine.objectives[0], 21600.0) == 0.0

    def test_long_window_vetoes_a_brief_blip(self):
        """The point of multiwindow alerts: a short bad burst after an
        hour of good traffic trips the 5m burn but not the 1h (or 6h)
        burn, so no alert fires; a sustained burst fires ``fast``."""
        clock = ManualClock(now=0.0)
        engine = self.engine(clock)
        for _ in range(720):  # one good event / 5s for an hour
            engine.observe(ok=True)
            clock.advance(5.0)
        for _ in range(4):  # blip: 4 bad in the last bucket
            engine.observe(ok=False)
        (entry,) = engine.evaluate()
        assert entry["burn_rates"]["5m"] > 14.4  # short window screams
        assert entry["alert"] == ""  # ...but the long windows veto it
        for _ in range(200):  # sustained brownout
            engine.observe(ok=False)
        (entry,) = engine.evaluate()
        assert entry["alert"] == "fast"
        assert entry["burn_rates"]["1h"] > 14.4

    def test_latency_objective_counts_slow_and_errored_as_bad(self):
        clock = ManualClock()
        engine = SloEngine(
            [SloObjective("lat", 0.9, kind="latency", threshold_ms=50.0)],
            clock=clock)
        engine.observe(ok=True, latency_ms=10.0)   # good
        engine.observe(ok=True, latency_ms=100.0)  # slow -> bad
        engine.observe(ok=False, latency_ms=1.0)   # errored -> bad
        # bad fraction 2/3, budget 0.1 -> burn 6.66
        assert engine.burn_rate(engine.objectives[0], 300.0) == \
            pytest.approx((2 / 3) / 0.1)

    def test_evaluate_publishes_gauges(self):
        clock = ManualClock()
        registry = MetricsRegistry()
        engine = self.engine(clock, registry=registry)
        engine.observe(ok=False)
        engine.evaluate()
        gauges = registry.snapshot().gauges
        assert gauges["slo_burn_rate{slo=availability,window=5m}"] > 0
        assert "slo_alert_active{slo=availability}" in gauges

    def test_duplicate_slo_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            SloEngine([SloObjective("a", 0.99),
                       SloObjective("a", 0.999)])


class TestRequestContext:
    @staticmethod
    def diag(**config):
        return Diagnostics(DiagConfig(trace_top_p=None, **config),
                           registry=MetricsRegistry())

    @staticmethod
    def context(diag, **kwargs):
        return RequestContext("owner", diag, obs.get_tracer(), **kwargs)

    def test_context_mints_id_and_carries_its_record(self):
        ctx = self.context(self.diag(), tenant="acme")
        assert re.fullmatch(r"r[0-9a-f]+-\d{8}", ctx.request_id)
        assert ctx.record.request_id == ctx.request_id
        assert ctx.record.tenant == "acme"
        assert ctx.owner == "owner"
        # an upstream id (a caller's ticket) is honoured, not re-minted
        assert self.context(None, request_id="ticket-42").request_id == \
            "ticket-42"

    def test_finish_is_exactly_once_under_a_race(self):
        """A gateway shutting down and a runtime resolving may both try
        to finish one context: exactly one of them commits."""
        diag = self.diag()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # force switches inside finish()
        try:
            for _ in range(50):
                ctx = self.context(diag)
                barrier = threading.Barrier(4)
                wins = []

                def racer():
                    barrier.wait(timeout=10)
                    wins.append(ctx.finish())

                threads = [threading.Thread(target=racer)
                           for _ in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=10)
                    assert not thread.is_alive()
                assert sorted(wins) == [False, False, False, True]
        finally:
            sys.setswitchinterval(interval)
        assert diag.flight.total == 50

    def test_context_without_recorder_commits_nowhere(self):
        """Diagnostics off: the id is still minted, stages still land on
        the record, and finish simply has no ring to append to."""
        ctx = self.context(None)
        ctx.stage("serve.embed", 1.0, 1.5)
        assert ctx.request_id
        assert ctx.record.embed_ms == 500.0
        assert ctx.finish()
        assert ctx.record.completed_at == 0.0

    def test_unfinished_context_leaks_nothing(self):
        """Nothing but its creator holds a context, so one that is never
        finished is plain garbage: no registry to bound, nothing
        committed, nothing kept alive."""
        diag = self.diag()
        ctx = self.context(diag)
        ref = weakref.ref(ctx.record)  # held by the context alone
        del ctx
        gc.collect()
        assert ref() is None
        assert diag.flight.total == 0

    def test_stage_writes_field_and_span_from_one_pair_of_instants(self):
        diag = self.diag(trace_latency_ms=0.0)
        ctx = self.context(diag)
        ctx.enter("serve.request", top_k=3)
        ctx.stage("serve.rank", 10.0, 10.25, {"batch_size": 1})
        ctx.stage("serve.fallback", 11.0, 11.5)  # span only
        ctx.finish()
        spans = {s.name: s for s in diag.trace(ctx.request_id)}
        root, rank = spans["serve.request"], spans["serve.rank"]
        assert rank.parent_id == spans["serve.fallback"].parent_id \
            == root.span_id
        assert rank.attrs == {"batch_size": 1,
                              "request_id": ctx.request_id}
        assert ctx.record.rank_ms == rank.duration_ms == 250.0
        assert root.end is not None  # finish closed the open layer
        assert root.attrs == {"top_k": 3, "request_id": ctx.request_id}

    def test_layers_nest_and_the_first_is_the_root(self):
        ctx = RequestContext("owner", None, obs.Tracer())
        ctx.enter("gateway.request")
        ctx.enter("serve.request")
        ctx.leave(source="model")
        ctx.stage("gateway.queue", 1.0, 2.0)  # now under the root
        ctx.finish()
        spans = {s.name: s for s in ctx.spans()}
        outer, inner = spans["gateway.request"], spans["serve.request"]
        assert outer.parent_id is None
        assert inner.parent_id == outer.span_id
        assert spans["gateway.queue"].parent_id == outer.span_id
        assert inner.attrs["source"] == "model"
        # leave closed the inner layer; finish closed the root later
        assert outer.start <= inner.start <= inner.end <= outer.end

    def test_the_root_nests_under_the_callers_open_span(self):
        """A request begun inside a traced caller (the SPARQL engine's
        ``sparql.answer``) hangs its tree under that caller's span."""
        with obs.enabled():
            tracer = obs.Tracer()
            with tracer.span("sparql.answer") as caller:
                ctx = RequestContext("owner", None, tracer)
                ctx.enter("serve.request")
            ctx.finish()
        (root,) = [s for s in tracer.finished()
                   if s.name == "serve.request"]
        assert root.parent_id == caller.span_id

    def test_tracing_off_means_no_spans_but_the_same_record(self):
        tracer = obs.Tracer()
        ctx = RequestContext("owner", None, tracer)
        ctx.enter("serve.request")
        ctx.tag(structure="P(E)")
        ctx.stage("serve.queue", 0.0, 0.002)
        ctx.leave(source="model")
        ctx.finish()
        assert ctx.record.queue_ms == 2.0
        assert tracer.finished() == []
        assert tracer.stage_stats() == {}

    def test_a_kept_tree_is_the_same_with_tracing_on_and_off(
            self, monkeypatch):
        """Spans are a rendering of the stamps: the tracing flag decides
        only whether the tree also lands in the tracer's ring."""
        from types import SimpleNamespace

        import repro.obs.diag as diag_module

        def run(tracing):
            ticks = iter(range(100, 200))
            monkeypatch.setattr(diag_module, "time", SimpleNamespace(
                perf_counter=lambda: float(next(ticks)), time=time.time))
            diag = self.diag(trace_latency_ms=0.0)
            tracer = obs.Tracer()
            with obs.enabled(tracing):
                ctx = RequestContext("owner", diag, tracer)
                ctx.enter("gateway.request", tenant="acme")
                ctx.enter("serve.request", top_k=3)
                ctx.stage("serve.canonicalise", 101.0, 101.5)
                ctx.stage("serve.queue", 101.5, 102.0)
                ctx.stage("serve.embed", 102.0, 103.0, {"batch_size": 1})
                ctx.leave(source="model")
                ctx.finish(latency_ms=5.0)
            tree = diag.trace(ctx.request_id)
            assert ctx.record.trace_retained
            assert tracer.finished() == (tree if tracing else [])
            return [(s.name, s.span_id, s.parent_id, s.start, s.end,
                     s.thread) for s in tree]

        traced, untraced = run(True), run(False)
        assert traced == untraced
        assert [name for name, *_ in traced] == [
            "gateway.request", "serve.request", "serve.canonicalise",
            "serve.queue", "serve.embed"]


class TestDiagnostics:
    @staticmethod
    def diag(**kwargs):
        return Diagnostics(DiagConfig(trace_top_p=None),
                           registry=MetricsRegistry(), **kwargs)

    def test_commit_is_exactly_once(self):
        diag = self.diag()
        ctx = RequestContext("owner", diag, obs.get_tracer())
        assert ctx.finish(latency_ms=1.0)
        assert not ctx.finish(latency_ms=99.0)  # second finish: no-op
        assert diag.flight.total == 1
        assert diag.flight.get(ctx.request_id).latency_ms == 1.0

    def test_commit_feeds_the_slo_engine(self):
        diag = self.diag()
        diag.commit(FlightRecord(request_id="good", latency_ms=1.0))
        diag.commit(FlightRecord(request_id="bad", error="ratelimit"))
        availability = diag.slo.objectives[0]
        assert diag.slo.burn_rate(availability, 300.0) == \
            pytest.approx(0.5 / availability.budget)

    def test_flight_payload_shape(self):
        diag = self.diag()
        diag.commit(FlightRecord(request_id="r1", tenant="acme"))
        payload = diag.flight_payload(n=10)
        assert payload["count"] == 1
        assert payload["total_recorded"] == 1
        assert payload["records"][0]["tenant"] == "acme"
        assert payload["records"][0]["completed_at"] > 0
        assert payload["traces_retained"] == 0

    def test_slo_payload_lists_p99_exemplars(self):
        registry = MetricsRegistry()
        diag = Diagnostics(DiagConfig(trace_top_p=None), registry=registry)
        histogram = registry.histogram("latency_ms")
        for index in range(20):
            histogram.observe(float(index), exemplar=f"r{index}")
        payload = diag.slo_payload()
        latency = next(o for o in payload["objectives"]
                       if o["kind"] == "latency")
        assert latency["exemplars"], "p99 exemplars missing"
        top = latency["exemplars"][-1]
        assert top["request_id"] == "r19"
        assert top["latency_ms"] == 19.0
        assert payload["windows"]["fast"] == [300.0, 3600.0, 14.4]

    def test_trace_retention_needs_no_enabled_tracing(self):
        """With tracing off a kept request's stamps are still rendered
        at completion: the tree is retained, and nothing lands in the
        tracer's ring."""
        tracer = obs.Tracer()
        diag = Diagnostics(DiagConfig(trace_latency_ms=0.0,
                                      trace_top_p=None),
                           registry=MetricsRegistry())
        ctx = RequestContext("owner", diag, tracer)
        ctx.enter("serve.request")
        ctx.finish(latency_ms=99.0)
        assert diag.flight.total == 1
        assert ctx.record.trace_retained
        assert [s.name for s in diag.trace(ctx.request_id)] == \
            ["serve.request"]
        assert tracer.finished() == []

    def test_sampler_counts_every_commit_under_concurrency(self):
        """Eight threads committing at once: every completion is counted
        kept or discarded, none lost between the two counters."""
        diag = Diagnostics(DiagConfig(trace_latency_ms=5.0),
                           registry=MetricsRegistry())

        def commit(seed):
            for step in range(2000):
                diag.commit(FlightRecord(
                    f"r{seed}-{step}",
                    latency_ms=float((seed + step) % 10)),
                    lambda: ["tree"])

        threads = [threading.Thread(target=commit, args=(seed,))
                   for seed in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        sampler = diag.sampler
        assert sampler.retained + sampler.discarded == 16_000
        assert sampler.retained and sampler.discarded

    def test_trace_retention_keeps_the_span_subtree(self):
        registry = MetricsRegistry()
        with obs.enabled():
            tracer = obs.get_tracer()
            diag = Diagnostics(DiagConfig(trace_latency_ms=0.0,
                                          trace_top_p=None),
                               registry=registry)
            ctx = RequestContext("owner", diag, tracer)
            ctx.enter("serve.request")
            ctx.stage("serve.embed", time.perf_counter(),
                      time.perf_counter())
            ctx.finish(latency_ms=42.0)
            assert ctx.record.trace_retained
            spans = diag.trace(ctx.request_id)
            assert [s.name for s in spans] == \
                ["serve.request", "serve.embed"]
            # every retained span is stamped with the join key
            assert {s.attrs["request_id"] for s in spans} == \
                {ctx.request_id}

    def test_fast_request_leaves_no_retained_trace(self):
        with obs.enabled():
            tracer = obs.get_tracer()
            diag = Diagnostics(DiagConfig(trace_latency_ms=1000.0,
                                          trace_top_p=None),
                               registry=MetricsRegistry())
            ctx = RequestContext("owner", diag, tracer)
            ctx.enter("serve.request")
            ctx.finish(latency_ms=0.5)
            assert not ctx.record.trace_retained
            assert diag.trace(ctx.request_id) is None
            assert diag.sampler.discarded == 1
