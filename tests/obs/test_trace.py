"""Tracer core: nesting, pre-timed and concurrent recording, enable/disable."""

import threading

import pytest

from repro import obs
from repro.obs.trace import _NULL_CONTEXT

pytestmark = pytest.mark.obs


@pytest.fixture
def tracer():
    with obs.enabled():
        yield obs.Tracer()


class TestNesting:
    def test_spans_nest_in_thread(self, tracer):
        with tracer.span("outer"):
            with tracer.span("inner", detail=1):
                pass
        outer = next(s for s in tracer.finished() if s.name == "outer")
        inner = next(s for s in tracer.finished() if s.name == "inner")
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        assert inner.attrs == {"detail": 1}
        assert 0.0 <= inner.duration <= outer.duration

    def test_siblings_share_parent(self, tracer):
        with tracer.span("root"):
            with tracer.span("a"):
                pass
            with tracer.span("b"):
                pass
        spans = {s.name: s for s in tracer.finished()}
        assert spans["a"].parent_id == spans["root"].span_id
        assert spans["b"].parent_id == spans["root"].span_id

    def test_current_tracks_stack(self, tracer):
        assert tracer.current() is None
        with tracer.span("x") as span:
            assert tracer.current() is span
        assert tracer.current() is None

    def test_exception_still_closes(self, tracer):
        with pytest.raises(ValueError):
            with tracer.span("broken"):
                raise ValueError("boom")
        [span] = tracer.finished()
        assert span.name == "broken" and span.end is not None
        assert tracer.current() is None


class TestCrossThread:
    def test_record_pretimed_interval(self, tracer):
        with tracer.span("request") as root:
            span = tracer.record("embed", 1.0, 1.5, parent=root, batch=4)
        assert span.parent_id == root.span_id
        assert span.duration == pytest.approx(0.5)
        assert tracer.stage_stats()["embed"].total_ms == pytest.approx(500.0)

    def test_concurrent_span_recording_is_safe(self, tracer):
        def hammer():
            for _ in range(200):
                with tracer.span("work"):
                    pass

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert tracer.stage_stats()["work"].count == 800


class TestEnabledFlag:
    def test_disabled_span_is_shared_null_context(self):
        tracer = obs.Tracer()
        assert not obs.is_enabled()
        assert tracer.span("x") is _NULL_CONTEXT
        with tracer.span("x") as span:
            assert span is None
        assert tracer.finished() == []

    def test_disabled_record_returns_none(self):
        tracer = obs.Tracer()
        assert tracer.record("x", 0.0, 1.0) is None
        assert tracer.finished() == []

    def test_enable_disable_roundtrip(self):
        assert not obs.is_enabled()
        obs.enable()
        try:
            assert obs.is_enabled()
        finally:
            obs.disable()
        assert not obs.is_enabled()

    def test_enabled_scope_restores(self):
        with obs.enabled():
            assert obs.is_enabled()
            with obs.enabled(False):
                assert not obs.is_enabled()
            assert obs.is_enabled()
        assert not obs.is_enabled()


class TestAggregation:
    def test_stage_stats(self, tracer):
        tracer.record("s", 0.0, 0.010)
        tracer.record("s", 0.0, 0.030)
        stats = tracer.stage_stats()["s"]
        assert stats.count == 2
        assert stats.total_ms == pytest.approx(40.0)
        assert stats.mean_ms == pytest.approx(20.0)
        assert stats.max_ms == pytest.approx(30.0)

    def test_reset_clears(self, tracer):
        with tracer.span("x"):
            pass
        tracer.reset()
        assert tracer.finished() == []
        assert tracer.stage_stats() == {}

    def test_ring_buffer_bounds_memory(self):
        with obs.enabled():
            tracer = obs.Tracer(max_spans=10)
            for _ in range(50):
                with tracer.span("x"):
                    pass
        assert len(tracer.finished()) == 10
        assert tracer.stage_stats()["x"].count == 50  # lifetime aggregate

    def test_set_tracer_swaps_default(self):
        fresh = obs.Tracer()
        previous = obs.set_tracer(fresh)
        try:
            assert obs.get_tracer() is fresh
        finally:
            obs.set_tracer(previous)
        assert obs.get_tracer() is previous
