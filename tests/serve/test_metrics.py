"""Counters, gauges, histograms, snapshots."""

import pytest

from repro.serve import Histogram, MetricsRegistry, format_snapshot


class TestPrimitives:
    def test_counter(self):
        registry = MetricsRegistry()
        counter = registry.counter("requests")
        counter.inc()
        counter.inc(4)
        assert registry.counter("requests").value == 5

    def test_gauge(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("depth")
        gauge.set(3)
        gauge.add(-1)
        assert gauge.value == 2.0

    def test_histogram_percentiles(self):
        histogram = Histogram(window=1000)
        for value in range(1, 101):
            histogram.observe(float(value))
        stats = histogram.stats()
        assert stats.count == 100
        assert stats.p50 == pytest.approx(50.5)
        assert stats.p99 == pytest.approx(99.01)
        assert stats.max == 100.0

    def test_histogram_window_slides(self):
        histogram = Histogram(window=10)
        for value in range(100):
            histogram.observe(float(value))
        stats = histogram.stats()
        assert stats.count == 100       # lifetime count
        assert stats.p50 >= 90.0        # percentiles over the window only

    def test_empty_histogram(self):
        stats = Histogram().stats()
        assert stats.count == 0 and stats.p99 == 0.0


class TestSnapshot:
    def test_hit_rate(self):
        registry = MetricsRegistry()
        registry.counter("answer_cache_hits").inc(3)
        registry.counter("answer_cache_misses").inc(1)
        snapshot = registry.snapshot()
        assert snapshot.hit_rate("answer_cache") == pytest.approx(0.75)
        assert snapshot.hit_rate("embedding_cache") == 0.0

    def test_format_contains_percentiles_and_hit_rate(self):
        registry = MetricsRegistry()
        registry.counter("answer_cache_hits").inc(1)
        registry.counter("answer_cache_misses").inc(1)
        registry.histogram("latency_ms").observe(5.0)
        registry.gauge("queue_depth").set(2)
        text = format_snapshot(registry.snapshot())
        for needle in ("p50", "p95", "p99", "answer_cache_hit_rate",
                       "queue_depth", "latency_ms"):
            assert needle in text


class TestReset:
    def test_reset_drops_samples_and_count(self):
        histogram = Histogram()
        for value in (1.0, 2.0, 3.0):
            histogram.observe(value)
        histogram.reset()
        assert histogram.count == 0
        stats = histogram.stats()
        assert stats.count == 0 and stats.mean == 0.0

    def test_observing_after_reset_starts_fresh(self):
        histogram = Histogram()
        histogram.observe(100.0)
        histogram.reset()
        histogram.observe(4.0)
        assert histogram.stats().max == 4.0


class TestSnapshotRendering:
    def test_zero_sample_histogram_renders_no_samples(self):
        registry = MetricsRegistry()
        registry.histogram("latency_ms")  # created, never observed
        text = format_snapshot(registry.snapshot())
        assert "(no samples)" in text
        assert "nan" not in text.lower()

    def test_non_finite_samples_are_dropped_at_observe(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("latency_ms")
        histogram.observe(float("nan"))
        histogram.observe(float("inf"))
        histogram.observe(3.0)
        stats = registry.snapshot().histograms["latency_ms"]
        assert stats.count == 1      # non-finite never enter the window
        assert stats.dropped == 2    # ... but the drops are counted
        assert stats.p50 == 3.0
        snapshot = registry.snapshot()
        assert snapshot.counters[
            "dropped_samples{histogram=latency_ms}"] == 2
        assert "nan" not in format_snapshot(snapshot).lower()

    def test_stages_section_rendered(self):
        from repro import obs

        with obs.enabled():
            tracer = obs.Tracer()
            tracer.record("serve.embed", 0.0, 0.010)
        registry = MetricsRegistry()
        snapshot = registry.snapshot()
        snapshot.stages = tracer.stage_stats()
        text = format_snapshot(snapshot)
        assert "stages (span timings, ms):" in text
        assert "serve.embed" in text
