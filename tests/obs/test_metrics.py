"""The canonical metrics layer: labels, handles, rendering.

The label and handle surface is what the shard worker pool's owner
records per-shard series through (``tests/dist/test_telemetry.py``
checks them across real worker processes); these tests pin its
semantics single-process.
"""

import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.obs.metrics import (MetricsRegistry, format_snapshot,
                               metric_key, parse_metric_key,
                               snapshot_from_json, snapshot_to_json)

pytestmark = pytest.mark.obs


class TestMetricKeys:
    def test_plain_name_round_trips(self):
        assert metric_key("requests") == "requests"
        assert parse_metric_key("requests") == ("requests", {})

    def test_labels_sorted_and_rendered(self):
        key = metric_key("rank_requests", {"shard": 3, "host": "a"})
        assert key == "rank_requests{host=a,shard=3}"

    def test_label_order_does_not_matter(self):
        a = metric_key("m", {"x": 1, "y": 2})
        b = metric_key("m", {"y": 2, "x": 1})
        assert a == b

    def test_parse_inverts_render(self):
        key = metric_key("rank_block_ms", {"shard": 2})
        base, labels = parse_metric_key(key)
        assert base == "rank_block_ms"
        assert labels == {"shard": "2"}
        assert metric_key(base, labels) == key

    def test_specials_in_label_values_round_trip(self):
        """Values containing the key syntax itself (``, = { } \\``) must
        survive render -> parse unchanged (they used to shear the key
        apart at the first comma)."""
        labels = {"tenant": "a=b,{c}\\d", "q": "{}"}
        base, parsed = parse_metric_key(metric_key("m", labels))
        assert base == "m"
        assert parsed == labels

    @given(labels=st.dictionaries(
        st.from_regex(r"[a-z][a-z0-9_]{0,8}", fullmatch=True),
        st.text(max_size=24), max_size=4))
    def test_round_trip_any_label_values(self, labels):
        """Property: parse_metric_key inverts metric_key for arbitrary
        label values, including the escape character and separators."""
        key = metric_key("m", labels)
        base, parsed = parse_metric_key(key)
        assert base == "m"
        assert parsed == labels


class TestLabelledMetrics:
    def test_labelled_series_are_distinct(self):
        registry = MetricsRegistry()
        registry.counter("rank_requests", shard=0).inc(3)
        registry.counter("rank_requests", shard=1).inc(5)
        registry.counter("rank_requests").inc(1)  # plain sibling coexists
        snapshot = registry.snapshot()
        assert snapshot.counters["rank_requests{shard=0}"] == 3
        assert snapshot.counters["rank_requests{shard=1}"] == 5
        assert snapshot.counters["rank_requests"] == 1

    def test_same_labels_same_instance(self):
        registry = MetricsRegistry()
        assert registry.counter("c", shard=1) is registry.counter(
            "c", shard=1)
        assert registry.counter("c", shard=1) is not registry.counter(
            "c", shard=2)

    def test_negative_increment_rejected(self):
        registry = MetricsRegistry()
        counter = registry.counter("requests")
        counter.inc(2)
        with pytest.raises(ValueError, match="monotonic"):
            counter.inc(-1)
        assert counter.value == 2  # the failed inc left no trace


class TestLookupCost:
    """What a per-request caller pays for a metric it already has."""

    def test_a_hit_constructs_nothing(self, monkeypatch):
        """``setdefault(key, Histogram(...))`` built — and threw away —
        a deque-backed histogram on every lookup."""
        from repro.obs import metrics

        built = []
        init = metrics.Histogram.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(metrics.Histogram, "__init__", counting_init)
        registry = MetricsRegistry(histogram_window=16)
        first = registry.histogram("latency_ms", tenant="a")
        assert all(registry.histogram("latency_ms", tenant="a") is first
                   for _ in range(100))
        assert built == [first]
        first.observe(1.0)  # the one built is configured as before
        assert registry.snapshot().histograms["latency_ms{tenant=a}"] \
            .count == 1
        assert first.stats().window == 16

    def test_handles_resolve_once_per_shape(self):
        registry = MetricsRegistry()
        resolved = []

        def resolve(shape):
            def run(r):
                resolved.append(shape)
                return r.counter("stage_rows", kind=shape[1])
            return registry.handles(shape, run)

        project = resolve(("stage", "project"))
        assert resolve(("stage", "project")) is project
        assert resolve(("stage", "anchor")) is not project
        assert resolved == [("stage", "project"), ("stage", "anchor")]
        assert project is registry.counter("stage_rows", kind="project")

    def test_concurrent_first_lookups_agree(self):
        registry = MetricsRegistry()
        seen, barrier = [], threading.Barrier(8)

        def lookup():
            barrier.wait(5.0)
            seen.append(registry.counter("c", shard=1))

        threads = [threading.Thread(target=lookup) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(5.0)
        assert len(seen) == 8 and all(c is seen[0] for c in seen)


class TestJsonRoundTrip:
    def test_snapshot_round_trips_through_json(self):
        registry = MetricsRegistry()
        registry.counter("rank_requests", shard=1).inc(7)
        registry.gauge("shards").set(2)
        registry.histogram("latency_ms").observe(5.0)
        snapshot = registry.snapshot()
        rebuilt = snapshot_from_json(snapshot_to_json(snapshot))
        assert rebuilt.counters == snapshot.counters
        assert rebuilt.gauges == snapshot.gauges
        assert rebuilt.histograms["latency_ms"].p50 == \
            snapshot.histograms["latency_ms"].p50


class TestFormatGolden:
    def test_labelled_rows_grouped_by_base_name(self):
        registry = MetricsRegistry()
        registry.counter("rank_requests", shard=0).inc(3)
        registry.counter("rank_requests", shard=1).inc(5)
        registry.counter("worker_respawns").inc(1)
        registry.gauge("shards").set(2)
        registry.histogram("rank_block_ms", shard=0).observe(4.0)
        golden = (
            "== serve stats ==\n"
            "counters:\n"
            "  rank_requests{shard=0}                3\n"
            "  rank_requests{shard=1}                5\n"
            "  worker_respawns                       1\n"
            "gauges:\n"
            "  shards                              2.0\n"
            "histograms:\n"
            "  rank_block_ms{shard=0} count=1       "
            "mean=   4.000 p50=   4.000 p95=   4.000 p99=   4.000 "
            "max=   4.000"
        )
        assert format_snapshot(registry.snapshot()) == golden
