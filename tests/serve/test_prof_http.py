"""The profiling/memory HTTP surface: /debug/prof and /debug/mem.

Marked ``prof`` + ``http``: every test binds an ephemeral loopback port
and skips cleanly where that is impossible.  Unlike ``/debug/flight``
these endpoints do not need diagnostics enabled — a server with
``diag_enabled=False`` still profiles and still reports memory.
"""

import json
from urllib.error import HTTPError
from urllib.request import urlopen

import pytest

from repro.obs import prof
from repro.queries import Entity, Projection
from repro.serve import ServeConfig, ServeRuntime

pytestmark = [pytest.mark.prof, pytest.mark.http,
              pytest.mark.usefixtures("require_loopback_bind")]


def distinct_queries(kg, n):
    seen, out = set(), []
    for head, rel, _ in kg:
        if (head, rel) not in seen:
            seen.add((head, rel))
            out.append(Projection(rel, Entity(head)))
        if len(out) == n:
            break
    return out


def get_json(url):
    with urlopen(url, timeout=10) as response:
        return json.loads(response.read().decode())


@pytest.fixture()
def served(model, tiny_kg, monkeypatch):
    monkeypatch.setattr(prof, "DEFAULT_HZ", 100.0)
    config = ServeConfig(max_batch_size=8, num_workers=1, http_port=0)
    with ServeRuntime(model, kg=tiny_kg, config=config) as runtime:
        for query in distinct_queries(tiny_kg, 4):
            runtime.answer(query, top_k=3)
        yield runtime, runtime.http_server.url


class TestDebugProf:
    def test_json_payload_shape(self, served):
        runtime, url = served
        payload = get_json(f"{url}/debug/prof")
        assert "serve" in payload["roles"]
        merged = payload["merged"]
        assert merged["samples"] >= 0
        assert sum(merged["stacks"].values()) == merged["samples"]
        assert payload["effective_hz"] > 0.0
        # the request path's plan execution fed the cost accounter
        assert "anchor" in payload["plan_ops"]
        assert "finalize" in payload["plan_ops"]

    def test_folded_format_is_flamegraph_input(self, served):
        _, url = served
        with urlopen(f"{url}/debug/prof?format=folded",
                     timeout=10) as response:
            assert response.headers["Content-Type"].startswith(
                "text/plain")
            body = response.read().decode()
        for line in body.strip().splitlines():
            stack, _, count = line.rpartition(" ")
            assert stack and count.isdigit()

    def test_speedscope_format_round_trips(self, served):
        _, url = served
        doc = get_json(f"{url}/debug/prof?format=speedscope")
        assert doc["$schema"].startswith("https://www.speedscope.app")
        [profile] = doc["profiles"]
        assert profile["endValue"] == sum(profile["weights"])

    def test_window_mode_returns_recent_samples_only(self, served):
        runtime, url = served
        before = runtime.prof.snapshot().samples
        payload = get_json(f"{url}/debug/prof?seconds=0.2")
        assert payload["window_seconds"] == pytest.approx(0.2)
        after = runtime.prof.snapshot().samples
        # the window is a subset of the history: it excludes everything
        # sampled before the request arrived
        window = payload["merged"]["samples"]
        assert window <= after - before + 50  # slack: passes mid-fetch
        assert after >= before  # cumulative history never shrinks

    def test_role_filter(self, served):
        _, url = served
        payload = get_json(f"{url}/debug/prof?role=serve")
        assert payload["roles"] == ["serve"]
        payload = get_json(f"{url}/debug/prof?role=nonexistent")
        assert payload["roles"] == []
        assert payload["merged"]["samples"] == 0

    def test_unknown_format_is_400(self, served):
        _, url = served
        with pytest.raises(HTTPError) as excinfo:
            urlopen(f"{url}/debug/prof?format=bogus", timeout=10)
        assert excinfo.value.code == 400

    def test_profiling_disabled_is_404(self, model, tiny_kg):
        config = ServeConfig(num_workers=1, http_port=0,
                             profiling=False)
        with ServeRuntime(model, kg=tiny_kg, config=config) as runtime:
            assert runtime.prof is None
            with pytest.raises(HTTPError) as excinfo:
                urlopen(f"{runtime.http_server.url}/debug/prof",
                        timeout=10)
            assert excinfo.value.code == 404
            # /debug/mem stays up: memory needs no sampler
            payload = get_json(f"{runtime.http_server.url}/debug/mem")
            assert payload["processes"][0]["role"] == "serve"


class TestDebugMem:
    def test_processes_caches_and_gauges(self, served):
        runtime, url = served
        payload = get_json(f"{url}/debug/mem")
        serve = payload["processes"][0]
        assert serve["role"] == "serve"
        assert serve["rss_bytes"] > 1024 * 1024
        caches = payload["caches"]
        assert {"answer_cache", "embedding_cache",
                "plan_template_cache"} <= set(caches)
        for stats in caches.values():
            assert stats["bytes"] >= 0
            assert "hits" in stats and "misses" in stats
        # served requests populated the answer cache with real entries
        assert caches["answer_cache"]["size"] > 0
        assert caches["answer_cache"]["bytes"] > 0
        # the payload refreshed the scrapeable gauges
        gauges = runtime.metrics.snapshot().gauges
        assert gauges["process_rss_bytes{role=serve}"] > 0
        assert "cache_bytes{cache=answer_cache}" in gauges

    def test_unsharded_server_reports_no_shard_plan(self, served):
        _, url = served
        payload = get_json(f"{url}/debug/mem")
        assert payload["shard_plan"] is None

    def test_unsharded_server_reports_its_private_tables(self, served):
        """In-process ranking holds the wrapped float64 table and the
        filter's float32 half-angle table; both are accounted."""
        runtime, url = served
        n, d = runtime.model.sharding_spec()[0].shape
        assert get_json(f"{url}/debug/mem")["local_ranker"] == {
            "num_entities": n, "dim": d,
            "total_bytes": n * d * (8 + 4), "prepared_bytes": n * d * 4}


class TestGatewayProfStats:
    def test_gateway_stats_surface_sampler_health(self, served):
        from repro.gateway import Gateway
        runtime, _ = served
        with Gateway(runtime) as gateway:
            stats = gateway.stats()
            assert stats["prof_effective_hz"] > 0.0
            assert stats["prof_overhead_ratio"] >= 0.0

    def test_gateway_stats_omit_prof_when_disabled(self, model, tiny_kg):
        from repro.gateway import Gateway
        config = ServeConfig(num_workers=1, profiling=False)
        with ServeRuntime(model, kg=tiny_kg, config=config) as runtime, \
                Gateway(runtime) as gateway:
            assert "prof_effective_hz" not in gateway.stats()
