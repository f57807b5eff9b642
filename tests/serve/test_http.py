"""The telemetry HTTP endpoints: /metrics, /healthz, /statusz.

Marked ``http``: every test binds an ephemeral loopback port; where even
that is impossible (a sandbox with no socket access) the whole module
skips cleanly instead of erroring.
"""

import json
from urllib.error import HTTPError
from urllib.request import Request, urlopen

import pytest

from repro.queries import QuerySampler, get_structure
from repro.serve import (ServeConfig, ServeRuntime, TelemetryHTTPServer,
                         render_prometheus, snapshot_from_json)
from repro.obs.metrics import MetricsRegistry

pytestmark = [pytest.mark.http,
              pytest.mark.usefixtures("require_loopback_bind")]


@pytest.fixture()
def registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter("rank_requests", shard=0).inc(3)
    registry.counter("rank_requests", shard=1).inc(4)
    registry.counter("answer_cache_hits").inc(6)
    registry.counter("answer_cache_misses").inc(2)
    registry.gauge("shards").set(2)
    registry.gauge("model_version").set(1)
    for value in (1.0, 2.0, 3.0):
        registry.histogram("latency_ms").observe(value)
    return registry


def parse_prometheus(text: str) -> dict[str, float]:
    """Minimal v0.0.4 parser: sample lines -> {series: value}.

    Raises on malformed lines, so using it *is* the format test.
    """
    samples: dict[str, float] = {}
    types: dict[str, str] = {}
    for line in text.strip().splitlines():
        if line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            name, kind = rest.rsplit(" ", 1)
            assert kind in ("counter", "gauge", "summary", "histogram")
            types[name] = kind
        elif line.startswith("#"):
            continue
        else:
            series, _, value = line.rpartition(" ")
            assert series, f"malformed sample line: {line!r}"
            samples[series] = float(value)
    for series in samples:
        base = series.split("{", 1)[0]
        base = base.removesuffix("_sum").removesuffix("_count")
        assert base in types or series.split("{", 1)[0] in types, \
            f"sample {series!r} has no # TYPE header"
    return samples


class TestRenderPrometheus:
    def test_labels_and_types_render(self, registry):
        text = render_prometheus(registry.snapshot())
        samples = parse_prometheus(text)
        assert samples['repro_rank_requests_total{shard="0"}'] == 3
        assert samples['repro_rank_requests_total{shard="1"}'] == 4
        assert samples["repro_shards"] == 2
        assert samples['repro_latency_ms{quantile="0.5"}'] == 2.0
        assert samples["repro_latency_ms_count"] == 3
        assert samples["repro_latency_ms_sum"] == pytest.approx(6.0)

    def test_label_values_escaped(self):
        registry = MetricsRegistry()
        registry.counter("errors", kind='disk "full"\nish').inc()
        text = render_prometheus(registry.snapshot())
        assert '\\"full\\"' in text
        assert "\\n" in text
        # quoted newline must not produce an extra physical line
        assert all(line.count('"') % 2 == 0
                   for line in text.splitlines() if not line.startswith("#"))


class TestTelemetryHTTPServer:
    def test_metrics_endpoint_parses(self, registry):
        with TelemetryHTTPServer(snapshot_fn=registry.snapshot) as server:
            with urlopen(f"{server.url}/metrics", timeout=5) as response:
                assert response.status == 200
                assert "version=0.0.4" in response.headers["Content-Type"]
                samples = parse_prometheus(response.read().decode())
        assert samples['repro_rank_requests_total{shard="0"}'] == 3

    def test_healthz_flips_with_health_fn(self, registry):
        healthy = {"value": True}

        def health():
            return healthy["value"], {"model_loaded": True}

        with TelemetryHTTPServer(snapshot_fn=registry.snapshot,
                                 health_fn=health) as server:
            with urlopen(f"{server.url}/healthz", timeout=5) as response:
                body = json.loads(response.read().decode())
                assert response.status == 200 and body["ok"] is True
            healthy["value"] = False
            with pytest.raises(HTTPError) as excinfo:
                urlopen(f"{server.url}/healthz", timeout=5)
            assert excinfo.value.code == 503
            body = json.loads(excinfo.value.read().decode())
            assert body["ok"] is False

    def test_statusz_round_trips_to_snapshot(self, registry):
        with TelemetryHTTPServer(snapshot_fn=registry.snapshot) as server:
            with urlopen(f"{server.url}/statusz", timeout=5) as response:
                payload = json.loads(response.read().decode())
        assert payload["model_version"] == 1
        assert payload["hit_rates"]["answer_cache"] == pytest.approx(0.75)
        rebuilt = snapshot_from_json(payload)
        assert rebuilt.counters["rank_requests{shard=0}"] == 3
        assert rebuilt.histograms["latency_ms"].count == 3

    def test_unknown_path_is_404_with_json_body(self, registry):
        with TelemetryHTTPServer(snapshot_fn=registry.snapshot) as server:
            with pytest.raises(HTTPError) as excinfo:
                urlopen(f"{server.url}/nope", timeout=5)
            assert excinfo.value.code == 404
            assert excinfo.value.headers["Content-Type"] == \
                "application/json"
            raw = excinfo.value.read()
            assert int(excinfo.value.headers["Content-Length"]) == len(raw)
            assert "/nope" in json.loads(raw)["error"]

    def test_close_is_idempotent(self, registry):
        server = TelemetryHTTPServer(snapshot_fn=registry.snapshot)
        server.close()
        server.close()


class TestPostRoute:
    """POST handling of the telemetry server itself (no gateway)."""

    @staticmethod
    def _post(url, path, data, headers=None):
        request = Request(url + path, data=data, headers=headers or {})
        with pytest.raises(HTTPError) as excinfo:
            urlopen(request, timeout=5)
        error = excinfo.value
        body = json.loads(error.read())
        assert error.headers["Content-Type"] == "application/json"
        return error.code, body

    def test_post_unknown_path_is_404_json(self, registry):
        with TelemetryHTTPServer(snapshot_fn=registry.snapshot) as server:
            code, body = self._post(server.url, "/nope", b"{}")
        assert code == 404
        assert "/nope" in body["error"]

    def test_post_query_without_gateway_is_404_json(self, registry):
        with TelemetryHTTPServer(snapshot_fn=registry.snapshot) as server:
            code, body = self._post(server.url, "/v1/query",
                                    b'{"sparql": "x"}')
        assert code == 404
        assert "gateway" in body["error"]

    def test_post_malformed_json_is_400(self, registry):
        with TelemetryHTTPServer(snapshot_fn=registry.snapshot) as server:
            server.set_query_fn(lambda payload: (200, {}, {}))
            code, body = self._post(server.url, "/v1/query", b"{nope")
        assert code == 400
        assert "JSON" in body["error"]

    def test_handler_exception_is_500_not_a_dead_thread(self, registry):
        def boom(payload):
            raise RuntimeError("handler bug")

        with TelemetryHTTPServer(snapshot_fn=registry.snapshot) as server:
            server.set_query_fn(boom)
            code, body = self._post(server.url, "/v1/query", b"{}")
            assert code == 500
            assert "handler bug" in body["error"]
            # the server thread survived the handler exception
            with urlopen(f"{server.url}/healthz", timeout=5) as response:
                assert response.status == 200


class TestRuntimeMount:
    def test_runtime_mounts_and_serves(self, model, tiny_kg):
        config = ServeConfig(max_batch_size=8, num_workers=1, http_port=0)
        sampler = QuerySampler(tiny_kg, seed=3)
        queries = [sampler.sample(get_structure("1p")).query
                   for _ in range(4)]
        with ServeRuntime(model, kg=tiny_kg, config=config) as runtime:
            assert runtime.http_server is not None
            runtime.answer_batch(queries, top_k=3)
            url = runtime.http_server.url
            samples = parse_prometheus(
                urlopen(f"{url}/metrics", timeout=5).read().decode())
            assert samples["repro_requests_total"] >= 4
            with urlopen(f"{url}/healthz", timeout=5) as response:
                assert response.status == 200
            payload = json.loads(
                urlopen(f"{url}/statusz", timeout=5).read().decode())
            assert payload["health"]["ok"] is True
            assert payload["health"]["model_loaded"] is True
            assert payload["health"]["workers"] == 1
        # after close the socket is released and healthz would be down
        with pytest.raises(OSError):
            urlopen(f"{url}/healthz", timeout=1)

    def test_runtime_without_port_has_no_server(self, model, tiny_kg):
        config = ServeConfig(max_batch_size=8, num_workers=1)
        with ServeRuntime(model, kg=tiny_kg, config=config) as runtime:
            assert runtime.http_server is None


class TestCliStats:
    def test_cli_stats_renders_remote_statusz(self, registry, capsys):
        from repro.cli import main

        def health():
            return True, {"model_loaded": True}

        with TelemetryHTTPServer(snapshot_fn=registry.snapshot,
                                 health_fn=health) as server:
            assert main(["get", "stats",
                         f"127.0.0.1:{server.port}"]) == 0
        out = capsys.readouterr().out
        assert "health: ok" in out
        assert "model_version: 1" in out
        assert "rank_requests{shard=0}" in out
        assert "latency_ms" in out
