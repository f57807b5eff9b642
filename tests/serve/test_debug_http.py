"""The diagnostics HTTP surface and its CLI: /debug/*, /statusz, cli.

Marked ``diag`` + ``http``: every test binds an ephemeral loopback port
and skips cleanly where that is impossible.  The brownout test at the
bottom is the acceptance path of the diagnostics layer end to end:
injected latency + injected sheds must trip the fast-window burn alert,
and the alert's exemplar request id must resolve to a flight-recorder
entry *and* a retained trace, while happy-path requests retain nothing.
"""

import json
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer
from urllib.error import HTTPError
from urllib.request import urlopen

import pytest

from repro import obs
from repro.gateway import Gateway, GatewayConfig, GatewayRejected
from repro.gateway.tenancy import TenantConfig
from repro.obs.diag import DiagConfig
from repro.queries import Entity, Projection
from repro.serve import ServeConfig, ServeRuntime
from repro.serve import runtime as runtime_module

from ..test_golden_surface import TREE_EDGES
from .conftest import HookedModel

pytestmark = [pytest.mark.diag, pytest.mark.http,
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
    with urlopen(url, timeout=5) as response:
        return json.loads(response.read().decode())


@pytest.fixture()
def served(model, tiny_kg, monkeypatch):
    monkeypatch.setattr(runtime_module, "HISTOGRAM_WINDOW", 128)
    config = ServeConfig(max_batch_size=8, num_workers=1, http_port=0)
    with ServeRuntime(model, kg=tiny_kg, config=config) as runtime:
        yield runtime, runtime.http_server.url


class TestStatusz:
    def test_statusz_has_uptime_version_and_window(self, served, tiny_kg):
        runtime, url = served
        runtime.answer(distinct_queries(tiny_kg, 1)[0], top_k=3)
        payload = get_json(f"{url}/statusz")
        assert payload["uptime_seconds"] >= 0.0
        assert payload["model_version"] == 1
        # per-histogram sliding-window size rides in the snapshot
        assert payload["histograms"]["latency_ms"]["window"] == 128


class TestDebugFlight:
    def test_flight_dump_and_filters(self, served, tiny_kg):
        runtime, url = served
        results = [runtime.answer(q, top_k=3)
                   for q in distinct_queries(tiny_kg, 4)]
        payload = get_json(f"{url}/debug/flight?n=2")
        assert payload["count"] == 2
        assert payload["total_recorded"] == 4
        newest = payload["records"][0]
        assert newest["request_id"] == results[-1].request_id
        one = get_json(f"{url}/debug/flight"
                       f"?request_id={results[0].request_id}")
        assert one["count"] == 1
        assert one["records"][0]["source"] in ("model", "answer_cache")
        none = get_json(f"{url}/debug/flight?min_ms=1e9")
        assert none["count"] == 0

    def test_bad_query_param_is_400(self, served):
        _, url = served
        for n in ("banana", "0", "-1"):
            with pytest.raises(HTTPError) as excinfo:
                urlopen(f"{url}/debug/flight?n={n}", timeout=5)
            assert excinfo.value.code == 400
            assert "n" in json.loads(excinfo.value.read())["error"]

    def test_debug_404_when_diagnostics_disabled(self, model, tiny_kg):
        config = ServeConfig(max_batch_size=4, num_workers=1,
                             http_port=0, diagnostics=False)
        with ServeRuntime(model, kg=tiny_kg, config=config) as runtime:
            with pytest.raises(HTTPError) as excinfo:
                urlopen(f"{runtime.http_server.url}/debug/flight",
                        timeout=5)
            assert excinfo.value.code == 404
            body = json.loads(excinfo.value.read())
            assert "diagnostics disabled" in body["error"]


class TestDebugSloAndTrace:
    def test_slo_payload_shape(self, served, tiny_kg):
        runtime, url = served
        runtime.answer(distinct_queries(tiny_kg, 1)[0], top_k=3)
        payload = get_json(f"{url}/debug/slo")
        names = {o["slo"]: o for o in payload["objectives"]}
        assert set(names) == {"availability", "latency_p99"}
        assert names["availability"]["alert"] == ""
        assert set(names["availability"]["burn_rates"]) == \
            {"5m", "30m", "1h", "6h"}
        assert payload["windows"]["fast"] == [300.0, 3600.0, 14.4]

    def test_trace_404_when_not_retained(self, served):
        _, url = served
        with pytest.raises(HTTPError) as excinfo:
            urlopen(f"{url}/debug/trace/r-nope", timeout=5)
        assert excinfo.value.code == 404
        assert "no retained trace" in \
            json.loads(excinfo.value.read())["error"]

    def test_trace_exports_chrome_events(self, model, tiny_kg):
        config = ServeConfig(
            max_batch_size=4, num_workers=1, http_port=0,
            diag=DiagConfig(trace_latency_ms=0.0, trace_top_p=None))
        with obs.enabled():
            with ServeRuntime(model, kg=tiny_kg, config=config) as runtime:
                result = runtime.answer(
                    distinct_queries(tiny_kg, 1)[0], top_k=3)
                url = runtime.http_server.url
                payload = get_json(
                    f"{url}/debug/trace/{result.request_id}")
        events = payload["traceEvents"]
        assert events
        names = {e["name"] for e in events if e.get("ph") == "X"}
        assert "serve.request" in names

    def test_stock_runtime_serves_a_kept_trace(self, model, tiny_kg):
        """No ``obs.enable()`` anywhere: a kept request's tree is still
        rendered from its record, so ``/debug/trace/<id>`` answers 200
        with the edges the golden surface freezes for a miss."""
        config = ServeConfig(
            max_batch_size=4, num_workers=1, http_port=0,
            diag=DiagConfig(trace_latency_ms=0.0, trace_top_p=None))
        assert not obs.is_enabled()
        with ServeRuntime(model, kg=tiny_kg, config=config) as runtime:
            gateway = Gateway(runtime, GatewayConfig())
            try:
                result = gateway.answer(distinct_queries(tiny_kg, 1)[0],
                                        top_k=3, tenant="acme")
                payload = get_json(f"{runtime.http_server.url}"
                                   f"/debug/trace/{result.request_id}")
            finally:
                gateway.close()
        spans = [e for e in payload["traceEvents"] if e.get("ph") == "X"]
        names = {e["args"]["span_id"]: e["name"] for e in spans}
        edges = sorted((names[e["args"]["parent_id"]], e["name"])
                       for e in spans if "parent_id" in e["args"])
        assert edges == TREE_EDGES["miss"]
        assert len(spans) == len(edges) + 1


ENDPOINTS = ["stats", "flight", "slo", "prof", "mem"]


class TestCliFlightAndSlo:
    """``cli get``: the flight and SLO renderers against a live server,
    and the one fetch every endpoint shares."""

    def test_cli_flight_renders_table(self, served, tiny_kg, capsys):
        from repro.cli import main

        runtime, url = served
        result = runtime.answer(distinct_queries(tiny_kg, 1)[0], top_k=3)
        port = runtime.http_server.port
        assert main(["get", "flight", f"127.0.0.1:{port}"]) == 0
        out = capsys.readouterr().out
        assert result.request_id in out
        assert "recorded requests" in out

    def test_cli_slo_healthy_exits_zero(self, served, tiny_kg, capsys):
        from repro.cli import main

        runtime, _ = served
        runtime.answer(distinct_queries(tiny_kg, 1)[0], top_k=3)
        port = runtime.http_server.port
        assert main(["get", "slo", f"127.0.0.1:{port}"]) == 0
        out = capsys.readouterr().out
        assert "availability" in out
        assert "latency_p99" in out

    def test_cli_slo_exits_one_while_an_alert_fires(self, capsys):
        from repro.cli import main
        from repro.obs.diag import Diagnostics
        from repro.obs.metrics import MetricsRegistry
        from repro.serve import TelemetryHTTPServer

        registry = MetricsRegistry()
        diag = Diagnostics(registry=registry)
        for _ in range(10):
            diag.slo.observe(False, 80.0)
        with TelemetryHTTPServer(snapshot_fn=registry.snapshot,
                                 diag=diag) as server:
            assert main(["get", "slo", f"127.0.0.1:{server.port}"]) == 1
        out = capsys.readouterr().out
        assert "alert: FAST" in out

    def test_cli_refusal_names_the_servers_reason(self, served):
        """A 4xx is the server's answer, not an unreachable host: the
        line carries its status and its ``error``."""
        from repro.cli import main
        from repro.obs.metrics import MetricsRegistry
        from repro.serve import TelemetryHTTPServer

        with TelemetryHTTPServer(
                snapshot_fn=MetricsRegistry().snapshot) as server:
            with pytest.raises(SystemExit) as excinfo:
                main(["get", "prof", f"127.0.0.1:{server.port}"])
        message = str(excinfo.value.code)
        assert "404 profiling disabled on this server" in message
        assert "cannot reach" not in message
        runtime, _ = served
        with pytest.raises(SystemExit) as excinfo:
            main(["get", "flight", f"127.0.0.1:{runtime.http_server.port}",
                  "n=0"])
        message = str(excinfo.value.code)
        assert "400 bad query parameter n='0'" in message
        assert "cannot reach" not in message

    @pytest.mark.parametrize("fmt, body", [
        ("folded", "serve;main;work 3\n"),
        ("speedscope", '{"profiles": []}\n')])
    def test_cli_prof_export_is_written_unrendered(self, fmt, body,
                                                    tmp_path, capsys):
        """``format=folded`` (text) and ``format=speedscope`` replies are
        exports, not payloads to render: the body goes to ``--out`` as
        the server sent it, or else to stdout."""
        from repro.cli import main
        from repro.obs.metrics import MetricsRegistry
        from repro.serve import TelemetryHTTPServer

        def prof_fn(seconds, role):
            return {"folded": "serve;main;work 3",
                    "speedscope": {"profiles": []}}

        out = tmp_path / f"profile.{fmt}"
        with TelemetryHTTPServer(snapshot_fn=MetricsRegistry().snapshot,
                                 prof_fn=prof_fn) as server:
            target = f"127.0.0.1:{server.port}"
            assert main(["get", "prof", target, f"format={fmt}",
                         "--out", str(out)]) == 0
            assert f"prof export saved to {out}" in capsys.readouterr().out
            assert main(["get", "prof", target, f"format={fmt}"]) == 0
            assert capsys.readouterr().out == body
            with pytest.raises(SystemExit) as excinfo:
                main(["get", "prof", target, "format=svg"])
        assert out.read_text(encoding="utf-8") == body
        assert "400 bad query parameter format='svg'" in \
            str(excinfo.value.code)

    @pytest.mark.parametrize("command", ENDPOINTS)
    def test_cli_non_json_response_is_one_clean_line(self, command):
        """Pointing the CLI at something that is not a repro server is a
        single clean error line, not a traceback."""
        from repro.cli import main

        class NotJSON(BaseHTTPRequestHandler):
            def do_GET(self):  # noqa: N802 (stdlib handler contract)
                body = b"<html>proxy error</html>"
                self.send_response(200)
                self.send_header("Content-Type", "text/html")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):
                pass

        server = HTTPServer(("127.0.0.1", 0), NotJSON)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            with pytest.raises(SystemExit, match="did not return JSON"):
                main(["get", command,
                      f"127.0.0.1:{server.server_address[1]}",
                      "--timeout", "5"])
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)

    @pytest.mark.parametrize("command", ENDPOINTS)
    def test_cli_unreachable_target_is_one_clean_line(self, command):
        from repro.cli import main

        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()  # nothing listens on `port` now
        with pytest.raises(SystemExit, match="cannot reach"):
            main(["get", command, f"127.0.0.1:{port}", "--timeout", "0.5"])


class Throttle(HookedModel):
    """Model wrapper with a switchable embed delay (latency injection)."""

    def __init__(self, model):
        super().__init__(model, lambda: time.sleep(self.delay))
        self.delay = 0.0


class TestSyntheticBrownout:
    def test_brownout_trips_fast_burn_and_exemplars_resolve(
            self, model, tiny_kg):
        """The acceptance path: injected latency + injected sheds must
        (1) trip the fast-window availability burn alert on /debug/slo,
        (2) yield a p99 exemplar whose request id resolves to a flight
        entry and a retained trace, and (3) leave happy-path requests
        with no retained trace."""
        throttle = Throttle(model)
        config = ServeConfig(
            max_batch_size=4, num_workers=1,
            http_port=0,
            diag=DiagConfig(trace_latency_ms=25.0, trace_top_p=None))
        gateway_config = GatewayConfig(
            tenants=(TenantConfig("starved", rate=0.001, burst=1),))
        queries = distinct_queries(tiny_kg, 16)
        with obs.enabled():
            with ServeRuntime(throttle, kg=tiny_kg,
                              config=config) as runtime:
                gateway = Gateway(runtime, gateway_config)
                try:
                    url = runtime.http_server.url
                    # happy path: fast requests, nothing retained
                    happy = [gateway.answer(q, top_k=3, tenant="acme")
                             for q in queries[:6]]
                    # injected latency: every embed now takes ~60 ms,
                    # far past the 50 ms latency SLO and the 25 ms
                    # trace-retention threshold
                    throttle.delay = 0.06
                    slow = [gateway.answer(q, top_k=3, tenant="acme")
                            for q in queries[6:12]]
                    # injected sheds: a starved tenant hammers the door
                    sheds = 0
                    for query in queries[12:] + queries[:6]:
                        try:
                            gateway.answer(query, top_k=3,
                                           tenant="starved")
                        except GatewayRejected as exc:
                            assert exc.reason == "ratelimit"
                            sheds += 1
                    assert sheds >= 8

                    slo = get_json(f"{url}/debug/slo")
                    by_name = {o["slo"]: o for o in slo["objectives"]}
                    assert by_name["availability"]["alert"] == "fast"
                    assert by_name["availability"]["burn_rates"]["5m"] \
                        > 14.4
                    assert by_name["availability"]["burn_rates"]["1h"] \
                        > 14.4

                    # the p99 exemplar chain: id -> flight -> trace
                    exemplars = by_name["latency_p99"]["exemplars"]
                    assert exemplars
                    rid = exemplars[-1]["request_id"]
                    flight = get_json(
                        f"{url}/debug/flight?request_id={rid}")
                    assert flight["count"] == 1
                    assert flight["records"][0]["trace_retained"]
                    trace = get_json(f"{url}/debug/trace/{rid}")
                    assert trace["traceEvents"]

                    # slow requests were tail-sampled...
                    for result in slow:
                        assert runtime.diag.trace(result.request_id) \
                            is not None
                    # ...and the happy path retained nothing
                    for result in happy:
                        assert runtime.diag.trace(result.request_id) \
                            is None
                        with pytest.raises(HTTPError) as excinfo:
                            urlopen(f"{url}/debug/trace/"
                                    f"{result.request_id}", timeout=5)
                        assert excinfo.value.code == 404
                    # shed door records are in the flight ring too
                    door = get_json(f"{url}/debug/flight?tenant=starved")
                    reasons = {r["error"] for r in door["records"]}
                    assert "ratelimit" in reasons
                finally:
                    gateway.close()
