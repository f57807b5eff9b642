"""The gateway's HTTP surface: POST /v1/query end to end.

Every test binds an ephemeral loopback port (same skip contract as
``tests/serve/test_http.py``); the compile hook is a tiny fake — the
body text is an index into the shared query fixture — so the tests
exercise routing, admission, and error bodies, not SPARQL parsing.
"""

import contextlib
import json
from urllib.error import HTTPError
from urllib.request import Request, urlopen

import pytest

from repro.gateway import Gateway, GatewayConfig, TenantConfig
from repro.serve import ServeConfig, ServeRuntime

pytestmark = [pytest.mark.gateway, pytest.mark.http,
              pytest.mark.usefixtures("require_loopback_bind")]


def post(url: str, body, raw: bytes | None = None):
    """POST JSON (or raw bytes) and return (status, headers, json body)."""
    data = raw if raw is not None else json.dumps(body).encode()
    request = Request(url + "/v1/query", data=data,
                      headers={"Content-Type": "application/json"})
    try:
        with urlopen(request, timeout=30) as resp:
            return resp.status, dict(resp.headers), json.loads(resp.read())
    except HTTPError as exc:
        payload = exc.read()
        return (exc.code, dict(exc.headers),
                json.loads(payload) if payload else {})


@contextlib.contextmanager
def serving(model, kg, queries, gw_config=None, compile_fn="index"):
    config = ServeConfig(max_batch_size=4, num_workers=1, http_port=0)
    if compile_fn == "index":
        compile_fn = lambda text: queries[int(text)]  # noqa: E731
    with ServeRuntime(model, kg=kg, config=config) as runtime:
        with Gateway(runtime, gw_config, compile_fn=compile_fn) as gateway:
            yield runtime, gateway, runtime.http_server.url


class TestQueryEndpoint:
    def test_happy_path_matches_direct_answer(self, model, tiny_kg,
                                              queries):
        with serving(model, tiny_kg, queries) as (runtime, _, url):
            status, headers, body = post(url, {"sparql": "0", "top_k": 3})
            direct = runtime.answer(queries[0], top_k=3)
        assert status == 200
        assert headers["Content-Type"] == "application/json"
        assert int(headers["Content-Length"]) > 0
        assert body["entity_ids"] == direct.entity_ids
        assert body["tenant"] == "default"
        assert body["latency_ms"] >= 0.0

    def test_missing_sparql_is_400(self, model, tiny_kg, queries):
        with serving(model, tiny_kg, queries) as (_, _, url):
            status, headers, body = post(url, {"top_k": 3})
        assert status == 400
        assert headers["Content-Type"] == "application/json"
        assert "sparql" in body["error"]

    def test_bad_priority_and_top_k_are_400(self, model, tiny_kg, queries):
        with serving(model, tiny_kg, queries) as (_, _, url):
            status, _, body = post(
                url, {"sparql": "0", "priority": "turbo"})
            assert status == 400 and "priority" in body["error"]
            status, _, body = post(url, {"sparql": "0", "top_k": 0})
            assert status == 400 and "top_k" in body["error"]
            # JSON booleans are not numbers, tenants are strings
            for field, value in (("top_k", True), ("deadline_ms", True),
                                 ("tenant", []), ("tenant", 7)):
                status, _, body = post(url, {"sparql": "0", field: value})
                assert status == 400 and field in body["error"], \
                    (field, value, status, body)

    @pytest.mark.parametrize("field, value", [
        ("deadline_ms", float("inf")), ("deadline_ms", 1e300),
        ("deadline_ms", float("nan")), ("tenant", "")])
    def test_a_bad_body_is_400_and_admits_nothing(self, model, tiny_kg,
                                                  queries, field, value):
        """``json.loads`` reads NaN and Infinity: a deadline that is no
        finite lock timeout, or an empty tenant, is the client's error,
        refused before anything is admitted."""
        with serving(model, tiny_kg, queries) as (runtime, _, url):
            status, _, body = post(url, {"sparql": "0", field: value})
            counters = runtime.metrics.snapshot().counters
        assert status == 400 and field in body["error"], (status, body)
        assert not [key for key, count in counters.items() if count
                    and key.startswith(("admitted", "shed", "requests"))]

    def test_compile_failure_is_400(self, model, tiny_kg, queries):
        with serving(model, tiny_kg, queries) as (_, _, url):
            status, _, body = post(url, {"sparql": "not-an-int"})
        assert status == 400
        assert "cannot compile" in body["error"]

    def test_malformed_json_body_is_400(self, model, tiny_kg, queries):
        with serving(model, tiny_kg, queries) as (_, _, url):
            status, headers, body = post(url, None, raw=b"{nope")
        assert status == 400
        assert headers["Content-Type"] == "application/json"
        assert "JSON" in body["error"]

    def test_no_compiler_is_503(self, model, tiny_kg, queries):
        with serving(model, tiny_kg, queries,
                     compile_fn=None) as (_, _, url):
            status, _, body = post(url, {"sparql": "0"})
        assert status == 503
        assert "compile" in body["error"]


class TestNoGatewayMounted:
    def test_post_without_gateway_is_404_json(self, model, tiny_kg):
        config = ServeConfig(max_batch_size=4, num_workers=1, http_port=0)
        with ServeRuntime(model, kg=tiny_kg, config=config) as runtime:
            status, headers, body = post(
                runtime.http_server.url, {"sparql": "0"})
        assert status == 404
        assert headers["Content-Type"] == "application/json"
        assert body["error"]


class TestOverloadOverHTTP:
    def test_ratelimit_is_429_with_retry_after_header(self, model,
                                                      tiny_kg, queries):
        gw_config = GatewayConfig(
            tenants=(TenantConfig("slow", rate=0.01, burst=1),),
            default_tenant=None)
        with serving(model, tiny_kg, queries, gw_config) as (_, gw, url):
            first = post(url, {"sparql": "0", "tenant": "slow"})
            assert first[0] == 200
            status, headers, body = post(
                url, {"sparql": "1", "tenant": "slow"})
        assert status == 429
        assert int(headers["Retry-After"]) >= 1
        assert body["reason"] == "ratelimit"
        assert body["retry_after_s"] > 0
        assert body["tenant"] == "slow"
