"""Through the real door: keep-alive clients → HTTP → gateway → runtime.

The composition the unit suites cannot see: persistent connections whose
handler threads admit, queue and — on a cache hit — answer their own
requests, next to worker threads popping and completing the misses.  On fb237_mini with the SPARQL compiler mounted, as
``cli serve --gateway --http-port`` wires it up.
"""

import http.client
import json
import threading

import pytest

from repro.config import ModelConfig
from repro.core import HalkModel
from repro.gateway import Gateway, GatewayConfig, TenantConfig
from repro.kg import load_dataset
from repro.queries import QuerySampler, get_structure
from repro.serve import ServeConfig, ServeRuntime
from repro.sparql import SparqlEngine

pytestmark = [pytest.mark.gateway, pytest.mark.http,
              pytest.mark.usefixtures("require_loopback_bind")]

CLIENTS, PER_CLIENT, TOP_K = 4, 200, 5


def sparql_of(query, kg) -> str:
    """1p / 2i computation graphs as the SPARQL the Adaptor reads back."""
    branches = query.operands if hasattr(query, "operands") else [query]
    patterns = " ".join(
        f"{kg.entity_names[branch.operand.entity]} "
        f"{kg.relation_names[branch.relation]} ?x ." for branch in branches)
    return f"SELECT ?x WHERE {{ {patterns} }}"


def test_four_keep_alive_clients_get_one_outcome_per_request():
    """800 requests mixing answer-cache hits, misses and a tenant that is
    mostly rate-limited: every reply is a 200 or a 429, every 200 is the
    oracle's answer, and the flight recorder holds exactly one terminal
    record per request sent."""
    kg = load_dataset("FB237", scale=0.4, seed=0).train
    model = HalkModel(kg, ModelConfig(embedding_dim=8, hidden_dim=16,
                                      seed=0))
    engine = SparqlEngine(kg)
    sampler = QuerySampler(kg, seed=4)
    texts = []
    while len(texts) < 120:
        text = sparql_of(sampler.sample(
            get_structure(("1p", "2i")[len(texts) % 2])).query, kg)
        if text not in texts:
            texts.append(text)
    oracle = {text: model.answer(engine.compile(text), top_k=TOP_K)
              for text in texts}

    gateway_config = GatewayConfig(
        tenants=(TenantConfig("trickle", rate=20.0, burst=2),))
    serve_config = ServeConfig(max_batch_size=8, num_workers=2, http_port=0)
    replies, lock = [], threading.Lock()

    def client(offset: int, port: int) -> None:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10.0)
        mine = []
        try:
            for index in range(PER_CLIENT):
                # a few hot texts (hits) among a sweep of the pool
                # (misses first time round)
                position = index % 7 if index % 3 else offset + 4 * index
                text = texts[position % len(texts)]
                tenant = "trickle" if index % 5 == 4 else "default"
                conn.request("POST", "/v1/query", json.dumps(
                    {"sparql": text, "top_k": TOP_K, "tenant": tenant}))
                response = conn.getresponse()
                mine.append((text, response.status,
                             json.loads(response.read())))
        finally:
            conn.close()
            with lock:
                replies.extend(mine)

    with ServeRuntime(model, kg=kg, config=serve_config) as runtime:
        with Gateway(runtime, gateway_config,
                     compile_fn=engine.compile) as gateway:
            threads = [threading.Thread(
                target=client, args=(offset, runtime.http_server.port))
                for offset in range(CLIENTS)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60.0)
                assert not thread.is_alive()
            stats = gateway.stats()
            records = runtime.diag.flight.total
            counters = runtime.metrics.snapshot().counters

    assert len(replies) == CLIENTS * PER_CLIENT
    statuses = {status for _, status, _ in replies}
    assert statuses == {200, 429}
    served = [(text, body) for text, status, body in replies
              if status == 200]
    assert all(body["entity_ids"] == oracle[text] for text, body in served)
    assert {body["source"] for _, body in served} == \
        {"model", "answer_cache"}
    assert {body["reason"] for _, status, body in replies
            if status == 429} == {"ratelimit"}
    # one terminal outcome, one flight record, per request sent
    assert records == len(replies)
    assert sum(count for key, count in counters.items()
               if key.startswith("admitted{")) == len(served)
    assert sum(count for key, count in counters.items()
               if key.startswith("shed{")) == len(replies) - len(served)
    assert stats["queued"] == 0
