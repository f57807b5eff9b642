"""Golden diagnostics surface: one scripted run, every shape frozen.

One run through the whole stack — gateway on, two shard workers,
tracing enabled — with one request of each outcome:

* ``miss``      — model path, answer- and embedding-cache miss
* ``hit``       — the same query again: answer-cache hit
* ``emb_hit``   — the same query at another ``top_k``: answer-cache miss,
                  embedding-cache hit
* ``deadline``  — a deadline that expires while the request waits for
                  the one worker (held inside ``miss``'s embed): shed
                  when the worker pops it
* ``fallback``  — the same query again, whose embed fails on every
                  attempt: degraded to the exact symbolic executor
* ``door_shed`` — an unknown tenant, shed synchronously at the door

and freezes what an operator's tooling reads: the ``FlightRecord`` key
set and each outcome's non-default fields, the span-name multiset and
parent/child edges of each request's trace tree (plus the shard-plane
spans, which trace beside the tree and carry the dispatching request's
id), the ``/statusz`` top-level keys and the ``/metrics`` family names.
A refactor of the diagnostics internals must leave this file untouched
and green.

Every shard reply comes from its worker (no request is ever sent
twice), so the span multiset is deterministic.
"""

import json
import re
import socket
import time
from collections import Counter
from urllib.request import urlopen

import numpy as np
import pytest

from repro import obs
from repro.config import ModelConfig
from repro.core import HalkModel
from repro.dist import dist_available
from repro.gateway import (Gateway, GatewayConfig, GatewayRejected,
                           TenantConfig)
from repro.kg import KnowledgeGraph
from repro.obs.diag import DiagConfig, FlightRecord
from repro.queries import Entity, Projection
from repro.serve import ServeConfig, ServeRuntime
from repro.serve.runtime import MAX_RETRIES

from .serve.conftest import Gate, HookedModel


class GateThenFail(Gate):
    """A :class:`Gate` that, once open, fails the next ``failures``
    embeds — every attempt of one batch, when set to 1 + MAX_RETRIES."""

    failures = 0

    def __call__(self):
        super().__call__()
        if self.failures:
            self.failures -= 1
            raise RuntimeError("injected model failure")

pytestmark = [pytest.mark.diag, pytest.mark.gateway, pytest.mark.dist,
              pytest.mark.http]

FLIGHT_KEYS = [
    "request_id", "tenant", "structure", "admission", "priority",
    "source", "error", "fallback", "cache", "embedding_cached",
    "batch_size", "queue_ms", "embed_ms",
    "distance_ms", "rank_ms", "latency_ms", "total_ms", "result_count",
    "plan_ops_total", "plan_ops_executed", "plan_stage_ms", "shards",
    "model_version", "completed_at", "trace_retained",
]

#: fields every admitted request fills, whatever its outcome
ADMITTED = {"request_id", "tenant", "structure", "admission", "priority",
            "source", "cache", "latency_ms", "total_ms", "result_count",
            "model_version", "completed_at", "trace_retained"}
#: fields a request that went through the batcher fills on top
BATCHED = ADMITTED | {"batch_size", "queue_ms"}
RANKED = BATCHED | {"distance_ms", "rank_ms", "shards"}

NON_DEFAULT = {
    "miss": RANKED | {"embed_ms", "plan_ops_total", "plan_ops_executed",
                      "plan_stage_ms"},
    "hit": ADMITTED,
    "emb_hit": RANKED | {"embedding_cached"},
    "deadline": (BATCHED - {"result_count"}) | {"error"},
    "fallback": BATCHED | {"fallback"},
    "door_shed": {"request_id", "tenant", "admission", "source", "error",
                  "completed_at"},
}

VALUES = {
    "miss": dict(tenant="acme", structure="P(E)", admission="admitted",
                 priority="interactive", source="model", cache="miss",
                 embedding_cached=False, batch_size=1, result_count=3,
                 plan_ops_total=3, plan_ops_executed=3, shards=2,
                 model_version=1, error="", fallback="",
                 trace_retained=True),
    "hit": dict(tenant="acme", structure="P(E)", admission="admitted",
                source="answer_cache", cache="hit", result_count=3,
                shards=0, error="", trace_retained=True),
    "emb_hit": dict(tenant="acme", structure="P(E)", source="model",
                    cache="miss", embedding_cached=True, batch_size=1,
                    result_count=5, shards=2, trace_retained=True),
    "deadline": dict(tenant="acme", structure="P(E)",
                     admission="deadline", source="shed", error="deadline",
                     cache="miss", batch_size=1, result_count=0, shards=0,
                     fallback="", trace_retained=True),
    "fallback": dict(tenant="acme", structure="P(E)",
                     admission="admitted", source="exact", cache="miss",
                     fallback="failure", batch_size=1, shards=0,
                     error="", trace_retained=True),
    "door_shed": dict(tenant="ghost", admission="unknown_tenant",
                      source="shed", error="unknown_tenant", priority="",
                      trace_retained=False),
}

_SUBMIT = [("gateway.request", "serve.request"),
           ("serve.request", "serve.canonicalise"),
           ("serve.request", "serve.cache_lookup")]
_QUEUED = _SUBMIT + [("serve.request", "serve.queue")]
_RANKED = _QUEUED + [("serve.request", "serve.distance"),
                     ("serve.request", "serve.rank")]

#: (parent name, child name) edges of each request's retained tree
TREE_EDGES = {
    "miss": sorted(_RANKED + [("serve.request", "serve.embed")]),
    "hit": sorted(_SUBMIT),
    "emb_hit": sorted(_RANKED),
    "deadline": sorted(_QUEUED),
    "fallback": sorted(_QUEUED + [("serve.request", "serve.fallback")]),
}

#: the shard plane traces beside the request trees (the ranking pass runs
#: on a pool thread with no active span): per ranked request, once
SHARD_PLANE = Counter({
    "shard.dispatch": 1, "shard.gather": 1, "shard.merge": 1,
    "shard.compute": 2, "worker.handle": 2, "worker.score": 2})
SHARD_EDGES = {("shard.dispatch", "worker.handle"),
               ("worker.handle", "worker.score")}

STATUSZ_KEYS = ["counters", "gauges", "health", "histograms", "hit_rates",
                "model_version", "stages", "uptime_seconds"]

METRIC_FAMILIES = [
    "repro_admitted_total", "repro_answer_cache_expirations_total",
    "repro_answer_cache_hits_total", "repro_answer_cache_misses_total",
    "repro_answer_cache_size", "repro_batch_size",
    "repro_batches_total",
    "repro_embedding_cache_hits_total",
    "repro_embedding_cache_misses_total", "repro_embedding_cache_size",
    "repro_fallback_exact_total", "repro_latency_ms",
    "repro_model_failures_total", "repro_model_version",
    "repro_plan_cache_hits_total", "repro_plan_cache_misses_total",
    "repro_plan_cse_ops_saved_total", "repro_plan_ops_executed_total",
    "repro_plan_ops_total_total", "repro_plan_stage_bytes_total",
    "repro_plan_stage_rows_total", "repro_plan_stage_seconds",
    "repro_prof_downsamples_total", "repro_prof_effective_hz",
    "repro_prof_overhead_ratio", "repro_prof_samples_total",
    "repro_queue_depth", "repro_rank_block_ms",
    "repro_rank_refine_rows_total", "repro_rank_requests_total",
    "repro_requests_total", "repro_retries_total", "repro_shards",
    "repro_shed_total",
    "repro_slo_alert_active", "repro_slo_burn_rate",
    "repro_stage_seconds_count", "repro_stage_seconds_sum",
    "repro_uptime_seconds",
]


def _can_bind() -> bool:
    try:
        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        probe.bind(("127.0.0.1", 0))
        probe.close()
    except OSError:
        return False
    return True


@pytest.fixture(scope="module")
def run():
    """The scripted run; everything the assertions read, collected once."""
    if not dist_available():
        pytest.skip("multiprocessing.shared_memory unavailable here")
    if not _can_bind():
        pytest.skip("cannot bind a loopback port here")
    rng = np.random.default_rng(11)
    triples = sorted({(int(rng.integers(40)), int(rng.integers(3)),
                       int(rng.integers(40))) for _ in range(160)})
    kg = KnowledgeGraph(40, 3, triples)
    model = HalkModel(kg, ModelConfig(embedding_dim=6, hidden_dim=12,
                                      seed=3))
    head, rel, _ = triples[0]
    query = Projection(rel, Entity(head))
    other = next(Projection(r, Entity(h)) for h, r, _ in triples
                 if (h, r) != (head, rel))
    tracer = obs.Tracer()
    config = ServeConfig(
        max_batch_size=8, num_workers=1,
        num_shards=2, http_port=0,
        diag=DiagConfig(trace_latency_ms=0.0, trace_top_p=None))
    # no batch has run when the short deadline below is admitted, so no
    # estimate dooms it at the door: it queues behind the worker that
    # the gate holds in ``miss``'s embed, and expires there
    gate = GateThenFail()
    gateway_config = GatewayConfig(default_tenant=None,
                                   tenants=(TenantConfig("acme"),))
    out = {"ids": {}, "trees": {}}
    with obs.enabled():
        with ServeRuntime(HookedModel(model, gate), kg=kg, config=config,
                          tracer=tracer) as runtime:
            gateway = Gateway(runtime, gateway_config, tracer=tracer)
            try:
                def submit(node, top_k, deadline=None):
                    return gateway.submit(node, top_k=top_k, tenant="acme",
                                          deadline=deadline)

                def collect(name, future):
                    result = future.result(timeout=30)
                    out["ids"][name] = result.request_id
                    return result

                miss = submit(query, 3)
                assert gate.entered.wait(10.0)
                late = submit(other, 3, deadline=0.03)
                time.sleep(0.05)  # its budget runs out in the queue
                gate.open()
                assert collect("miss", miss).source == "model"
                with pytest.raises(GatewayRejected) as excinfo:
                    late.result(timeout=30)
                assert excinfo.value.reason == "deadline"
                (shed,) = [r for r in runtime.diag.flight.dump()
                           if r.admission == "deadline"]
                out["ids"]["deadline"] = shed.request_id
                assert collect("hit", submit(query, 3)).source \
                    == "answer_cache"
                assert collect("emb_hit", submit(query, 5)).source \
                    == "model"
                gate.failures = 1 + MAX_RETRIES
                assert collect("fallback", submit(other, 3)).source \
                    == "exact"
                with pytest.raises(GatewayRejected):
                    gateway.answer(query, top_k=3, tenant="ghost")
                (shed,) = runtime.diag.flight.dump(tenant="ghost")
                out["ids"]["door_shed"] = shed.request_id
                out["records"] = {
                    name: runtime.diag.flight.get(rid).to_dict()
                    for name, rid in out["ids"].items()}
                out["flight_total"] = runtime.diag.flight.total
                for name, rid in out["ids"].items():
                    out["trees"][name] = runtime.diag.trace(rid)
                url = runtime.http_server.url
                with urlopen(f"{url}/statusz", timeout=5) as response:
                    out["statusz"] = json.loads(response.read())
                with urlopen(f"{url}/metrics", timeout=5) as response:
                    out["metrics"] = response.read().decode()
            finally:
                gateway.close()
    out["spans"] = tracer.finished()
    return out


def _edges(spans):
    names = {s.span_id: s.name for s in spans}
    return sorted((names[s.parent_id], s.name) for s in spans
                  if s.parent_id in names)


class TestFlightRecords:
    def test_key_set_is_frozen(self, run):
        for record in run["records"].values():
            assert list(record) == FLIGHT_KEYS

    def test_one_record_per_request(self, run):
        assert run["flight_total"] == 6
        assert len(set(run["ids"].values())) == 6

    @pytest.mark.parametrize("outcome", sorted(NON_DEFAULT))
    def test_non_default_fields_per_outcome(self, run, outcome):
        defaults = FlightRecord(request_id="").to_dict()
        record = run["records"][outcome]
        filled = {key for key, value in record.items()
                  if value != defaults[key]}
        assert filled == NON_DEFAULT[outcome]

    @pytest.mark.parametrize("outcome", sorted(VALUES))
    def test_deterministic_values_per_outcome(self, run, outcome):
        record = run["records"][outcome]
        assert {key: record[key] for key in VALUES[outcome]} == \
            VALUES[outcome]


class TestSpanTrees:
    @pytest.mark.parametrize("outcome", sorted(TREE_EDGES))
    def test_request_tree_edges(self, run, outcome):
        spans = run["trees"][outcome]
        assert spans[0].name == "gateway.request"
        assert spans[0].parent_id is None
        assert _edges(spans) == TREE_EDGES[outcome]
        # every span of the tree hangs off the one root: edges + root
        assert len(spans) == len(TREE_EDGES[outcome]) + 1
        assert {s.attrs["request_id"] for s in spans} == \
            {run["ids"][outcome]}

    def test_door_shed_has_no_tree(self, run):
        assert run["trees"]["door_shed"] is None

    def test_span_name_multiset_of_the_run(self, run):
        expected = Counter()
        for edges in TREE_EDGES.values():
            expected["gateway.request"] += 1
            expected.update(child for _, child in edges)
        for _ in ("miss", "emb_hit"):
            expected.update(SHARD_PLANE)
        names = Counter(s.name for s in run["spans"]
                        if not s.name.startswith("plan."))
        assert names == expected
        # the compiled plan traces beside the tree too: the one embed of
        # the run is anchor + project stages, then finalize; each of the
        # fallback's two attempts compiles, executes and fails in its
        # anchor stage
        plan = Counter(s.name for s in run["spans"]
                       if s.name.startswith("plan."))
        assert plan == Counter({"plan.compile": 3, "plan.execute": 3,
                                "plan.stage": 4, "plan.finalize": 1})

    def test_shard_plane_edges_and_ids(self, run):
        shard = [s for s in run["spans"]
                 if s.name.startswith(("shard.", "worker."))]
        assert set(_edges(shard)) == SHARD_EDGES
        # adopted worker spans carry the dispatching request's id only
        ranked = {run["ids"]["miss"], run["ids"]["emb_hit"]}
        workers = [s for s in shard if s.name.startswith("worker.")]
        assert Counter(s.attrs["request_id"] for s in workers) == \
            Counter({rid: 4 for rid in ranked})
        assert len({s.pid for s in workers}) == 2


class TestHttpSurface:
    def test_statusz_top_level_keys(self, run):
        assert sorted(run["statusz"]) == STATUSZ_KEYS

    def test_metrics_family_names(self, run):
        families = sorted(set(
            re.findall(r"^# TYPE (\S+) ", run["metrics"], flags=re.M)))
        assert families == METRIC_FAMILIES
