"""Cross-process telemetry: worker spans, per-shard series, staleness.

A shard worker writes no telemetry: its reply carries the intervals and
counts it measured, and the owner records the spans and metric series
from an accepted reply (see ``repro.dist.pool``); these tests pin the
guarantees that makes:

* each worker's ``worker.handle`` → ``worker.score`` tree lands in the
  *parent* tracer under the dispatching span, with the worker's own pid
  (→ per-process swimlanes in the Chrome export) and on the shared
  ``perf_counter`` timeline;
* per-shard counters and histograms count every reply, with tracing on
  or off;
* a stale reply adds no series and no span, however large the counts
  it carries, and a respawned worker's recomputation is counted exactly
  once (a request's adopted worker spans are ``test_diag_ids.py``);
* the serving runtime's ``/healthz`` flips 503 on a SIGKILLed shard
  worker and back to 200 once supervision respawns it.
"""

import json
import os
import signal
import socket
import time
from urllib.error import HTTPError
from urllib.request import urlopen

import numpy as np
import pytest

from repro import obs
from repro.dist import ShardedRanker
from repro.obs import chrome_trace_events

from .conftest import requires_shm

pytestmark = [pytest.mark.dist, requires_shm]


@pytest.fixture(scope="module")
def tracer():
    return obs.Tracer()


@pytest.fixture(scope="module")
def ranker(model, tracer):
    ranker = ShardedRanker.for_model(model, 2, tracer=tracer)
    assert ranker is not None
    yield ranker
    ranker.close()


@pytest.fixture(scope="module")
def embedding(model, queries):
    return model.embed_batch(queries)


class TestSpanAdoption:
    def test_worker_spans_land_in_parent_trace(self, tracer, ranker,
                                               embedding):
        tracer.reset()
        with obs.enabled():
            ranker.topk(embedding, 5)
        spans = tracer.finished()
        by_id = {s.span_id: s for s in spans}
        handles = [s for s in spans if s.name == "worker.handle"]
        assert len(handles) == ranker.num_shards

        # pid stamps: one swimlane per worker process, none the parent's
        assert {s.pid for s in handles} == set(ranker.pool.pids())
        assert os.getpid() not in {s.pid for s in handles}

        # internal structure preserved: worker.score stays a child of
        # its own worker.handle, not flattened under the parent span
        scores = [s for s in spans if s.name == "worker.score"]
        assert len(scores) == ranker.num_shards
        for span in scores:
            assert by_id[span.parent_id].name == "worker.handle"

        # re-parenting: each handle hangs off the dispatching span
        for span in handles:
            assert by_id[span.parent_id].name == "shard.dispatch"

    def test_worker_spans_fit_the_gather_window(self, tracer, ranker,
                                                embedding):
        """perf_counter is CLOCK_MONOTONIC (process-shared): adopted
        worker spans must sit inside the parent's dispatch->gather
        window, and no single worker's handle time may exceed the
        window it was measured in (10% slack for clock granularity)."""
        tracer.reset()
        with obs.enabled():
            ranker.topk(embedding, 5)
        spans = tracer.finished()
        dispatch = next(s for s in spans if s.name == "shard.dispatch")
        gather = next(s for s in spans if s.name == "shard.gather")
        window = gather.end - dispatch.start
        for span in (s for s in spans if s.name == "worker.handle"):
            assert span.start >= dispatch.start - 1e-6
            assert span.end <= gather.end + 1e-6
            assert span.duration <= 1.1 * window

    def test_chrome_export_gets_one_swimlane_per_worker(self, tracer,
                                                        ranker,
                                                        embedding):
        tracer.reset()
        with obs.enabled():
            ranker.topk(embedding, 5)
        events = chrome_trace_events(tracer.finished())
        labels = {e["pid"]: e["args"]["name"] for e in events
                  if e["name"] == "process_name"}
        worker_pids = set(ranker.pool.pids())
        assert worker_pids <= set(labels)
        for pid in worker_pids:
            assert labels[pid].startswith("shard-worker")
        parent_label = [v for k, v in labels.items()
                        if k not in worker_pids]
        assert any(v.startswith("parent") for v in parent_label)

    def test_disabled_tracing_ships_no_spans(self, tracer, ranker,
                                             embedding):
        tracer.reset()
        ranker.topk(embedding, 5)  # tracing off
        assert tracer.finished() == []


class TestMetricMerge:
    def test_per_shard_counters_accumulate(self, ranker, embedding):
        before = [ranker.metrics.counter("rank_requests", shard=i).value
                  for i in range(ranker.num_shards)]
        rounds = 3
        for _ in range(rounds):
            ranker.topk(embedding, 5)
        for index in range(ranker.num_shards):
            assert ranker.metrics.counter(
                "rank_requests", shard=index).value == \
                before[index] + rounds

    def test_worker_histograms_merge(self, ranker, embedding):
        ranker.topk(embedding, 5)
        snapshot = ranker.metrics.snapshot()
        for index in range(ranker.num_shards):
            stats = snapshot.histograms[f"rank_block_ms{{shard={index}}}"]
            assert stats.count >= 1
            assert stats.max > 0.0

    def test_metrics_flow_without_tracing(self, ranker, embedding):
        """Prometheus metrics must not require tracing to be enabled."""
        before = ranker.metrics.counter("rank_requests", shard=0).value
        ranker.topk(embedding, 5)  # tracing off
        assert ranker.metrics.counter("rank_requests", shard=0).value \
            == before + 1

    def test_filter_and_refine_is_counted_per_shard(self, model, ranker,
                                                    embedding):
        """How a top-k was ranked is never silent: the rows the exact
        kernel scored and every filter fallback ride the metric deltas."""
        def counts():
            counters = ranker.metrics.snapshot().counters
            return [(counters.get(f"rank_refine_rows{{shard={i}}}", 0),
                     counters.get(f"rank_filter_fallbacks{{shard={i}}}", 0))
                    for i in range(ranker.num_shards)]

        k = 5
        batch = len(model.ranking_payload(embedding)[0][0])
        before = counts()
        ranker.topk(embedding, k)
        filtered = counts()
        for shard, (old, new) in zip(ranker.plan.ranges,
                                     zip(before, filtered)):
            refined = new[0] - old[0]  # (query, row) pairs
            assert batch * k <= refined < batch * (shard.stop - shard.start)
            assert new[1] == old[1]  # no fallback on a healthy payload

        center, length = model.ranking_payload(embedding)[0]
        request = {"mode": "topk", "k": k,
                   "payload": [(np.full_like(center, np.nan), length)]}
        payloads = [request] * ranker.num_shards
        ranker.pool.gather(ranker.pool.dispatch(payloads), payloads)
        for shard, (old, new) in zip(ranker.plan.ranges,
                                     zip(filtered, counts())):
            assert new[1] == old[1] + 1
            assert new[0] - old[0] == batch * (shard.stop - shard.start)


class TestStaleness:
    def test_injected_stale_reply_telemetry_is_dropped(self, tracer,
                                                       ranker, embedding):
        """A reply with an old sequence number (what a worker that died
        after computing leaves behind) must not reach the owner's
        registry or tracer: its huge counts and its interval add no
        series and no span."""
        ranker.topk(embedding, 5)  # every healthy series exists
        poison = (1.0, 2.0, {"refine_rows": 10 ** 9, "fallbacks": 10 ** 9})
        stale = ("ok", 0, ({"ids": None, "vals": None}, 1.0, 2.0, poison,
                           None))
        ranker.pool._workers[0].result_q.put(stale)
        time.sleep(0.1)  # let the queue feeder make it visible
        before = ranker.metrics.snapshot()
        tracer.reset()
        with obs.enabled():
            ranker.topk(embedding, 5)  # consumes + discards the stale reply
        after = ranker.metrics.snapshot()
        assert set(after.counters) == set(before.counters)
        assert set(after.histograms) == set(before.histograms)
        for index in range(ranker.num_shards):
            key = f"rank_requests{{shard={index}}}"
            assert after.counters[key] == before.counters[key] + 1
            block = f"rank_block_ms{{shard={index}}}"
            assert after.histograms[block].count == \
                before.histograms[block].count + 1
            refined = f"rank_refine_rows{{shard={index}}}"
            assert after.counters[refined] - before.counters[refined] \
                < 10 ** 9
        spans = tracer.finished()
        assert [s.name for s in spans].count("worker.handle") == \
            ranker.num_shards
        assert not [s for s in spans if (s.start, s.end) == (1.0, 2.0)]

    def test_respawned_recomputation_counts_once(self, model, ranker,
                                                 embedding):
        """crash-after-compute: the pre-crash increments die with the
        worker (never shipped), the respawned worker's recomputation is
        merged exactly once — net effect +1, not +2."""
        payload = model.ranking_payload(embedding)
        request = {"mode": "topk", "k": 5, "payload": payload}
        crashing = [dict(request) for _ in range(ranker.num_shards)]
        crashing[0]["crash"] = "after"
        resend = [dict(request) for _ in range(ranker.num_shards)]
        before = ranker.metrics.counter("rank_requests", shard=0).value
        respawns_before = ranker.metrics.counter("worker_respawns",
                                                 worker=0).value
        seq = ranker.pool.dispatch(crashing)
        ranker.pool.gather(seq, resend)
        assert ranker.metrics.counter("rank_requests", shard=0).value \
            == before + 1
        assert ranker.metrics.counter("worker_respawns",
                                      worker=0).value \
            == respawns_before + 1
        assert all(ranker.pool.alive())


class TestHealthFlip:
    def test_healthz_flips_503_on_sigkill_and_recovers(self, model, kg,
                                                       queries):
        from repro.serve import ServeConfig, ServeRuntime

        try:
            probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            probe.bind(("127.0.0.1", 0))
            probe.close()
        except OSError as exc:
            pytest.skip(f"cannot bind a loopback port here: {exc}")

        config = ServeConfig(max_batch_size=4, num_workers=1,
                             num_shards=2, http_port=0)
        with ServeRuntime(model, kg=kg, config=config) as runtime:
            if runtime._ranker is None:
                pytest.skip("sharded ranking unavailable")
            url = runtime.http_server.url

            with urlopen(f"{url}/healthz", timeout=5) as response:
                body = json.loads(response.read().decode())
                assert response.status == 200
                assert body["workers_alive"] == [True, True]

            victim = runtime._ranker.pool.pids()[0]
            os.kill(victim, signal.SIGKILL)
            deadline = time.monotonic() + 10.0
            flipped = False
            while time.monotonic() < deadline:
                try:
                    urlopen(f"{url}/healthz", timeout=5)
                except HTTPError as exc:
                    if exc.code == 503:
                        body = json.loads(exc.read().decode())
                        assert False in body["workers_alive"]
                        flipped = True
                        break
                time.sleep(0.05)
            assert flipped, "healthz never reported the dead worker"

            # the next ranking request triggers supervision: respawn,
            # re-send, answer — and health goes green again
            embedding = model.embed_batch(queries)
            runtime._ranker.topk(embedding, 3)
            with urlopen(f"{url}/healthz", timeout=5) as response:
                body = json.loads(response.read().decode())
                assert response.status == 200
                assert body["workers_alive"] == [True, True]
                assert body["worker_respawns"] >= 1
