"""Tier-1 guarantee: disabled tracing costs <5% of a served query.

The serve runtime touches the tracer a bounded number of times per
request (root span, canonicalise, cache lookup, queue, embed, distance,
rank, plus slack).  With tracing disabled every touch is a flag check
returning a shared null context, so the bound we enforce is

    span_ops_per_request * disabled_cost_per_span  <  5% * query_time

measured best-of-repeats on the same machine, same process.  The
sharded ranking path is held to the same 5%, with its touches counted
rather than assumed (:class:`_Touches`).
"""

import queue
import time

import numpy as np
import pytest

from repro import obs
from repro.config import ModelConfig
from repro.core import HalkModel
from repro.kg import KnowledgeGraph
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.trace import Tracer
from repro.queries import Entity, Projection

pytestmark = pytest.mark.obs

#: generous ceiling on tracer touches per served request (runtime uses ~8)
SPAN_OPS_PER_REQUEST = 32


def _best_of(fn, repeats: int = 5) -> float:
    best = float("inf")
    for _ in range(repeats):
        best = min(best, fn())
    return best


def _disabled_span_cost(tracer: obs.Tracer, calls: int = 2000) -> float:
    """Best-of per-call seconds of tracer.span() while disabled."""

    def once() -> float:
        start = time.perf_counter()
        for _ in range(calls):
            with tracer.span("x"):
                pass
        return (time.perf_counter() - start) / calls

    return _best_of(once)


class TestDisabledOverhead:
    def test_disabled_mode_overhead_under_5_percent(self):
        assert not obs.is_enabled()
        rng = np.random.default_rng(0)
        kg = KnowledgeGraph(40, 3, [
            (int(rng.integers(40)), int(rng.integers(3)),
             int(rng.integers(40))) for _ in range(120)])
        model = HalkModel(kg, ModelConfig(embedding_dim=8, hidden_dim=16,
                                          seed=0))
        head, rel, _ = next(iter(kg))
        query = Projection(rel, Entity(head))

        model.answer_batch([query])  # warm caches / first-call overheads

        def one_query() -> float:
            start = time.perf_counter()
            model.answer_batch([query])
            return time.perf_counter() - start

        query_seconds = _best_of(one_query)
        span_seconds = _disabled_span_cost(obs.get_tracer())
        overhead = SPAN_OPS_PER_REQUEST * span_seconds
        assert overhead < 0.05 * query_seconds, (
            f"disabled tracing would cost {1e6 * overhead:.1f}us per "
            f"request vs {1e6 * query_seconds:.1f}us query time")

    def test_disabled_span_returns_shared_context(self):
        tracer = obs.Tracer()
        contexts = {id(tracer.span("a")) for _ in range(10)}
        assert len(contexts) == 1  # no per-call allocation


class _Touches:
    """Counts the top-level calls into the telemetry API while its patches
    are installed: every tracer call (a flag check while disabled) is a
    span touch; every registry lookup (a resolved ``handles`` read
    included) and metric update is a metric touch.  A call made inside a
    counted one (``handles`` looking its metrics up on a first call) is
    part of it, not a touch of its own."""

    API = (("spans", Tracer, ("span", "record", "current")),
           ("metrics", MetricsRegistry,
            ("counter", "gauge", "histogram", "handles")),
           ("metrics", Counter, ("inc",)),
           ("metrics", Gauge, ("set",)),
           ("metrics", Histogram, ("observe",)))

    def __init__(self, patch: pytest.MonkeyPatch):
        self.spans = self.metrics = 0
        self._depth = 0
        for kind, cls, names in self.API:
            for name in names:
                patch.setattr(cls, name,
                              self._counting(kind, getattr(cls, name)))

    def _counting(self, kind: str, method):
        def touch(*args, **kwargs):
            if self._depth == 0:
                setattr(self, kind, getattr(self, kind) + 1)
            self._depth += 1
            try:
                return method(*args, **kwargs)
            finally:
                self._depth -= 1
        return touch


def _shard_metrics(role, registry) -> None:
    """The metric calls of one shard's ranking request: the owner's
    record of the worker's reply."""
    role.record(registry, {"mode": "topk"}, (0.0, 0.001, {"refine_rows": 20}))


def _metric_touch_cost(calls: int = 100, repeats: int = 25) -> float:
    """Best-of seconds per metric touch, over the sharded path's own mix
    of handle reads and updates (:func:`_shard_metrics`).  Many short
    windows: one of them is likely to miss a noisy neighbour's burst."""
    from repro.dist import RankWorkerRole
    from repro.dist.plan import ShardRange

    role = RankWorkerRole(None, ShardRange(0, 0, 50), None)
    registry = MetricsRegistry()
    with pytest.MonkeyPatch.context() as patch:
        touches = _Touches(patch)
        _shard_metrics(role, registry)

    def once() -> float:
        start = time.perf_counter()
        for _ in range(calls):
            _shard_metrics(role, registry)
        return (time.perf_counter() - start) / (calls * touches.metrics)

    return _best_of(once, repeats)


def _worker_touches(ranker, payloads, patch) -> None:
    """Run each shard worker's loop in this process on the payload the
    parent sent it — one task, then stop — so ``patch``'s counters see
    any telemetry call the worker side of the request makes."""
    from repro.dist.pool import _worker_main

    for worker, payload in zip(ranker.pool._workers, payloads):
        tasks, results = queue.SimpleQueue(), queue.SimpleQueue()
        tasks.put(("task", 1, payload))
        tasks.put(("stop",))
        _worker_main(worker.role, tasks, results)
        assert [results.get()[0], results.get()[0]] == ["ready", "ok"]


class TestDisabledOverheadSharded:
    def test_sharded_ranking_overhead_under_5_percent(self):
        """The dist-path telemetry (the owner's record of each reply,
        span checks) must stay under 5% of a sharded ranking request
        with tracing disabled.  The touches one ``topk`` makes are counted — in the
        parent, and in each worker's loop replayed in-process on the
        payload it was sent — and priced at their measured best-of
        per-touch cost; the best of three rounds is held to the bound."""
        from repro.dist import ShardedRanker, dist_available

        if not dist_available():
            pytest.skip("shared memory unavailable on this platform")
        assert not obs.is_enabled()
        rng = np.random.default_rng(1)
        n = 101
        kg = KnowledgeGraph(n, 3, [
            (int(rng.integers(n)), int(rng.integers(3)),
             int(rng.integers(n))) for _ in range(250)])
        model = HalkModel(kg, ModelConfig(embedding_dim=8, hidden_dim=16,
                                          seed=0))
        queries = [Projection(rel, Entity(head))
                   for head, rel, _ in list(kg)[:4]]
        embedding = model.embed_batch(queries)
        ranker = ShardedRanker.for_model(model, 2)
        if ranker is None:
            pytest.skip("model/platform does not support sharding")
        try:
            ranker.topk(embedding, 5)  # warm the pool
            sent = []
            dispatch = ranker.pool.dispatch
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(ranker.pool, "dispatch",
                              lambda payloads, ctx=None:
                              sent.append(payloads)
                              or dispatch(payloads, ctx))
                touches = _Touches(patch)
                ranker.topk(embedding, 5)
                _worker_touches(ranker, sent[0], patch)
            # dispatch/gather/merge spans and two shard.compute records;
            # per shard at least the owner's handle read and its
            # rank_requests and rank_block_ms updates
            assert touches.spans >= 5 and touches.metrics >= 2 * 3, (
                touches.spans, touches.metrics)

            def one_request() -> float:
                start = time.perf_counter()
                ranker.topk(embedding, 5)
                return time.perf_counter() - start

            # each round prices the touches right after timing the
            # request, so both sides of the ratio see one machine state
            rounds = []
            for _ in range(3):
                query_seconds = _best_of(one_request)
                overhead = (touches.spans
                            * _disabled_span_cost(obs.get_tracer())
                            + touches.metrics * _metric_touch_cost())
                rounds.append((overhead, query_seconds))
        finally:
            ranker.close()
        overhead, query_seconds = min(rounds, key=lambda r: r[0] / r[1])
        assert overhead < 0.05 * query_seconds, (
            f"{touches.spans} span and {touches.metrics} metric touches "
            f"of disabled telemetry would cost {1e6 * overhead:.1f}us "
            f"per sharded request vs {1e6 * query_seconds:.1f}us "
            f"request time")
