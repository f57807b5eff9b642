"""Request ids through the shard pool: hedges never double-count.

Satellite of the diagnostics layer: a hedged duplicate reply carries the
*original* request id, so flight-recorder entries and exemplars stay
one-per-request no matter who wins the race.  Run with
``fixed_delay=0`` — every request races a parent-side mirror against
the worker — and assert that (1) adopted worker spans and hedge spans
are stamped with exactly the dispatching request's id, (2) the
worker/hedge outcomes partition the shard fan-out, and (3) results
stay bitwise identical to the unhedged reference (the PR 6 invariant,
now with ids flowing).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.topk import topk_rows
from repro.dist import ShardedRanker
from repro.dist.pool import HedgeConfig
from repro.obs.diag import RequestContext

from .conftest import requires_shm

pytestmark = [pytest.mark.dist, pytest.mark.diag]


@pytest.fixture(scope="module")
def traced_ranker(model):
    obs.enable()
    ranker = ShardedRanker.for_model(model, 2,
                                     hedge=HedgeConfig(fixed_delay=0.0))
    assert ranker is not None
    yield ranker
    ranker.close()
    obs.disable()


@pytest.fixture(scope="module")
def embedding(model, queries):
    return model.embed_batch(queries)


def context(request_id):
    """A dispatching request's context, as the serving runtime hands it
    to ``topk`` (no recorder: only the id and the record matter here)."""
    return RequestContext(None, None, obs.get_tracer(),
                          request_id=request_id)


@requires_shm
class TestHedgedRequestIds:
    def test_shard_info_partitions_the_fanout(self, traced_ranker,
                                              embedding):
        ctx = context("rid-part")
        traced_ranker.topk(embedding, 5, ctx)
        assert ctx.record.shards == 2
        assert 0 <= ctx.record.hedge_wins <= 2

    def test_spans_carry_the_dispatching_id_only(self, traced_ranker,
                                                 embedding):
        tracer = obs.get_tracer()
        rids = [f"span-rid-{index}" for index in range(5)]
        for rid in rids:
            traced_ranker.topk(embedding, 5, context(rid))
        spans = [s for s in tracer.finished()
                 if s.name in ("worker.handle", "shard.hedge")
                 and str(s.attrs.get("request_id", "")).startswith(
                     "span-rid-")]
        assert spans, "no shard spans were adopted into the parent"
        # every span names exactly one of the ids we dispatched — a
        # hedged duplicate must never mint or carry a different id
        assert {s.attrs["request_id"] for s in spans} <= set(rids)

    @settings(max_examples=10, deadline=None)
    @given(k=st.integers(min_value=1, max_value=60))
    def test_ids_and_hedging_never_change_results(self, model,
                                                  traced_ranker,
                                                  embedding, k):
        """Property: with ids flowing and hedges racing, top-k stays
        bitwise identical to the single-process reference and the
        outcome partition accounts for every shard."""
        distances = model.distance_to_all(embedding).data
        expect_ids = topk_rows(distances, k)
        ctx = context(f"rid-k{k}")
        ids, vals = traced_ranker.topk(embedding, k, ctx)
        assert np.array_equal(ids, expect_ids)
        assert np.array_equal(
            vals, np.take_along_axis(distances, expect_ids, axis=-1))
        assert ctx.record.shards == 2
        assert 0 <= ctx.record.hedge_wins <= 2

    def test_exactly_once_counters_hold_with_ids(self, traced_ranker,
                                                 embedding):
        """rank_requests{shard=k} + hedge_wins{shard=k} == N: the PR 6
        exactly-once invariant is unchanged by the id plumbing."""
        metrics = traced_ranker.pool.metrics

        def shard_counts():
            counters = metrics.snapshot().counters
            return {(name, shard): counters.get(
                        f"{name}{{shard={shard}}}", 0)
                    for name in ("rank_requests", "hedge_wins")
                    for shard in range(2)}

        before = shard_counts()
        for index in range(4):
            traced_ranker.topk(embedding, 5,
                               context(f"rid-once-{index}"))
        after = shard_counts()
        for shard in range(2):
            handled = (after[("rank_requests", shard)]
                       - before[("rank_requests", shard)])
            wins = (after[("hedge_wins", shard)]
                    - before[("hedge_wins", shard)])
            assert handled + wins == 4, \
                f"shard {shard}: {handled} worker + {wins} hedge"
