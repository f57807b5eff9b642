"""Request ids through the shard pool.

Satellite of the diagnostics layer: the pool stamps the dispatching
request's id on every worker span it adopts and notes the shard fan-out
on that request's flight record, so spans, exemplars and flight-recorder
entries for one query stay joinable.
"""

import pytest

from repro import obs
from repro.dist import ShardedRanker
from repro.obs.diag import RequestContext

from .conftest import requires_shm

pytestmark = [pytest.mark.dist, pytest.mark.diag]


@pytest.fixture(scope="module")
def traced_ranker(model):
    obs.enable()
    ranker = ShardedRanker.for_model(model, 2)
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
class TestRequestIds:
    def test_record_notes_the_fanout(self, traced_ranker, embedding):
        ctx = context("rid-part")
        traced_ranker.topk(embedding, 5, ctx)
        assert ctx.record.shards == 2

    def test_spans_carry_the_dispatching_id_only(self, traced_ranker,
                                                 embedding):
        tracer = obs.get_tracer()
        rids = [f"span-rid-{index}" for index in range(5)]
        for rid in rids:
            traced_ranker.topk(embedding, 5, context(rid))
        spans = [s for s in tracer.finished()
                 if s.name == "worker.handle"
                 and str(s.attrs.get("request_id", "")).startswith(
                     "span-rid-")]
        assert spans, "no shard spans were adopted into the parent"
        # every span names exactly one of the ids we dispatched
        assert {s.attrs["request_id"] for s in spans} <= set(rids)
