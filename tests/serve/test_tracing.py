"""Serve-runtime tracing: span trees per request, correct cross-thread
nesting under concurrent submission through the worker pool."""

import threading

import pytest

from repro import obs
from repro.queries import Entity, Projection
from repro.serve import ServeConfig, ServeRuntime

pytestmark = pytest.mark.obs


@pytest.fixture
def tracer():
    with obs.enabled():
        yield obs.Tracer()


@pytest.fixture
def runtime(model, tiny_kg, tracer):
    config = ServeConfig(max_batch_size=4, num_workers=2)
    with ServeRuntime(model, kg=tiny_kg, config=config,
                      tracer=tracer) as rt:
        yield rt


def _queries(kg, count):
    """Distinct 1p queries (no answer-cache collisions)."""
    out = []
    for head, rel, _tail in kg:
        if (head, rel) not in {(q.operand.entity, q.relation)
                               for q in out}:
            out.append(Projection(rel, Entity(head)))
        if len(out) == count:
            break
    assert len(out) == count
    return out


def _by_parent(spans):
    children = {}
    for span in spans:
        children.setdefault(span.parent_id, []).append(span)
    return children


class TestRequestSpanTree:
    def test_model_path_stages(self, runtime, tracer, tiny_kg):
        [query] = _queries(tiny_kg, 1)
        result = runtime.answer(query, timeout=10.0)
        assert result.source == "model"
        spans = tracer.finished()
        [root] = [s for s in spans if s.name == "serve.request"]
        assert root.attrs["source"] == "model"
        child_names = {s.name for s in spans
                       if s.parent_id == root.span_id}
        assert child_names >= {"serve.canonicalise", "serve.cache_lookup",
                               "serve.queue", "serve.embed",
                               "serve.distance", "serve.rank"}
        # acceptance criterion: at least 5 distinct stages on a request
        assert len({s.name for s in spans}) >= 5

    def test_cache_hit_closes_root_early(self, runtime, tracer, tiny_kg):
        [query] = _queries(tiny_kg, 1)
        runtime.answer(query, timeout=10.0)
        result = runtime.answer(query, timeout=10.0)
        assert result.source == "answer_cache"
        roots = [s for s in tracer.finished() if s.name == "serve.request"]
        assert [r.attrs["source"] for r in roots] == ["model",
                                                      "answer_cache"]
        hit_children = _by_parent(tracer.finished()).get(
            roots[1].span_id, [])
        assert {s.name for s in hit_children} == {"serve.canonicalise",
                                                  "serve.cache_lookup"}

    def test_stats_snapshot_carries_stage_timings(self, runtime, tracer,
                                                  tiny_kg):
        runtime.answer_batch(_queries(tiny_kg, 3), timeout=10.0)
        stages = runtime.stats().stages
        assert set(stages) >= {"serve.request", "serve.embed",
                               "serve.rank"}
        assert stages["serve.request"].count == 3
        assert all(name.startswith("serve.") for name in stages)

    def test_disabled_tracing_records_nothing(self, model, tiny_kg):
        assert not obs.is_enabled()
        tracer = obs.Tracer()
        with ServeRuntime(model, kg=tiny_kg, tracer=tracer) as rt:
            result = rt.answer(_queries(tiny_kg, 1)[0], timeout=10.0)
        assert result.source == "model"
        assert tracer.finished() == []


class TestConcurrentNesting:
    def test_worker_pool_spans_nest_under_their_roots(self, runtime,
                                                      tracer, tiny_kg):
        """Interleaved requests from 4 client threads through 2 workers:
        every stage span must land under the root of *its* request."""
        queries = _queries(tiny_kg, 24)
        errors = []

        def client(chunk):
            try:
                for result in runtime.answer_batch(chunk, timeout=30.0):
                    assert result.source == "model"
            except Exception as exc:  # surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=client, args=(queries[i::4],))
                   for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors

        spans = tracer.finished()
        roots = [s for s in spans if s.name == "serve.request"]
        assert len(roots) == len(queries)
        children = _by_parent(spans)
        worker_threads = set()
        for root in roots:
            names = [s.name for s in children.get(root.span_id, [])]
            # exactly one ranking per request, under the right root
            assert names.count("serve.rank") == 1
            assert names.count("serve.queue") == 1
            assert "serve.distance" in names
            for child in children.get(root.span_id, []):
                if child.name in ("serve.embed", "serve.distance",
                                  "serve.rank"):
                    worker_threads.add(child.thread)
                    # stage intervals lie within the request lifetime
                    assert child.start >= root.start
                    assert child.end <= root.end
        # stages really ran on pool threads, not the client threads
        assert any(t != roots[0].thread for t in worker_threads)
        # no span escaped to a foreign or missing parent
        known = {s.span_id for s in spans}
        for span in spans:
            assert span.parent_id is None or span.parent_id in known
