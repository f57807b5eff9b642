"""A request is one record, and the serving heap is frozen while it serves.

Pins the allocation contract of the serving path: a queued request is
one ``__slots__`` object (record, queue entry and future) plus its walk;
opening and closing runtimes leaves the collector's permanent generation
as it was found, and a closed runtime is freed without it; the
collector's work shows in ``stats()``; and a kept
trace rendered on read is the tree that tracing renders at completion.
"""

import gc
import weakref

import pytest

from repro import obs
from repro.gateway import Gateway
from repro.obs.diag import DiagConfig
from repro.queries import Entity, Projection
from repro.serve import ServeConfig, ServeRequest, ServeRuntime

from .conftest import Gate, HookedModel
from .test_runtime import sample_queries

pytestmark = pytest.mark.diag

#: tracked containers one queued request keeps alive: its record (which
#: is its future), the latch its waiters take turns on, and its walk
#: with the two id lists the plan compiler reads
CONTAINERS_PER_REQUEST = 5


def caches_off(**overrides) -> ServeConfig:
    return ServeConfig(answer_cache_size=1, answer_ttl=1e-9,
                       embedding_cache_size=1, **overrides)


class TestOneRecord:
    def test_a_queued_request_is_one_record_and_its_walk(self, model,
                                                         tiny_kg):
        """Held worker, N more submits: each queued request adds one
        record, one latch and one walk — the future, the flight record,
        the diagnostics context, its stamp list and the queue entry used
        to be five more."""
        gate = Gate()
        queries = sample_queries(tiny_kg, 48, seed=5,
                                 structures=("1p", "2p"))
        with ServeRuntime(HookedModel(model, gate), kg=tiny_kg,
                          config=caches_off(profiling=False)) as runtime:
            blocker = runtime.submit(Projection(0, Entity(29)), top_k=3)
            assert gate.entered.wait(10.0)
            gc.collect()
            gc.disable()
            try:
                counts, futures = [], []
                for part in (queries[:16], queries[16:]):
                    futures += [runtime.submit(q, top_k=3) for q in part]
                    counts.append(len(gc.get_objects()))
            finally:
                gc.enable()
            gate.open()
            results = [f.result(10.0) for f in [blocker] + futures]
        # the slope over the last 32: one-time allocations fall before
        assert (counts[1] - counts[0]) / 32 == CONTAINERS_PER_REQUEST
        assert all(isinstance(f, ServeRequest) for f in futures)
        assert [r.source for r in results] == ["model"] * len(results)

    def test_a_kept_record_drops_its_query(self, model, tiny_kg):
        config = ServeConfig(diag=DiagConfig(trace_latency_ms=0.0,
                                             trace_top_p=None))
        with ServeRuntime(model, kg=tiny_kg, config=config) as runtime:
            future = runtime.submit(Projection(0, Entity(1)), top_k=3)
            result = future.result(10.0)
            kept = runtime.diag.sampler._traces[result.request_id]
        assert kept is future
        assert kept.query is None and kept.walk is None


class TestFrozenHeap:
    def test_runtimes_leave_the_freeze_count_as_they_found_it(
            self, model, tiny_kg):
        """Nested and side by side: the first open freezes, the last
        close thaws, and the count ends where it started.  (A frozen
        object that dies leaves the count, so while a runtime is open it
        can only shrink; a second freeze would have grown it by all
        that was allocated since the first.)"""
        found = gc.get_freeze_count()
        assert found == 0
        with ServeRuntime(model, kg=tiny_kg) as outer:
            frozen = gc.get_freeze_count()
            assert frozen > 0
            with ServeRuntime(model, kg=tiny_kg) as inner:
                assert 0 < gc.get_freeze_count() <= frozen
                inner.answer(Projection(0, Entity(1)), top_k=3)
            # the outer one holds it
            assert 0 < gc.get_freeze_count() <= frozen
            outer.answer(Projection(0, Entity(2)), top_k=3)
        assert gc.get_freeze_count() == found
        first = ServeRuntime(model, kg=tiny_kg)
        second = ServeRuntime(model, kg=tiny_kg)
        first.close()  # closed before the second: the second still holds
        assert gc.get_freeze_count() > 0
        second.close()
        assert gc.get_freeze_count() == found

    def test_a_heap_frozen_by_someone_else_stays_theirs(self, model,
                                                        tiny_kg):
        gc.freeze()
        try:
            found = gc.get_freeze_count()
            with ServeRuntime(model, kg=tiny_kg):
                pass
            assert gc.get_freeze_count() == found
        finally:
            gc.unfreeze()

    @pytest.mark.usefixtures("require_loopback_bind")
    def test_a_closed_runtime_is_freed_without_a_collection(self, model,
                                                            tiny_kg):
        """While the heap is frozen a reference cycle pins what it holds
        until the last runtime closes; a closed runtime holds none — its
        batcher, its HTTP server and its kept records let go of it — so
        dropping it frees it and everything it owns at once."""
        config = ServeConfig(http_port=0, diag=DiagConfig(
            trace_latency_ms=0.0, trace_top_p=None))
        gc.collect()
        gc.disable()
        try:
            runtime = ServeRuntime(model, kg=tiny_kg, config=config)
            gateway = Gateway(runtime)  # mounts its query endpoint
            gateway.answer(Projection(0, Entity(1)), top_k=3, timeout=10.0)
            assert len(runtime.diag.sampler) == 1  # a kept record
            freed = weakref.ref(runtime)
            runtime.close()
            del runtime, gateway
            assert freed() is None
        finally:
            gc.enable()

    def test_collections_show_in_stats(self, model, tiny_kg):
        with ServeRuntime(model, kg=tiny_kg) as runtime:
            gc.collect()
            snapshot = runtime.stats()
        assert snapshot.counters["gc_collections{generation=2}"] >= 1
        assert snapshot.gauges["gc_pause_ms{generation=2}"] > 0.0
        assert {f"gc_collections{{generation={g}}}" for g in range(3)} \
            <= set(snapshot.counters)


class TestRenderedOnRead:
    def test_a_kept_trace_read_later_is_the_tree_tracing_renders(
            self, model, tiny_kg):
        """The same request kept with tracing on (its tree rendered at
        completion) and off (rendered when read): the same names in the
        same id order, the same parents, attrs and threads."""
        def kept_tree(tracing):
            config = caches_off(diag=DiagConfig(trace_latency_ms=0.0,
                                                trace_top_p=None))
            with obs.enabled(tracing):
                with ServeRuntime(model, kg=tiny_kg, config=config,
                                  tracer=obs.Tracer()) as runtime:
                    rid = runtime.answer(Projection(0, Entity(1)),
                                         top_k=3).request_id
                    tree = runtime.diag.trace(rid)
            order = {span.span_id: index for index, span
                     in enumerate(sorted(tree, key=lambda s: s.span_id))}
            return [(span.name, order[span.span_id],
                     order.get(span.parent_id),
                     {k: v for k, v in span.attrs.items()
                      if k != "request_id"},
                     span.thread) for span in tree]

        at_completion, on_read = kept_tree(True), kept_tree(False)
        assert at_completion == on_read
        assert [name for name, *_ in on_read] == [
            "serve.request", "serve.canonicalise", "serve.cache_lookup",
            "serve.queue", "serve.embed", "serve.distance", "serve.rank"]
