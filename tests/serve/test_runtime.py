"""End-to-end serving-runtime behaviour.

Fast correctness tests run in tier-1; the heavier concurrency stress
test is marked ``serve`` (run with ``pytest -m serve``).
"""

import threading
import time

import pytest

from repro.queries import (Entity, Intersection, Projection, QuerySampler,
                           execute, get_structure)
from repro.serve import (ServeConfig, ServeError, ServeRuntime,
                         canonicalize)
from repro.serve import runtime as runtime_module

from .conftest import Gate, HookedModel


def sample_queries(kg, count, structures=("1p", "2p", "2i"), seed=5):
    sampler = QuerySampler(kg, seed=seed)
    per = max(1, count // len(structures))
    return [sampler.sample(get_structure(name)).query
            for name in structures for _ in range(per)][:count]


def make_runtime(model, kg=None, **overrides):
    defaults = dict(max_batch_size=16, num_workers=2)
    defaults.update(overrides)
    return ServeRuntime(model, kg=kg, config=ServeConfig(**defaults))


class FailingModel(HookedModel):
    """A model whose embedding path always raises (degradation tests)."""

    def __init__(self, inner):
        super().__init__(inner, self._fail)

    @staticmethod
    def _fail():
        raise RuntimeError("synthetic model failure")


class FlakyModel(HookedModel):
    """Fails the first ``failures`` embed calls, then delegates."""

    def __init__(self, inner, failures=1):
        super().__init__(inner, self._maybe_fail)
        self.failures = failures
        self.calls = 0

    def _maybe_fail(self):
        self.calls += 1
        if self.calls <= self.failures:
            raise RuntimeError("synthetic transient failure")


class TestResultCorrectness:
    def test_matches_sequential_answers(self, tiny_kg, model):
        queries = sample_queries(tiny_kg, 18)
        expected = [model.answer(canonicalize(q), top_k=5)
                    for q in queries]
        with make_runtime(model, kg=tiny_kg) as runtime:
            results = runtime.answer_batch(queries, top_k=5)
        assert [r.entity_ids for r in results] == expected
        assert all(r.source == "model" for r in results)

    def test_batcher_ordering_under_concurrent_submission(self, tiny_kg,
                                                          model):
        queries = sample_queries(tiny_kg, 24, seed=9)
        expected = [model.answer(canonicalize(q), top_k=4)
                    for q in queries]
        outcomes: list = [None] * len(queries)
        barrier = threading.Barrier(len(queries))

        def worker(position):
            barrier.wait()      # maximise submission interleaving
            result = runtime.answer(queries[position], top_k=4)
            outcomes[position] = result.entity_ids

        with make_runtime(model, kg=tiny_kg, max_batch_size=8) as runtime:
            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(len(queries))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert outcomes == expected

    def test_batches_actually_coalesce(self, tiny_kg, model):
        queries = sample_queries(tiny_kg, 16, structures=("2p",))
        with make_runtime(model, kg=tiny_kg) as runtime:
            runtime.answer_batch(queries, top_k=3)
            stats = runtime.stats()
        # one arrival of 16 at max_batch_size=16: one batch
        assert stats.counters["batches"] == 1
        assert stats.histograms["batch_size"].max == 16


class TestCaching:
    def test_answer_cache_hit_on_isomorphic_query(self, tiny_kg, model):
        a = Intersection((Projection(0, Entity(1)), Projection(1, Entity(2))))
        b = Intersection((Projection(1, Entity(2)), Projection(0, Entity(1))))
        with make_runtime(model, kg=tiny_kg) as runtime:
            first = runtime.answer(a, top_k=5)
            second = runtime.answer(b, top_k=5)
        assert first.source == "model"
        assert second.source == "answer_cache"
        assert second.entity_ids == first.entity_ids

    def test_ttl_expiry_forces_recompute(self, tiny_kg, model):
        clock_now = [0.0]
        query = Projection(0, Entity(3))
        runtime = ServeRuntime(
            model, kg=tiny_kg,
            config=ServeConfig(max_batch_size=4, answer_ttl=30.0),
            clock=lambda: clock_now[0])
        try:
            assert runtime.answer(query, top_k=3).source == "model"
            clock_now[0] += 10.0
            assert runtime.answer(query, top_k=3).source == "answer_cache"
            clock_now[0] += 31.0
            result = runtime.answer(query, top_k=3)
            assert result.source == "model"
            stats = runtime.stats()
            assert stats.counters["answer_cache_expirations"] == 1
        finally:
            runtime.close()

    def test_embedding_cache_hits_on_new_top_k(self, tiny_kg, model):
        query = Projection(0, Entity(4))
        with make_runtime(model, kg=tiny_kg) as runtime:
            runtime.answer(query, top_k=3)
            # different top_k misses the answer cache but hits the
            # embedding tier: the embed stage must not run again
            result = runtime.answer(query, top_k=7)
            stats = runtime.stats()
        assert result.source == "model"
        assert stats.counters["embedding_cache_hits"] == 1

    def test_top_k_is_part_of_answer_cache_key(self, tiny_kg, model):
        query = Projection(1, Entity(5))
        with make_runtime(model, kg=tiny_kg) as runtime:
            small = runtime.answer(query, top_k=2)
            large = runtime.answer(query, top_k=6)
        assert len(small) == 2 and len(large) == 6
        assert large.entity_ids[:2] == small.entity_ids


class TestDegradation:
    def test_fallback_agrees_with_exact_executor(self, tiny_kg, model,
                                                 monkeypatch):
        monkeypatch.setattr(runtime_module, "MAX_RETRIES", 0)
        failing = FailingModel(model)
        queries = sample_queries(tiny_kg, 9, seed=13)
        with make_runtime(failing, kg=tiny_kg) as runtime:
            results = runtime.answer_batch(queries, top_k=50)
        for query, result in zip(queries, results):
            assert result.source == "exact"
            exact = sorted(execute(canonicalize(query), tiny_kg))[:50]
            assert result.entity_ids == exact

    def test_error_when_no_fallback_available(self, model, monkeypatch):
        monkeypatch.setattr(runtime_module, "MAX_RETRIES", 0)
        failing = FailingModel(model)
        with make_runtime(failing, kg=None) as runtime:
            future = runtime.submit(Projection(0, Entity(1)), top_k=3)
            with pytest.raises(ServeError):
                future.result(timeout=10.0)
            assert runtime.stats().counters["errors"] == 1

    def test_retry_then_success(self, tiny_kg, model, monkeypatch):
        monkeypatch.setattr(runtime_module, "MAX_RETRIES", 2)
        flaky = FlakyModel(model, failures=1)
        with make_runtime(flaky, kg=tiny_kg) as runtime:
            result = runtime.answer(Projection(0, Entity(2)), top_k=3)
            stats = runtime.stats()
        assert result.source == "model"
        assert stats.counters["retries"] == 1
        assert stats.counters["model_failures"] == 1

    def test_expired_deadline_falls_back(self, tiny_kg, model):
        with make_runtime(model, kg=tiny_kg) as runtime:
            result = runtime.answer(Projection(0, Entity(6)), top_k=4,
                                    deadline=0.0)
            stats = runtime.stats()
        assert result.source == "exact"
        assert stats.counters["deadline_overruns"] == 1
        assert stats.counters["fallback_exact"] == 1

    def test_expired_deadline_without_a_kg_is_an_error(self, model):
        with make_runtime(model, kg=None) as runtime:
            with pytest.raises(ServeError):
                runtime.answer(Projection(0, Entity(6)), top_k=4,
                               deadline=0.0)
            stats = runtime.stats()
        assert stats.counters["deadline_overruns"] == 1
        assert stats.counters["errors"] == 1

    def test_there_is_no_index_to_pass(self, tiny_kg, model):
        """The LSH deadline rung is gone, and its parameter with it."""
        with pytest.raises(TypeError):
            ServeRuntime(model, kg=tiny_kg, index=object())


class TestDoneCallbacks:
    def test_a_raising_callback_does_not_rerun_the_batch(
            self, tiny_kg, model, monkeypatch, caplog):
        """A done-callback's exception used to unwind through the
        resolving ``set_result`` into the batch's model-failure handler,
        which counted a failure and embedded + ranked the whole batch
        again.  It is the callback's bug: logged, and nothing else."""
        from repro.serve.batcher import ServeFuture

        gate = Gate()
        gated = HookedModel(model, gate)
        resolutions = []
        set_result = ServeFuture.set_result
        monkeypatch.setattr(
            ServeFuture, "set_result",
            lambda self, result: (resolutions.append(self),
                                  set_result(self, result)))
        ran = []

        def boom(future):
            raise RuntimeError("synthetic callback bug")

        queries = sample_queries(tiny_kg, 4, structures=("1p", "2p"))
        with caplog.at_level("ERROR", logger="repro.serve"), \
                make_runtime(gated, kg=tiny_kg, max_batch_size=4,
                             num_workers=1) as runtime:
            blocker = runtime.submit(Projection(0, Entity(29)), top_k=3)
            assert gate.entered.wait(10.0)  # the one worker is held
            futures = [runtime.submit(q, top_k=3) for q in queries]
            futures[1].add_done_callback(lambda f: ran.append("first"))
            futures[1].add_done_callback(boom)
            futures[1].add_done_callback(lambda f: ran.append("third"))
            for index in (0, 2, 3):
                futures[index].add_done_callback(
                    lambda f, index=index: ran.append(index))
            gate.open()  # the four were queued behind it: one batch
            results = [f.result(timeout=10.0) for f in futures]
            stats = runtime.stats()
        assert stats.counters["batches"] == 2
        assert [r.source for r in results] == ["model"] * 4
        assert stats.counters.get("model_failures", 0) == 0
        assert stats.counters.get("retries", 0) == 0
        assert stats.histograms["latency_ms"].count == 5
        assert sorted(map(id, resolutions)) == \
            sorted(map(id, [blocker] + futures))
        assert sorted(map(str, ran)) == ["0", "2", "3", "first", "third"]
        assert "synthetic callback bug" in caplog.text
        # registered after the fact it runs at once, under the same rule
        futures[0].add_done_callback(boom)
        futures[0].add_done_callback(lambda f: ran.append("late"))
        assert ran[-1] == "late"


class TestLifecycle:
    def test_close_is_idempotent(self, tiny_kg, model):
        runtime = make_runtime(model, kg=tiny_kg)
        runtime.answer(Projection(0, Entity(1)), top_k=2)
        runtime.close()
        runtime.close()

    def test_submit_after_close_raises(self, tiny_kg, model):
        runtime = make_runtime(model, kg=tiny_kg)
        runtime.close()
        with pytest.raises(RuntimeError):
            runtime.submit(Projection(0, Entity(1)))

    def test_model_without_plan_backend_is_refused(self, tiny_kg):
        """Baselines are train/evaluate-only: the constructor names the
        model and leaves nothing running."""
        from repro.baselines.cone import ConEModel
        threads = set(threading.enumerate())
        with pytest.raises(TypeError, match="ConE"):
            ServeRuntime(ConEModel(tiny_kg), kg=tiny_kg)
        assert set(threading.enumerate()) <= threads


class TestAutogradFreeAnswers:
    """Between ``submit`` and ``set_result`` no ``repro.nn.Tensor`` is
    built: the plan backend, the embedding LRU and the ranking kernel
    hold plain arrays.  (Differentiation belongs to the training call.)"""

    @pytest.mark.parametrize("caches", [True, False])
    def test_a_256_query_batch_builds_no_tensor(self, tiny_kg, model,
                                                monkeypatch, caches):
        from repro.nn import Tensor
        queries = sample_queries(tiny_kg, 256, seed=9,
                                 structures=("1p", "2p", "2i", "3i",
                                             "2in", "2d", "2u", "up"))
        assert len(queries) == 256
        expected = [model.answer(canonicalize(q), top_k=5) for q in queries]
        sizes = {} if caches else dict(embedding_cache_size=1,
                                       answer_ttl=1e-9)
        built = []
        init = Tensor.__init__

        def counting(self, *args, **kwargs):
            built.append(threading.current_thread().name)
            init(self, *args, **kwargs)

        with make_runtime(model, tiny_kg, max_batch_size=64,
                          **sizes) as runtime:
            monkeypatch.setattr(Tensor, "__init__", counting)
            for _ in range(2):  # the second pass meets warm caches
                results = runtime.answer_batch(queries, top_k=5,
                                               timeout=60.0)
                assert [r.entity_ids for r in results] == expected
            monkeypatch.undo()
            counters = runtime.stats().counters
        assert built == []
        assert counters.get("errors", 0) == 0
        assert counters.get("model_failures", 0) == 0
        # both passes ranked (no answer-cache shortcut) with caches off
        assert (counters.get("answer_cache_hits", 0) == 0) == (not caches)


@pytest.mark.serve
class TestStress:
    def test_many_concurrent_clients(self, tiny_kg, model):
        """200 queries from 16 threads: no crossovers, no drops."""
        queries = sample_queries(tiny_kg, 200,
                                 structures=("1p", "2p", "2i", "3i"),
                                 seed=21)
        expected = {i: model.answer(canonicalize(q), top_k=5)
                    for i, q in enumerate(queries)}
        outcomes: dict[int, list[int]] = {}
        lock = threading.Lock()
        positions = list(range(len(queries)))

        def worker(chunk):
            for position in chunk:
                result = runtime.answer(queries[position], top_k=5,
                                        timeout=60.0)
                with lock:
                    outcomes[position] = result.entity_ids

        with make_runtime(model, kg=tiny_kg, max_batch_size=32,
                          num_workers=4) as runtime:
            chunks = [positions[i::16] for i in range(16)]
            threads = [threading.Thread(target=worker, args=(c,))
                       for c in chunks]
            start = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            elapsed = time.perf_counter() - start
            stats = runtime.stats()
        assert len(outcomes) == len(queries)
        # cache hits are fine: isomorphic queries share an answer, so
        # every outcome must still equal its own sequential answer
        mismatches = [i for i in positions if outcomes[i] != expected[i]]
        assert not mismatches
        assert stats.counters["requests"] == len(queries)
        assert stats.histograms["latency_ms"].count == len(queries)
        assert elapsed < 60.0
