"""Hot model-reload tests for the serving runtime."""

import threading

import numpy as np
import pytest

from repro.ckpt import CheckpointError, save_checkpoint
from repro.config import ModelConfig
from repro.core import HalkModel
from repro.queries import QuerySampler, get_structure
from repro.serve import ServeConfig, ServeRuntime
from repro.serve.canonical import canonicalize


def trained_variant(tiny_kg, seed: int) -> HalkModel:
    """A model with the same architecture but different weights."""
    return HalkModel(tiny_kg, ModelConfig(embedding_dim=8, hidden_dim=16,
                                          seed=seed))


def sample_queries(tiny_kg, count: int = 6):
    sampler = QuerySampler(tiny_kg, seed=3)
    return [sampler.sample(get_structure(name)).query
            for name in ("1p", "2p") for _ in range(count // 2)]


@pytest.fixture
def checkpoint_path(tiny_kg, tmp_path):
    donor = trained_variant(tiny_kg, seed=9)
    path = tmp_path / "retrained.npz"
    save_checkpoint(path, {"model": donor.state_dict()},
                    meta={"dataset": "tiny"})
    return path, donor


class TestReload:
    def test_reload_swaps_weights_and_bumps_version(self, tiny_kg,
                                                    checkpoint_path):
        path, donor = checkpoint_path
        model = trained_variant(tiny_kg, seed=0)
        with ServeRuntime(model, kg=tiny_kg) as runtime:
            assert runtime.model_version == 1
            version = runtime.reload(path)
            assert version == 2
            assert runtime.model_version == 2
            np.testing.assert_array_equal(
                model.entity_points.weight.data,
                donor.entity_points.weight.data)
            assert runtime.stats().model_version == 2
            assert runtime.stats().counters["model_reloads"] == 1

    def test_reload_flushes_embedding_cache(self, tiny_kg, checkpoint_path):
        path, _ = checkpoint_path
        model = trained_variant(tiny_kg, seed=0)
        queries = sample_queries(tiny_kg)
        with ServeRuntime(model, kg=tiny_kg) as runtime:
            runtime.answer_batch(queries, top_k=3)
            assert len(runtime._embeddings) > 0
            runtime.reload(path)
            assert len(runtime._embeddings) == 0

    def test_reload_answers_change_with_weights(self, tiny_kg,
                                                checkpoint_path):
        path, donor = checkpoint_path
        model = trained_variant(tiny_kg, seed=0)
        query = sample_queries(tiny_kg, 2)[0]
        # short TTL so the answer cache does not mask the new model
        config = ServeConfig(answer_ttl=1e-9)
        with ServeRuntime(model, kg=tiny_kg, config=config) as runtime:
            runtime.reload(path)
            served = runtime.answer(query, top_k=5).entity_ids
        assert served == donor.answer(canonicalize(query), top_k=5)

    def test_reload_rebuilds_the_in_process_table(self, tiny_kg,
                                                  checkpoint_path):
        """In-process ranking holds a wrapped copy of the entity table;
        answers before a reload follow the old copy, answers after it
        the new one."""
        path, donor = checkpoint_path
        model = trained_variant(tiny_kg, seed=0)
        first, second = sample_queries(tiny_kg, 2)
        old = trained_variant(tiny_kg, seed=0).answer(
            canonicalize(first), top_k=5)
        with ServeRuntime(model, kg=tiny_kg) as runtime:
            assert runtime.answer(first, top_k=5).entity_ids == old
            stale = runtime._local._points
            runtime.reload(path)
            assert runtime._local._points is not stale
            np.testing.assert_array_equal(runtime._local._points,
                                          donor.sharding_spec()[0])
            served = runtime.answer(second, top_k=5).entity_ids
        assert served == donor.answer(canonicalize(second), top_k=5)

    def test_reload_validates_before_swapping(self, tiny_kg, tmp_path):
        model = trained_variant(tiny_kg, seed=0)
        before = model.entity_points.weight.data.copy()
        wrong = tmp_path / "wrong.npz"
        # architecture mismatch: different embedding dim
        donor = HalkModel(tiny_kg, ModelConfig(embedding_dim=4, hidden_dim=8,
                                               seed=1))
        save_checkpoint(wrong, {"model": donor.state_dict()})
        with ServeRuntime(model, kg=tiny_kg) as runtime:
            with pytest.raises(ValueError, match="shape mismatch"):
                runtime.reload(wrong)
            # failed reload leaves weights and version untouched
            np.testing.assert_array_equal(
                model.entity_points.weight.data, before)
            assert runtime.model_version == 1

    def test_reload_rejects_meta_mismatch(self, tiny_kg, checkpoint_path):
        path, _ = checkpoint_path
        model = trained_variant(tiny_kg, seed=0)
        with ServeRuntime(model, kg=tiny_kg) as runtime:
            with pytest.raises(CheckpointError, match="dataset"):
                runtime.reload(path, expect={"dataset": "other"})
            assert runtime.model_version == 1

    def test_model_version_in_trace_spans(self, tiny_kg, checkpoint_path):
        from repro import obs
        path, _ = checkpoint_path
        model = trained_variant(tiny_kg, seed=0)
        tracer = obs.get_tracer()
        tracer.reset()
        first, second = sample_queries(tiny_kg, 2)
        with obs.enabled():
            with ServeRuntime(model, kg=tiny_kg) as runtime:
                runtime.answer(first, top_k=3)
                runtime.reload(path)
                runtime.answer(second, top_k=3)
        roots = [s for s in tracer.finished()
                 if s.name == "serve.request"]
        versions = [s.attrs.get("model_version") for s in roots]
        assert versions[0] == 1
        assert versions[-1] == 2

    def test_watch_reloads_on_mtime_change(self, tiny_kg, tmp_path):
        donor = trained_variant(tiny_kg, seed=9)
        path = tmp_path / "live.npz"
        model = trained_variant(tiny_kg, seed=0)
        save_checkpoint(path, {"model": model.state_dict()})
        with ServeRuntime(model, kg=tiny_kg) as runtime:
            runtime.watch(path, interval=0.02)
            save_checkpoint(path, {"model": donor.state_dict()})
            deadline = threading.Event()
            for _ in range(200):
                if runtime.model_version == 2:
                    break
                deadline.wait(0.02)
            assert runtime.model_version == 2
            np.testing.assert_array_equal(
                model.entity_points.weight.data,
                donor.entity_points.weight.data)
            with pytest.raises(RuntimeError, match="already watching"):
                runtime.watch(path)


@pytest.mark.serve
class TestReloadUnderLoad:
    def test_reload_loop_under_concurrent_answers(self, tiny_kg, tmp_path):
        """Serve while reloading in a tight loop: every answer must come
        from a self-consistent parameter set (old or new, never mixed),
        and nothing may deadlock or error."""
        model_a = trained_variant(tiny_kg, seed=0)
        model_b = trained_variant(tiny_kg, seed=9)
        serving = trained_variant(tiny_kg, seed=0)
        queries = sample_queries(tiny_kg, 6)
        expected = {}
        paths = {}
        for key, donor in (("a", model_a), ("b", model_b)):
            path = tmp_path / f"{key}.npz"
            save_checkpoint(path, {"model": donor.state_dict()})
            paths[key] = path
            expected[key] = [donor.answer(canonicalize(q), top_k=5)
                             for q in queries]
        config = ServeConfig(answer_ttl=1e-9, num_workers=3)
        torn = []
        with ServeRuntime(serving, kg=tiny_kg, config=config) as runtime:
            stop = threading.Event()

            def reloader():
                flip = 0
                while not stop.is_set():
                    runtime.reload(paths["b" if flip % 2 else "a"])
                    flip += 1

            thread = threading.Thread(target=reloader)
            thread.start()
            try:
                for _ in range(30):
                    results = runtime.answer_batch(queries, top_k=5)
                    for index, result in enumerate(results):
                        if result.source != "model":
                            continue  # fallback path, not under test
                        # a half-swapped parameter set would rank with
                        # garbage distances and match neither version
                        if result.entity_ids not in (
                                expected["a"][index],
                                expected["b"][index]):
                            torn.append((index, result.entity_ids))
            finally:
                stop.set()
                thread.join()
        assert not torn, f"answers from a torn model: {torn[:3]}"
        assert runtime.model_version > 1