"""The compiled plan as the serving runtime's only model path.

Served answers must equal the kept oracle (``model.answer_batch``, the
interpretive ``_embed`` walk) on every structure, with the same cache
semantics, the ``plan_*`` counters in ``stats()``/Prometheus,
compiled-plan shape stamps on flight records, and embeddings that do
not depend on which requests shared the micro-batch.
"""

import numpy as np
import pytest

from repro.serve import ServeConfig, ServeRuntime, canonicalize, serialize
from repro.serve.http import render_prometheus

from .conftest import sample_queries

pytestmark = pytest.mark.plan

MIX = ["1p", "2p", "3p", "2i", "3i", "ip", "pi", "2u", "up", "2d", "3d",
       "dp", "2in", "3in", "pin", "pni"]


@pytest.fixture(scope="module")
def workload(sampler_module):
    batch = sample_queries(sampler_module, MIX, per=2)
    assert len(batch) == 2 * len(MIX), "a structure failed to ground"
    return batch


@pytest.fixture(scope="module")
def sampler_module(kg):
    from repro.queries import QuerySampler
    return QuerySampler(kg, seed=5)


def serve_all(runtime, batch, top_k=5):
    futures = [runtime.submit(q, top_k=top_k) for q in batch]
    return [f.result(timeout=30) for f in futures]


class TestAnswerParity:
    def test_runtime_matches_answer_batch_oracle(self, model, kg, workload):
        want = model.answer_batch([canonicalize(q) for q in workload],
                                  top_k=5)
        caches_off = dict(answer_cache_size=1, answer_ttl=1e-9,
                          embedding_cache_size=1)
        for caches in ({}, caches_off):
            config = ServeConfig(max_batch_size=64, num_workers=1, **caches)
            with ServeRuntime(model, kg=kg, config=config) as runtime:
                got = serve_all(runtime, workload)
                assert all(r.source == "model" for r in got)
                assert [list(r.entity_ids) for r in got] == want
                again = serve_all(runtime, workload)
                assert [list(r.entity_ids) for r in again] == want
                # the answer cache serves the second pass when it is on
                assert all(r.source == ("model" if caches
                                        else "answer_cache") for r in again)

    def test_embedding_is_batch_composition_invariant(self, model, kg,
                                                      workload):
        """The same query served alone and inside a 32-query mixed batch
        leaves bitwise-equal cached embeddings and identical ids."""
        assert len(workload) == 32
        together = ServeRuntime(model, kg=kg, config=ServeConfig(
            max_batch_size=32, num_workers=1))
        alone = ServeRuntime(model, kg=kg, config=ServeConfig(
            num_workers=1))
        with together, alone:
            # one arrival of 32: one batch; a lone answer(): a batch of 1
            mixed = together.answer_batch(workload, top_k=5, timeout=30)
            assert {together.diag.flight.get(r.request_id).batch_size
                    for r in mixed} == {32}
            for query, in_batch in zip(workload, mixed):
                lone = alone.answer(query, top_k=5)
                if lone.source == "model":  # not a repeat of an earlier one
                    assert alone.diag.flight.get(
                        lone.request_id).batch_size == 1
                assert list(lone.entity_ids) == list(in_batch.entity_ids)
                key = serialize(canonicalize(query))
                ours = alone._embeddings.get(key)
                theirs = together._embeddings.get(key)
                assert np.array_equal(ours.signature, theirs.signature)
                assert len(ours.branches) == len(theirs.branches)
                for a, b in zip(ours.branches, theirs.branches):
                    assert np.array_equal(a.center.data, b.center.data)
                    assert np.array_equal(a.length.data, b.length.data)


class TestPlanMetrics:
    @pytest.fixture()
    def runtime(self, model, kg):
        config = ServeConfig(max_batch_size=64, num_workers=1)
        with ServeRuntime(model, kg=kg, config=config) as runtime:
            yield runtime

    def test_counters_in_stats_and_prometheus(self, runtime, workload):
        serve_all(runtime, workload)
        snapshot = runtime.stats()
        counters = snapshot.counters
        assert counters["plan_cache_misses"] > 0
        assert counters["plan_cache_hits"] \
            + counters["plan_cache_misses"] >= len(workload)
        assert counters["plan_ops_total"] >= counters["plan_ops_executed"]
        text = render_prometheus(snapshot)
        assert "repro_plan_cache_hits" in text
        assert "repro_plan_cache_misses" in text
        assert "repro_plan_cse_ops_saved" in text

    def test_flight_records_stamp_plan_shape(self, runtime, workload):
        results = serve_all(runtime, workload)
        records = [runtime.diag.flight.get(r.request_id) for r in results]
        assert all(r is not None for r in records)
        model_records = [r for r in records if r.source == "model"]
        assert model_records
        for record in model_records:
            assert record.plan_ops_total >= record.plan_ops_executed > 0
            assert record.structure  # per-query key survives plan batching


class TestStructureCoalescing:
    def test_mixed_structures_share_one_micro_batch(self, model, kg,
                                                    workload):
        # the batcher is one FIFO whatever the structures, so one pull
        # serves the whole mixed arrival
        config = ServeConfig(max_batch_size=64, num_workers=1)
        with ServeRuntime(model, kg=kg, config=config) as runtime:
            results = runtime.answer_batch(workload, top_k=5, timeout=30)
            sizes = {runtime.diag.flight.get(r.request_id).batch_size
                     for r in results}
            assert sizes == {len(workload)}
