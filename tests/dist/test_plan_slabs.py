"""Per-shard slabs, chunked fills, and the oversubscription clamp.

Every shard's segment must hold exactly its rows of the source table
through every consumer-visible surface: ``shard_spec`` attach,
``rows()``, write-through ``update``, and the live ``ShardedRanker``
(bitwise-equal rankings).  The clamp must turn the former
``partition_rows`` crash into a working (smaller) plan whose effective
shard count surfaces in the serving ``shards`` gauge.
"""

import os
import warnings

import numpy as np
import pytest

from repro.config import ModelConfig
from repro.core import HalkModel
from repro.core.topk import topk_rows
from repro.dist import ArcShardScorer, EntityShardPlan, LocalRanker, \
    SharedArray, ShardedRanker
from repro.dist.plan import partition_rows

from .conftest import requires_shm, shm_segments

pytestmark = [pytest.mark.dist, pytest.mark.scaling]


# ----------------------------------------------------------------------
# SharedArray: create-empty + chunked fill
# ----------------------------------------------------------------------

@requires_shm
def test_create_empty_then_chunked_fill():
    source = np.random.default_rng(0).normal(size=(513, 6))
    with SharedArray.create_empty(source.shape, source.dtype) as shared:
        assert not shared.ndarray.any()  # fresh segments are zeroed
        shared.fill(source, chunk_rows=64)
        assert np.array_equal(shared.ndarray, source)


@requires_shm
def test_create_copies_noncontiguous_sources_once():
    base = np.arange(400, dtype=np.float64).reshape(100, 4)
    strided = base[::2]  # non-contiguous view
    with SharedArray.create(strided) as shared:
        assert np.array_equal(shared.ndarray, strided)


@requires_shm
def test_fill_rejects_row_mismatch():
    with SharedArray.create_empty((10, 3), np.float64) as shared:
        with pytest.raises(ValueError):
            shared.fill(np.zeros((9, 3)))


@requires_shm
def test_fill_accepts_memmap_sources(tmp_path):
    """xl path: the source never needs to be a resident ndarray."""
    path = tmp_path / "table.npy"
    source = np.random.default_rng(1).normal(size=(257, 5))
    np.save(path, source)
    mapped = np.load(path, mmap_mode="r")
    with SharedArray.create_empty(source.shape, source.dtype) as shared:
        shared.fill(mapped, chunk_rows=50)
        assert np.array_equal(shared.ndarray, source)
    with EntityShardPlan(np.load(path, mmap_mode="r"), 3) as plan:
        for rng in plan.ranges:
            assert np.array_equal(plan.rows(rng),
                                  source[rng.start:rng.stop])


# ----------------------------------------------------------------------
# EntityShardPlan: per-shard slabs == the source table's row blocks
# ----------------------------------------------------------------------

@requires_shm
@pytest.mark.parametrize("num_shards", [2, 3, 5])
def test_lazy_plan_matches_table_plan(num_shards):
    points = np.random.default_rng(2).uniform(size=(101, 4))
    with EntityShardPlan(points, num_shards) as plan:
        assert plan.ranges == partition_rows(101, num_shards)
        for rng in plan.ranges:
            assert np.array_equal(plan.rows(rng),
                                  points[rng.start:rng.stop])
            spec, shard = plan.shard_spec(rng.index)
            assert shard == rng
            assert spec.shape == (len(shard), 4)
            attached = spec.attach()  # what a worker maps: its rows only
            try:
                assert np.array_equal(attached.ndarray,
                                      points[shard.start:shard.stop])
            finally:
                attached.close()


@requires_shm
def test_lazy_plan_write_through_update():
    points = np.random.default_rng(3).uniform(size=(64, 3))
    with EntityShardPlan(points, 4, chunk_rows=7) as plan:
        attached = [plan.shard_spec(i)[0].attach() for i in range(4)]
        try:
            plan.update(points + 1.0)
            for shard, view in zip(plan.ranges, attached):
                assert np.array_equal(
                    view.ndarray, points[shard.start:shard.stop] + 1.0)
        finally:
            for view in attached:
                view.close()
        with pytest.raises(ValueError):
            plan.update(points[:10])


@requires_shm
def test_plan_clamps_shards_to_entity_count():
    points = np.random.default_rng(4).uniform(size=(3, 2))
    with pytest.warns(RuntimeWarning, match="clamping"):
        plan = EntityShardPlan(points, 8)
    with plan:
        assert plan.num_shards == 3
        assert [len(r) for r in plan.ranges] == [1, 1, 1]


# ----------------------------------------------------------------------
# ShardedRanker over the slabs + the clamped tiny-graph path
# ----------------------------------------------------------------------

def _reference(model, queries, k):
    embedding = model.embed_batch(queries)
    distances = model.distance_to_all(embedding).data
    ids = topk_rows(distances, k)
    return embedding, ids, np.take_along_axis(distances, ids, axis=-1)


@requires_shm
def test_lazy_ranker_bitwise_equal(model, queries):
    embedding, ids, vals = _reference(model, queries, 10)
    with ShardedRanker.for_model(model, 3) as ranker:
        got_ids, got_vals = ranker.topk(embedding, 10)
        assert np.array_equal(got_ids, ids)
        assert np.array_equal(got_vals, vals)
        ranker.refresh()  # write-through refresh keeps parity
        got_ids, got_vals = ranker.topk(embedding, 10)
        assert np.array_equal(got_ids, ids)


@requires_shm
def test_more_shards_than_entities_serves_clamped():
    """The ISSUE-8 crash: --shards 8 on a tiny graph must rank."""
    from repro.config import ModelConfig
    from repro.core import HalkModel
    from repro.kg import KnowledgeGraph
    from repro.queries import Entity, Projection

    rng = np.random.default_rng(5)
    n = 5
    triples = [(int(rng.integers(n)), 0, int(rng.integers(n)))
               for _ in range(10)]
    kg = KnowledgeGraph(n, 1, triples)
    tiny = HalkModel(kg, ModelConfig(embedding_dim=4, seed=0))
    tiny_queries = [Projection(0, Entity(h)) for h, _, _ in triples[:3]]
    embedding, ids, vals = _reference(tiny, tiny_queries, 4)
    with pytest.warns(RuntimeWarning, match="clamping"):
        ranker = ShardedRanker.for_model(tiny, 8)
    with ranker:
        assert ranker.num_shards == n
        got_ids, got_vals = ranker.topk(embedding, 4)
        assert np.array_equal(got_ids, ids)
        assert np.array_equal(got_vals, vals)
        # k beyond the whole vocabulary clips instead of raising
        got_ids, _ = ranker.topk(embedding, 99)
        assert got_ids.shape[-1] == n


@requires_shm
@pytest.mark.serve
def test_serve_runtime_surfaces_clamped_shard_gauge():
    """ServeRuntime(--shards 8) on a tiny graph: serves, and the
    ``shards`` gauge reports the clamped effective count."""
    from repro.config import ModelConfig
    from repro.core import HalkModel
    from repro.kg import KnowledgeGraph
    from repro.queries import Entity, Projection
    from repro.serve import ServeConfig, ServeRuntime

    rng = np.random.default_rng(6)
    n = 6
    triples = [(int(rng.integers(n)), 0, int(rng.integers(n)))
               for _ in range(12)]
    kg = KnowledgeGraph(n, 1, triples)
    tiny = HalkModel(kg, ModelConfig(embedding_dim=4, seed=1))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with ServeRuntime(tiny, kg=kg,
                          config=ServeConfig(num_shards=8,
                                             num_workers=1)) as runtime:
            gauge = runtime.metrics.gauge("shards").value
            assert gauge == n  # clamped, not the requested 8
            result = runtime.answer(Projection(0, Entity(0)), top_k=3)
            assert len(result.entity_ids) == 3


# ----------------------------------------------------------------------
# the prepared companion: published beside every segment, written
# through by the same update, counted, unlinked — and never stale
# ----------------------------------------------------------------------

@requires_shm
def test_companion_is_published_and_written_through():
    scorer = ArcShardScorer(eta=0.02, radius=1.0)
    rng = np.random.default_rng(7)
    points = rng.uniform(0.0, 6.0, (101, 4))
    with EntityShardPlan(points, 3, chunk_rows=7,
                         prepare=scorer.prepare) as plan:
        for table in (points, rng.uniform(0.0, 6.0, (101, 4))):
            plan.update(table)
            for shard in plan.ranges:
                expect = scorer.prepare(table[shard.start:shard.stop])
                assert np.array_equal(plan.rows(shard),
                                      table[shard.start:shard.stop])
                got = plan.rows(shard, prepared=True)
                assert got.dtype == np.float32
                assert np.array_equal(got, expect)
                # what a worker maps: same rows through the spec
                spec, same = plan.shard_spec(shard.index, prepared=True)
                assert same == shard
                attached = spec.attach()
                try:
                    assert np.array_equal(attached.ndarray, expect)
                finally:
                    attached.close()
    # no scorer table asked for: no companion, one view of each shard
    with EntityShardPlan(points, 3) as plain:
        assert plain.rows(plain.ranges[0], prepared=True) is None
        assert plain.shard_spec(0, prepared=True) == (None, plain.ranges[0])
        assert plain.memory_inventory()["prepared_bytes"] == 0


@requires_shm
def test_inventory_is_what_dev_shm_holds_and_close_unlinks_it():
    if not os.path.isdir("/dev/shm"):
        pytest.skip("no /dev/shm to inspect")
    scorer = ArcShardScorer(eta=0.02, radius=1.0)
    points = np.random.default_rng(8).uniform(0.0, 6.0, (101, 4))
    before = shm_segments()
    plan = EntityShardPlan(points, 3, prepare=scorer.prepare)
    try:
        created = shm_segments() - before
        assert len(created) == 6  # a (slab, companion) pair per shard
        on_disk = sum(os.stat(f"/dev/shm/{name}").st_size
                      for name in created)
        inventory = plan.memory_inventory()
        assert inventory["total_bytes"] == on_disk == 101 * 4 * (8 + 4)
        assert inventory["prepared_bytes"] == 101 * 4 * 4
        assert sum(s["bytes"] for s in inventory["shards"]) == on_disk
        for shard, row in zip(plan.ranges, inventory["shards"]):
            assert row["prepared_bytes"] == len(shard) * 4 * 4
            assert row["bytes"] == 3 * row["prepared_bytes"]
    finally:
        plan.close()
    assert shm_segments() <= before


@requires_shm
def test_a_plan_that_fails_half_built_unlinks_what_it_created():
    if not os.path.isdir("/dev/shm"):
        pytest.skip("no /dev/shm to inspect")
    scorer = ArcShardScorer(eta=0.02, radius=1.0)

    def prepare(rows, out=None):
        if len(rows):
            raise MemoryError("no room for the companion")
        return scorer.prepare(rows, out)

    before = shm_segments()
    with pytest.raises(MemoryError):
        EntityShardPlan(np.zeros((64, 3)), 4, prepare=prepare)
    assert shm_segments() <= before


def _reweighted(kg, seed):
    """A private model (the shared fixture must not move) and the
    random table a later refresh publishes — drawn from another stream
    than the model's own initialisation, or old and new would rank
    alike."""
    model = HalkModel(kg, ModelConfig(embedding_dim=6, hidden_dim=12,
                                      seed=seed))
    table = np.random.default_rng(seed + 1000).uniform(
        0.0, 6.0, model.entity_points.weight.data.shape)
    return model, table


@requires_shm
def test_refresh_with_new_weights_reaches_the_filter_and_the_workers(
        kg, queries):
    """After ``refresh`` the filter must read the *new* half-angles: a
    stale companion would pick its candidates from the old table and
    the refine could only rank those.  Each worker's own reply to a
    request built after the refresh ranks the new table too."""
    model, table = _reweighted(kg, seed=21)
    with ShardedRanker(model, 3) as ranker:
        before, _ = ranker.topk(model.embed_batch(queries), 10)
        model.entity_points.weight.data[...] = table
        ranker.refresh()
        embedding, ids, vals = _reference(model, queries, 10)
        assert not np.array_equal(ids, before)
        got_ids, got_vals = ranker.topk(embedding, 10)
        assert np.array_equal(got_ids, ids)
        assert np.array_equal(got_vals, vals)
        request = {"mode": "topk", "k": 10, "filterable": True,
                   "payload": model.ranking_payload(embedding)}
        payloads = [request] * ranker.num_shards
        replies, _ = ranker.pool.gather(ranker.pool.dispatch(payloads),
                                        payloads)
        distances = model.distance_to_all(embedding).data
        for shard, reply in zip(ranker.plan.ranges, replies):
            block = distances[:, shard.start:shard.stop]
            local = topk_rows(block, 10)
            assert np.array_equal(reply["ids"], local + shard.start)
            assert np.array_equal(
                reply["vals"], np.take_along_axis(block, local, axis=-1))
        # in-process serving keeps a private prepared table: same rule
        local = LocalRanker(model)
        model.entity_points.weight.data[...] = table[::-1]
        local.refresh()
        embedding, ids, vals = _reference(model, queries, 10)
        got_ids, got_vals = local.topk(embedding, 10)
        assert np.array_equal(got_ids, ids)
        assert np.array_equal(got_vals, vals)
