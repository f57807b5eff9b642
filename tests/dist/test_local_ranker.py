"""In-process serving ranks with the shard workers' kernel.

``LocalRanker`` is the one-block case of ``ShardedRanker``: the same
``sharding_spec()`` table and scorer, no pool.  Its answers must be the
oracle's — ``topk_rows(distance_to_all(embedding).data, k)`` — bit for
bit, ties included, and the table verdict it decides once per
build/refresh must reach the kernel in both tiers.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ModelConfig
from repro.core import HalkModel
from repro.core.topk import topk_rows
from repro.dist import LocalRanker, ShardedRanker
from repro.obs.metrics import MetricsRegistry
from repro.plan import plan_answer_batch
from repro.queries import Entity, Projection, Union

from .conftest import requires_shm

pytestmark = pytest.mark.dist

N_ENTITIES = 101
N_RELATIONS = 3


@pytest.fixture(scope="module")
def tied_model(kg) -> HalkModel:
    """A model whose entity table holds runs of identical rows, so whole
    groups of entities sit at exactly the same distance from any query."""
    model = HalkModel(kg, ModelConfig(embedding_dim=6, hidden_dim=12,
                                      seed=5))
    table = model.entity_points.weight.data
    table[30:60] = table[4]
    table[70:75] = table[90]
    return model


def _batch(rng, size: int, branches: int):
    def leg():
        return Projection(int(rng.integers(N_RELATIONS)),
                          Entity(int(rng.integers(N_ENTITIES))))

    return [leg() if branches == 1
            else Union(tuple(leg() for _ in range(branches)))
            for _ in range(size)]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       size=st.sampled_from([1, 2, 64]),
       k=st.sampled_from([1, 10, N_ENTITIES - 1, N_ENTITIES,
                          N_ENTITIES + 5]),
       branches=st.integers(1, 3), tied=st.booleans())
def test_in_process_topk_is_the_oracle_pass(model, tied_model, seed, size,
                                            k, branches, tied):
    model = tied_model if tied else model
    batch = _batch(np.random.default_rng(seed), size, branches)
    # a lone row is padded to the m >= 2 gemm by the plan backend; the
    # interpretive walk meets the same kernel on a doubled batch
    embedding = model.embed_batch(batch if size > 1 else batch * 2)
    distances = model.distance_to_all(embedding).data[:size]
    expect = topk_rows(distances, k)
    # the serving door: compiled plan -> numpy embedding -> LocalRanker
    assert plan_answer_batch(batch, model, top_k=k) == expect.tolist()
    # the same kernel on the oracle's own embedding, distances included
    ids, vals = LocalRanker(model).topk(embedding, k)
    assert np.array_equal(ids[:size], expect)
    assert np.array_equal(vals[:size],
                          np.take_along_axis(distances, expect, axis=-1))


def test_refresh_follows_the_models_weights(kg, queries):
    model = HalkModel(kg, ModelConfig(embedding_dim=6, hidden_dim=12,
                                      seed=8))
    ranker = LocalRanker(model)
    before, _ = ranker.topk(model.embed_batch(queries), 5)
    rng = np.random.default_rng(1)
    model.entity_points.weight.data[...] = rng.uniform(
        0.0, 6.0, model.entity_points.weight.data.shape)
    embedding = model.embed_batch(queries)
    expect = topk_rows(model.distance_to_all(embedding).data, 5)
    assert not np.array_equal(expect, before)
    ranker.refresh()
    assert np.array_equal(ranker.topk(embedding, 5)[0], expect)


class ShiftedHalk(HalkModel):
    """Publishes its table ``shift`` radians up the circle: with three
    turns, the same points outside the domain the float32 filter's bound
    is proved on."""

    shift = 6.0 * np.pi

    def sharding_spec(self):
        points, scorer = super().sharding_spec()
        return points + self.shift, scorer


def _shifted(kg) -> ShiftedHalk:
    return ShiftedHalk(kg, ModelConfig(embedding_dim=6, hidden_dim=12,
                                       seed=3))


def _exact(model, embedding, k):
    points, scorer = model.sharding_spec()
    distances = scorer.score(points, model.ranking_payload(embedding))
    expect = topk_rows(distances, k)
    return expect, np.take_along_axis(distances, expect, axis=-1)


def _fallbacks(metrics, **labels) -> int:
    return metrics.counter("rank_filter_fallbacks", **labels).value


def test_out_of_range_table_ranks_exactly_and_is_counted(kg, model,
                                                         queries):
    shifted = _shifted(kg)
    ranker = LocalRanker(shifted, metrics=MetricsRegistry())
    embedding = shifted.embed_batch(queries)
    for _ in range(2):
        ids, vals = ranker.topk(embedding, 7)
        expect, expect_vals = _exact(shifted, embedding, 7)
        assert np.array_equal(ids, expect)
        assert np.array_equal(vals, expect_vals)
    assert _fallbacks(ranker.metrics) == 2
    # an in-range table never counts one
    ranker = LocalRanker(model, metrics=MetricsRegistry())
    ranker.topk(model.embed_batch(queries), 7)
    assert _fallbacks(ranker.metrics) == 0


@requires_shm
def test_workers_take_the_parents_table_verdict(kg, queries):
    """Workers cannot see a refresh; the parent decides per table and
    ships the verdict with every request."""
    shifted = _shifted(kg)
    embedding = shifted.embed_batch(queries)
    with ShardedRanker(shifted, 2) as ranker:
        for shift, counted in ((shifted.shift, 1), (0.0, 1)):
            shifted.shift = shift
            ranker.refresh()
            ids, vals = ranker.topk(embedding, 7)
            expect, expect_vals = _exact(shifted, embedding, 7)
            assert np.array_equal(ids, expect)
            assert np.array_equal(vals, expect_vals)
            for shard in (0, 1):
                assert _fallbacks(ranker.metrics, shard=shard) == counted
