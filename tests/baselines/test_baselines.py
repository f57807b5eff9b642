"""Tests shared across the three baseline models."""

import numpy as np
import pytest

from repro.config import ModelConfig, TrainConfig
from repro.baselines import (ConEModel, MLPMixModel, NewLookModel,
                             UnsupportedOperatorError)
from repro.core import Trainer
from repro.kg import KnowledgeGraph
from repro.queries import (Difference, Entity, GroundedQuery, Intersection,
                           Negation, Projection, QueryWorkload, Union)

CONFIG = ModelConfig(embedding_dim=8, hidden_dim=16, seed=0)


@pytest.fixture(scope="module")
def kg() -> KnowledgeGraph:
    rng = np.random.default_rng(2)
    triples = [(int(rng.integers(15)), int(rng.integers(3)),
                int(rng.integers(15))) for _ in range(50)]
    return KnowledgeGraph(15, 3, triples)


ALL_MODELS = [ConEModel, NewLookModel, MLPMixModel]


@pytest.mark.parametrize("model_cls", ALL_MODELS)
class TestCommonBehaviour:
    def test_embed_projection_batch(self, kg, model_cls):
        model = model_cls(kg, CONFIG)
        emb = model.embed_batch([Projection(0, Entity(i)) for i in range(4)])
        out = model.distance_to_all(emb)
        assert out.shape == (4, kg.num_entities)
        assert np.all(np.isfinite(out.data))

    def test_embed_intersection(self, kg, model_cls):
        model = model_cls(kg, CONFIG)
        query = Intersection((Projection(0, Entity(0)), Projection(1, Entity(1))))
        out = model.distance_to_all(model.embed_batch([query]))
        assert out.shape == (1, kg.num_entities)

    def test_union_handled_by_dnf(self, kg, model_cls):
        model = model_cls(kg, CONFIG)
        a = Projection(0, Entity(0))
        b = Projection(1, Entity(1))
        d_union = model.distance_to_all(model.embed_batch([Union((a, b))])).data
        d_a = model.distance_to_all(model.embed_batch([a])).data
        d_b = model.distance_to_all(model.embed_batch([b])).data
        np.testing.assert_allclose(d_union, np.minimum(d_a, d_b), atol=1e-9)

    def test_distance_to_entities(self, kg, model_cls):
        model = model_cls(kg, CONFIG)
        emb = model.embed_batch([Projection(0, Entity(0))])
        out = model.distance_to_entities(emb, np.array([[1, 2]]))
        assert out.shape == (1, 2)

    def test_trainable(self, kg, model_cls):
        model = model_cls(kg, CONFIG)
        workload = QueryWorkload()
        for head, rel, _ in list(kg)[:8]:
            workload.add(GroundedQuery(
                "1p", Projection(rel, Entity(head)),
                frozenset(kg.targets(head, rel)), frozenset()))
        trainer = Trainer(model, workload,
                          TrainConfig(epochs=15, batch_size=8,
                                      num_negatives=4, learning_rate=5e-3))
        history = trainer.train()
        assert history.epoch_losses[-1] < history.epoch_losses[0]

    def test_no_signature_support(self, kg, model_cls):
        model = model_cls(kg, CONFIG)
        emb = model.embed_batch([Projection(0, Entity(0))])
        assert model.query_signature(emb) is None

    def test_empty_batch_rejected(self, kg, model_cls):
        with pytest.raises(ValueError):
            model_cls(kg, CONFIG).embed_batch([])


class TestOperatorSupportMatrix:
    """Tables I–IV: '-' cells come from unsupported operators."""

    def test_cone_supports_negation_not_difference(self, kg):
        model = ConEModel(kg, CONFIG)
        negation = Intersection((Projection(0, Entity(0)),
                                 Negation(Projection(1, Entity(1)))))
        difference = Difference((Projection(0, Entity(0)),
                                 Projection(1, Entity(1))))
        assert model.supports(negation)
        assert not model.supports(difference)

    def test_newlook_supports_difference_not_negation(self, kg):
        model = NewLookModel(kg, CONFIG)
        negation = Intersection((Projection(0, Entity(0)),
                                 Negation(Projection(1, Entity(1)))))
        difference = Difference((Projection(0, Entity(0)),
                                 Projection(1, Entity(1))))
        assert not model.supports(negation)
        assert model.supports(difference)

    def test_mlpmix_supports_negation_not_difference(self, kg):
        model = MLPMixModel(kg, CONFIG)
        negation = Intersection((Projection(0, Entity(0)),
                                 Negation(Projection(1, Entity(1)))))
        difference = Difference((Projection(0, Entity(0)),
                                 Projection(1, Entity(1))))
        assert model.supports(negation)
        assert not model.supports(difference)

    def test_unsupported_error_carries_context(self, kg):
        model = ConEModel(kg, CONFIG)
        with pytest.raises(UnsupportedOperatorError) as info:
            model.embed_batch([Difference((Projection(0, Entity(0)),
                                           Projection(1, Entity(1))))])
        assert info.value.model_name == "ConE"
        assert info.value.operator == "difference"


class TestConESpecifics:
    def test_linear_negation_is_antipodal(self, kg):
        model = ConEModel(kg, CONFIG)
        child = model.embed_batch([Projection(0, Entity(0))]).branches[0]
        negated = model.embed_negate(child)
        delta = np.mod(negated.center.data - child.center.data, 2 * np.pi)
        np.testing.assert_allclose(delta, np.pi)
        np.testing.assert_allclose(negated.length.data + child.length.data,
                                   2 * np.pi)


class TestNewLookSpecifics:
    def test_offsets_stay_nonnegative(self, kg):
        model = NewLookModel(kg, CONFIG)
        query = Difference((Projection(0, Entity(0)), Projection(1, Entity(1))))
        box = model.embed_batch([query]).branches[0]
        assert np.all(box.offset.data >= 0.0)

    def test_difference_shrinks_head_box(self, kg):
        model = NewLookModel(kg, CONFIG)
        head = model.embed_batch([Projection(0, Entity(0))]).branches[0]
        query = Difference((Projection(0, Entity(0)), Projection(1, Entity(1))))
        diff = model.embed_batch([query]).branches[0]
        assert np.all(diff.offset.data <= head.offset.data + 1e-9)


class TestMLPMixSpecifics:
    def test_no_geometry_in_embedding(self, kg):
        model = MLPMixModel(kg, CONFIG)
        emb = model.embed_batch([Projection(0, Entity(0))])
        # embedding is a plain tensor, no span/size notion
        assert emb.branches[0].shape == (1, CONFIG.embedding_dim)
        assert model.size_penalty(emb) is None
