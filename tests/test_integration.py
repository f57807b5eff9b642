"""End-to-end integration tests across all subsystems.

These are the "does the whole paper pipeline hold together" tests:
dataset -> workload -> training -> evaluation -> answering, plus the
cross-subsystem paths (pruned matching, SPARQL with a trained executor,
LSH retrieval of a trained model's answers).
"""

import numpy as np
import pytest

from repro.ann import BruteForceIndex, LshIndex
from repro.baselines import (ConEModel, MLPMixModel, NewLookModel,
                             supported_workload)
from repro.config import ModelConfig, TrainConfig
from repro.core import (HalkModel, Trainer, answer_set_from_ranking, evaluate,
                        set_accuracy)
from repro.kg import fb237_mini
from repro.matching import GFinder, PrunedGFinder
from repro.queries import (QuerySampler, QueryWorkload, build_workloads,
                           execute, get_structure)
from repro.sparql import SparqlEngine


@pytest.fixture(scope="module")
def splits():
    return fb237_mini(scale=0.3)


@pytest.fixture(scope="module")
def bundle(splits):
    return build_workloads(splits, queries_per_structure=20,
                           eval_queries_per_structure=6, seed=0)


@pytest.fixture(scope="module")
def trained_halk(splits, bundle):
    model = HalkModel(splits.train, ModelConfig(embedding_dim=12,
                                                hidden_dim=24, seed=0))
    Trainer(model, bundle.train,
            TrainConfig(epochs=15, batch_size=64, num_negatives=8,
                        learning_rate=2e-3,
                        embedding_learning_rate=2e-2)).train()
    return model


class TestTrainingPipeline:
    def test_training_reduces_loss(self, splits, bundle):
        model = HalkModel(splits.train, ModelConfig(embedding_dim=8,
                                                    hidden_dim=16, seed=1))
        trainer = Trainer(model, bundle.train,
                          TrainConfig(epochs=8, batch_size=64,
                                      num_negatives=8, learning_rate=2e-3,
                                      embedding_learning_rate=2e-2))
        history = trainer.train()
        assert history.epoch_losses[-1] < history.epoch_losses[0]

    def test_evaluation_covers_all_structures(self, trained_halk, bundle):
        results = evaluate(trained_halk, bundle.test)
        assert set(results) == set(bundle.test.structures())
        for metrics in results.values():
            assert 0.0 <= metrics.mrr <= 1.0
            assert metrics.num_queries > 0

    def test_trained_model_beats_untrained(self, splits, bundle, trained_halk):
        # compare on training queries: at this tiny budget the reliable
        # signal is fitting the observed graph, not hard-answer recall
        fresh = HalkModel(splits.train, ModelConfig(embedding_dim=12,
                                                    hidden_dim=24, seed=9))
        probe = QueryWorkload({"1p": bundle.train["1p"][:40]})
        trained = evaluate(trained_halk, probe)["1p"].mrr
        untrained = evaluate(fresh, probe)["1p"].mrr
        assert trained > untrained

    @pytest.mark.parametrize("model_cls", [ConEModel, NewLookModel,
                                           MLPMixModel])
    def test_baseline_full_pipeline(self, splits, bundle, model_cls):
        model = model_cls(splits.train, ModelConfig(embedding_dim=8,
                                                    hidden_dim=16, seed=2))
        workload = supported_workload(model, bundle.train)
        assert workload.total() > 0
        history = Trainer(model, workload,
                          TrainConfig(epochs=5, batch_size=64,
                                      num_negatives=8,
                                      learning_rate=2e-3)).train()
        assert np.isfinite(history.final_loss)
        results = evaluate(model, supported_workload(model, bundle.test))
        assert results


class TestMatchingIntegration:
    def test_pruned_gfinder_end_to_end(self, splits, trained_halk):
        sampler = QuerySampler(splits.train, seed=5)
        grounded = sampler.sample(get_structure("2ipp"))
        gfinder = GFinder(splits.train)
        pruned = PrunedGFinder(trained_halk, gfinder, top_k=15)
        full_answers = gfinder.execute(grounded.query)
        pruned_answers = pruned.execute(grounded.query)
        # pruning can only remove candidates, never invent them
        assert pruned_answers <= full_answers

    def test_embedding_beats_matching_on_hard_answers(self, splits,
                                                      trained_halk):
        # on queries whose answers need unseen edges, GFinder (observed
        # graph) scores zero by construction; the embedding ranking at
        # least *can* recover them
        sampler = QuerySampler(splits.valid, splits.test, seed=6)
        grounded = sampler.sample(get_structure("1p"))
        matched = GFinder(splits.valid).execute(grounded.query)
        assert not (set(grounded.hard_answers) & matched)


class TestSparqlIntegration:
    def test_sparql_with_trained_executor(self, splits, trained_halk):
        kg = splits.train
        engine = SparqlEngine(kg, model=trained_halk)
        head, rel, _ = sorted(kg.triples)[0]
        sparql = (f"SELECT ?x WHERE {{ {kg.entity_names[head]} "
                  f"{kg.relation_names[rel]} ?x . }}")
        result = engine.answer(sparql, top_k=5)
        exact = engine.answer_exact(sparql)
        assert len(result) == 5
        assert set(exact.entity_ids) == set(kg.targets(head, rel))


class TestRetrievalIntegration:
    def test_lsh_retrieves_model_answers(self, splits, trained_halk):
        points = np.mod(trained_halk.entity_points.weight.data, 2 * np.pi)
        lsh = LshIndex(points, num_tables=10, bits_per_table=4, seed=0)
        brute = BruteForceIndex(points)
        query_point = points[3]
        exact = brute.query(query_point, top_k=5)
        approx = lsh.query(query_point, top_k=5)
        assert len(set(exact) & set(approx)) >= 3

    def test_answer_set_accuracy_roundtrip(self, splits, trained_halk):
        sampler = QuerySampler(splits.train, seed=8)
        grounded = sampler.sample(get_structure("2i"))
        distances = trained_halk.rank_all_entities([grounded.query])[0]
        predicted = answer_set_from_ranking(distances,
                                            len(grounded.easy_answers))
        accuracy = set_accuracy(predicted, grounded.easy_answers)
        assert 0.0 <= accuracy <= 1.0
