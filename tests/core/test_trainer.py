"""Tests for the generic training loop."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ModelConfig, TrainConfig
from repro.core import HalkModel, Trainer
from repro.kg import KnowledgeGraph
from repro.queries import Entity, GroundedQuery, Projection, QueryWorkload


@pytest.fixture(scope="module")
def kg() -> KnowledgeGraph:
    rng = np.random.default_rng(1)
    triples = [(int(rng.integers(15)), int(rng.integers(2)),
                int(rng.integers(15))) for _ in range(40)]
    return KnowledgeGraph(15, 2, triples)


@pytest.fixture
def workload(kg) -> QueryWorkload:
    workload = QueryWorkload()
    for head, rel, _tail in list(kg)[:12]:
        query = Projection(rel, Entity(head))
        answers = kg.targets(head, rel)
        workload.add(GroundedQuery("1p", query, frozenset(answers), frozenset()))
    return workload


@pytest.fixture
def model(kg) -> HalkModel:
    return HalkModel(kg, ModelConfig(embedding_dim=6, hidden_dim=12, seed=0))


class TestTrainer:
    def test_loss_decreases(self, model, workload):
        trainer = Trainer(model, workload,
                          TrainConfig(epochs=20, batch_size=8,
                                      num_negatives=4, learning_rate=5e-3))
        history = trainer.train()
        assert history.epoch_losses[-1] < history.epoch_losses[0]

    def test_history_lengths(self, model, workload):
        config = TrainConfig(epochs=3, batch_size=8, num_negatives=4)
        history = Trainer(model, workload, config).train()
        assert len(history.epoch_losses) == 3
        assert history.seconds > 0

    def test_step_returns_finite_loss(self, model, workload):
        trainer = Trainer(model, workload, TrainConfig(epochs=1, batch_size=4,
                                                       num_negatives=4))
        loss = trainer.step(workload["1p"][:4])
        assert np.isfinite(loss)

    def test_gamma_xi_read_from_model_config(self, model, workload):
        trainer = Trainer(model, workload)
        assert trainer.gamma == model.config.gamma
        assert trainer.xi == model.config.xi

    def test_gamma_override(self, model, workload):
        trainer = Trainer(model, workload, gamma=3.0, xi=0.0)
        assert trainer.gamma == 3.0
        assert trainer.xi == 0.0

    def test_negatives_exclude_answers(self, model, workload):
        trainer = Trainer(model, workload,
                          TrainConfig(epochs=1, batch_size=4, num_negatives=8,
                                      seed=3))
        batch = workload["1p"][:4]
        negatives = trainer._sample_negatives(batch)
        for row, query in zip(negatives, batch):
            assert not set(int(e) for e in row) & set(query.all_answers)

    def test_positives_drawn_from_answers(self, model, workload):
        trainer = Trainer(model, workload, TrainConfig(epochs=1, batch_size=4,
                                                       num_negatives=4))
        batch = workload["1p"][:4]
        positives = trainer._sample_positives(batch)
        for value, query in zip(positives, batch):
            assert int(value) in query.easy_answers

    def test_training_is_deterministic_given_seeds(self, kg, workload):
        def run():
            model = HalkModel(kg, ModelConfig(embedding_dim=6, hidden_dim=12,
                                              seed=0))
            trainer = Trainer(model, workload,
                              TrainConfig(epochs=2, batch_size=8,
                                          num_negatives=4, seed=5))
            return trainer.train().epoch_losses

        assert run() == run()

    def test_parameters_change_during_training(self, model, workload):
        before = model.entity_points.weight.data.copy()
        Trainer(model, workload, TrainConfig(epochs=2, batch_size=8,
                                             num_negatives=4)).train()
        assert not np.allclose(before, model.entity_points.weight.data)

    def test_empty_workload_raises_instead_of_nan(self, model):
        """An epoch with zero batches must fail loudly, not record
        float(np.mean([])) == NaN into the history."""
        trainer = Trainer(model, QueryWorkload(),
                          TrainConfig(epochs=2, batch_size=8,
                                      num_negatives=4))
        with pytest.raises(ValueError, match="produced no batches"):
            trainer.train()
        assert not any(np.isnan(loss)
                       for loss in trainer.history.epoch_losses)


def reference_negatives(rng, batch, m: int, n: int) -> np.ndarray:
    """``Trainer._sample_negatives`` as a loop of generator calls: ``m``
    ids per query, then one redraw at a time, left to right, while an id
    is an answer.  What the block-drawn sampler must reproduce draw for
    draw, generator state included."""
    out = np.empty((len(batch), m), dtype=np.int64)
    for i, query in enumerate(batch):
        answers = query.all_answers
        if len(answers) >= n:
            out[i] = rng.integers(0, n, size=m)
            continue
        draws = rng.integers(0, n, size=m)
        for j in range(m):
            while int(draws[j]) in answers:
                draws[j] = rng.integers(0, n)
        out[i] = draws
    return out


def reference_positives(rng, batch) -> np.ndarray:
    """``Trainer._sample_positives`` as one generator call per query."""
    out = np.empty(len(batch), dtype=np.int64)
    for i, query in enumerate(batch):
        answers = tuple(query.easy_answers) or tuple(query.hard_answers)
        out[i] = answers[int(rng.integers(len(answers)))]
    return out


class _Vocabulary:
    def __init__(self, num_entities: int):
        self.num_entities = num_entities


@st.composite
def negative_sampling_case(draw):
    n = draw(st.sampled_from([1, 2, 7, 88, 5000]))
    m = draw(st.integers(1, 9))
    # up to "every entity but one is an answer": the redraws then outrun
    # any block drawn ahead, so the refill path runs too
    density = draw(st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    batch = []
    for _ in range(draw(st.integers(0, 6))):
        answers = {int(e) for e in np.flatnonzero(rng.random(n) < density)}
        kind = draw(st.sampled_from(["as_drawn", "all", "all_but_one",
                                     "beyond"]))
        if kind == "all":
            answers = set(range(n))
        elif kind == "all_but_one":
            answers = set(range(n)) - {int(rng.integers(n))}
        elif kind == "beyond":  # len(answers) >= n without covering it
            answers = set(range(1, n + 1))
        easy = {e for e in answers if e % 2}
        batch.append(GroundedQuery("1p", Projection(0, Entity(0)),
                                   frozenset(easy),
                                   frozenset(answers - easy)))
    return n, m, batch, draw(st.integers(0, 2 ** 32 - 1))


class TestSamplingMatchesTheLoop:
    @given(negative_sampling_case())
    @settings(max_examples=150, deadline=None)
    def test_same_draws_and_same_generator_state_as_the_loop(self, case):
        n, m, batch, seed = case
        trainer = Trainer.__new__(Trainer)  # the sampler reads only these
        trainer.config = TrainConfig(num_negatives=m)
        trainer.model = _Vocabulary(n)
        trainer.rng = np.random.default_rng(seed)
        trainer.rng.integers(0, 3)  # leave half a 64-bit word buffered
        reference = np.random.default_rng(seed)
        reference.integers(0, 3)

        got = trainer._sample_negatives(batch)
        want = reference_negatives(reference, batch, m, n)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)
        assert trainer.rng.bit_generator.state \
            == reference.bit_generator.state

    @given(negative_sampling_case())
    @settings(max_examples=100, deadline=None)
    def test_positives_drawn_with_one_call(self, case):
        _, _, batch, seed = case
        batch = [query for query in batch if query.all_answers]
        trainer = Trainer.__new__(Trainer)
        trainer.rng = np.random.default_rng(seed)
        trainer.rng.integers(0, 3)
        reference = np.random.default_rng(seed)
        reference.integers(0, 3)

        got = trainer._sample_positives(batch)
        want = reference_positives(reference, batch)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert trainer.rng.bit_generator.state \
            == reference.bit_generator.state
