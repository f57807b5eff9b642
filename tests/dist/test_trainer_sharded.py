"""Data-parallel training must match the single-process trainer.

The sharded gradient is the sample-count weighted sum of per-worker
sub-batch gradients — mathematically equal to the full-batch gradient,
different only in float summation order, so parameters are compared to a
tight tolerance rather than bitwise.
"""

import numpy as np
import pytest

from repro import obs
from repro.config import ModelConfig, TrainConfig
from repro.core import HalkModel, Trainer
from repro.dist import ShardedTrainer
from repro.queries import (Entity, GroundedQuery, Intersection, Projection,
                           QueryWorkload)

from .conftest import requires_shm

pytestmark = [pytest.mark.dist, requires_shm]


@pytest.fixture(scope="module")
def workload(kg) -> QueryWorkload:
    workload = QueryWorkload()
    for head, rel, _ in list(kg)[:16]:
        workload.add(GroundedQuery("1p", Projection(rel, Entity(head)),
                                   frozenset(kg.targets(head, rel)),
                                   frozenset()))
    return workload


def _model(kg):
    return HalkModel(kg, ModelConfig(embedding_dim=6, hidden_dim=12,
                                     seed=3))


def _config(epochs=1):
    return TrainConfig(epochs=epochs, batch_size=8, num_negatives=4,
                       seed=5, log_every=0)


def test_two_worker_training_matches_single_process(kg, workload):
    single = _model(kg)
    history = Trainer(single, workload, _config()).train()
    sharded_model = _model(kg)
    trainer = ShardedTrainer(sharded_model, workload, _config(),
                             num_workers=2)
    sharded_history = trainer.train()

    np.testing.assert_allclose(sharded_history.epoch_losses,
                               history.epoch_losses, rtol=1e-12)
    for (name, p1), (_, p2) in zip(single.named_parameters(),
                                   sharded_model.named_parameters()):
        np.testing.assert_allclose(p2.data, p1.data, atol=1e-10,
                                   err_msg=name)


@pytest.fixture(scope="module")
def two_structure_workload(kg, workload) -> QueryWorkload:
    """1p plus 2i: a 1p step leaves the intersection networks without a
    gradient and a 2i step touches them, so the trainers must agree on
    which parameters a step skips, not only on the gradients."""
    both = QueryWorkload({"1p": list(workload["1p"])})
    by_tail: dict[int, list[tuple[int, int]]] = {}
    for head, rel, tail in sorted(kg):
        by_tail.setdefault(tail, []).append((head, rel))
    for tail, edges in sorted(by_tail.items()):
        if len(edges) < 2 or len(both.queries.get("2i", ())) == 16:
            continue
        (h1, r1), (h2, r2) = edges[:2]
        answers = kg.targets(h1, r1) & kg.targets(h2, r2)
        both.add(GroundedQuery(
            "2i", Intersection((Projection(r1, Entity(h1)),
                                Projection(r2, Entity(h2)))),
            frozenset(answers), frozenset()))
    assert len(both["2i"]) == 16
    return both


@pytest.mark.parametrize("num_workers", [1, 2])
def test_untouched_parameters_are_skipped_like_single_process(
        kg, two_structure_workload, num_workers):
    """Adam skips a parameter whose ``grad`` is None.  Workers used to
    zero-fill their slab row and the parent handed *every* parameter a
    gradient, so the intersection networks' moments decayed (and the
    weights moved) on 1p steps: by the third epoch the loss was off by
    1e-3 with a single worker, which computes Trainer's own gradients."""
    single = _model(kg)
    history = Trainer(single, two_structure_workload,
                      _config(epochs=3)).train()
    sharded_model = _model(kg)
    sharded_history = ShardedTrainer(
        sharded_model, two_structure_workload, _config(epochs=3),
        num_workers=num_workers).train()

    np.testing.assert_allclose(sharded_history.epoch_losses,
                               history.epoch_losses, rtol=1e-12)
    for (name, p1), (_, p2) in zip(single.named_parameters(),
                                   sharded_model.named_parameters()):
        np.testing.assert_allclose(p2.data, p1.data, atol=1e-10,
                                   err_msg=name)


def test_train_releases_workers_and_segments(kg, workload):
    trainer = ShardedTrainer(_model(kg), workload, _config(),
                             num_workers=2)
    trainer.train()
    # train() closes the pool on exit; closing again must be a no-op
    assert trainer._pool is None
    trainer.close()


def test_rejects_silly_worker_counts(kg, workload):
    with pytest.raises(ValueError):
        ShardedTrainer(_model(kg), workload, _config(), num_workers=0)


def test_traced_steps_record_each_workers_tree_once(kg, workload):
    """Workers write no telemetry: from each reply the owner records
    ``worker.handle`` → ``worker.forward`` / ``worker.backward`` under
    ``train.broadcast``, on the worker's pid, and counts
    ``train_worker_steps{worker=k}`` once per step."""
    tracer = obs.Tracer()
    previous = obs.set_tracer(tracer)
    try:
        trainer = ShardedTrainer(_model(kg), workload, _config(),
                                 num_workers=2)
        trainer._ensure_pool()
        pool = trainer._pool
        pids = pool.pids()
        with obs.enabled():
            trainer.train()
    finally:
        obs.set_tracer(previous)
    spans = tracer.finished()
    by_id = {s.span_id: s for s in spans}
    steps = sum(s.name == "train.broadcast" for s in spans)
    handles = [s for s in spans if s.name == "worker.handle"]
    assert steps == 2 and len(handles) == 2 * steps
    assert {s.pid for s in handles} == set(pids)
    assert {by_id[s.parent_id].name for s in handles} == {"train.broadcast"}
    for name in ("worker.forward", "worker.backward"):
        phases = [s for s in spans if s.name == name]
        assert len(phases) == 2 * steps
        for span in phases:
            parent = by_id[span.parent_id]
            assert (parent.name, parent.pid) == ("worker.handle", span.pid)
            assert parent.start <= span.start <= span.end <= parent.end
    assert {s.attrs["rows"] for s in spans
            if s.name == "worker.forward"} == {4}
    counters = pool.metrics.snapshot().counters
    assert [counters[f"train_worker_steps{{worker={k}}}"]
            for k in range(2)] == [steps, steps]
