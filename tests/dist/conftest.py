"""Shared fixtures for the sharded-execution tests.

Worker pools are expensive on slow machines (spawn = fresh interpreter +
numpy import per worker), so the model/ranker fixtures are module-scoped
and the tests that need live workers are kept few and small.
"""

import os

import numpy as np
import pytest

from repro.config import ModelConfig
from repro.core import HalkModel
from repro.dist import dist_available
from repro.kg import KnowledgeGraph
from repro.queries import Entity, Projection

requires_shm = pytest.mark.skipif(
    not dist_available(),
    reason="multiprocessing.shared_memory unavailable on this platform")


def shm_segments() -> set[str]:
    """Names under ``/dev/shm`` that a pool or plan could have left."""
    # sem.* back multiprocessing's own locks; its resource tracker
    # unlinks them at interpreter exit, not when a pool closes
    return {name for name in os.listdir("/dev/shm")
            if not name.startswith("sem.")}


@pytest.fixture(scope="module")
def kg() -> KnowledgeGraph:
    rng = np.random.default_rng(11)
    n = 101
    triples = [(int(rng.integers(n)), int(rng.integers(3)),
                int(rng.integers(n))) for _ in range(250)]
    return KnowledgeGraph(n, 3, triples)


@pytest.fixture(scope="module")
def model(kg) -> HalkModel:
    return HalkModel(kg, ModelConfig(embedding_dim=6, hidden_dim=12,
                                     seed=3))


@pytest.fixture(scope="module")
def queries(kg):
    return [Projection(rel, Entity(head))
            for head, rel, _ in list(kg)[:6]]
