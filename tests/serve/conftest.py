"""Shared fixtures for the serving-runtime tests."""

import threading

import numpy as np
import pytest

from repro.config import ModelConfig
from repro.core import HalkModel
from repro.kg import KnowledgeGraph


@pytest.fixture(scope="module")
def tiny_kg() -> KnowledgeGraph:
    """A small random-but-deterministic graph (30 entities, 4 relations)."""
    rng = np.random.default_rng(11)
    triples = {(int(rng.integers(30)), int(rng.integers(4)),
                int(rng.integers(30))) for _ in range(180)}
    return KnowledgeGraph(30, 4, sorted(triples))


@pytest.fixture(scope="module")
def model(tiny_kg) -> HalkModel:
    return HalkModel(tiny_kg, ModelConfig(embedding_dim=8, hidden_dim=16,
                                          seed=0))


class _HookedBackend:
    """A plan backend that runs ``hook()`` before each plan's first stage."""

    def __init__(self, backend, hook):
        self._backend = backend
        self._hook = hook

    def __getattr__(self, name):
        return getattr(self._backend, name)

    def anchor(self, entity_ids):
        # every plan has exactly one anchor stage (all anchors sit at
        # depth 0 and fuse), so the hook fires once per embed
        self._hook()
        return self._backend.anchor(entity_ids)


class HookedModel:
    """Fault injection at the plan-backend seam — the one place serving
    calls into a model to embed.  Behaves as ``model`` except that
    ``hook()`` runs (and may raise or sleep) once per compiled-plan
    execution.
    """

    def __init__(self, model, hook):
        self._model = model
        self._hook = hook

    def __getattr__(self, name):
        return getattr(self._model, name)

    def plan_backend(self):
        return _HookedBackend(self._model.plan_backend(), self._hook)


class Gate:
    """A :class:`HookedModel` hook that parks the worker inside its first
    embed until :meth:`open` — how a test makes "every worker is busy"
    last as long as it needs: what is submitted meanwhile queues.

    ``entered`` is set once the worker is parked; after ``open()`` the
    hook passes straight through.
    """

    def __init__(self):
        self.entered = threading.Event()
        self._opened = threading.Event()

    def __call__(self):
        self.entered.set()
        self._opened.wait(30.0)

    def open(self):
        self._opened.set()
