"""Shared fixtures for the sharded-execution tests.

Worker pools cost a process each (a fork of the fork server, which the
first pool in the test process launches and which imports ``repro``
once), so the model/ranker fixtures are module-scoped and the tests that
need live workers are kept few and small.
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


def _stat(pid: int) -> list[str]:
    """Fields of ``/proc/<pid>/stat`` after the command name (``[0]`` is
    the state, ``[1]`` the parent pid); empty once the pid is gone."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii",
                  errors="replace") as handle:
            return handle.read().rsplit(")", 1)[1].split()
    except (OSError, IndexError):
        return []


def parent_pid(pid: int) -> int:
    return int(_stat(pid)[1])


def running(pid: int) -> bool:
    """``pid`` exists and is not a zombie waiting for its parent."""
    fields = _stat(pid)
    return bool(fields) and fields[0] != "Z"


def descendants(pid: int) -> set[int]:
    """Every live process below ``pid``: children, theirs, and so on."""
    parents = {}
    for entry in os.listdir("/proc"):
        fields = _stat(int(entry)) if entry.isdigit() else []
        if fields and fields[0] != "Z":
            parents.setdefault(int(fields[1]), []).append(int(entry))
    found, frontier = set(), [pid]
    while frontier:
        children = parents.get(frontier.pop(), [])
        found.update(children)
        frontier.extend(children)
    return found


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
