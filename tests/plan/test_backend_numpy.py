"""The serving backend is numpy, and says the same thing as training.

``HalkPlanBackend`` re-states ``HalkModel._embed`` and the four
operators on plain arrays.  These tests pin the copy to the original at
the embedding itself (centres and arclengths, not just the distances
``test_equivalence`` compares), and pin *that it is a copy*: no autograd
wrapper on the way, and no backend for a model whose operators are not
the ones it re-states.
"""

import numpy as np
import pytest

from repro.baselines.ablations import ABLATION_VARIANTS
from repro.config import ModelConfig
from repro.core.model import HalkServedEmbedding
from repro.nn import Tensor
from repro.plan import execute_plan, lower
from repro.serve import ServeRuntime
from repro.serve.canonical import canonicalize

from .conftest import sample_queries
from .test_equivalence import ALL_STRUCTURES

pytestmark = pytest.mark.plan


def test_rows_equal_embed_batch_per_structure(model, sampler):
    backend = model.plan_backend()
    for name in ALL_STRUCTURES:
        batch = [canonicalize(q)
                 for q in sample_queries(sampler, [name], per=3)]
        if len(batch) < 2:
            continue
        want = model.embed_batch(batch)
        (group,) = execute_plan(lower(batch), backend)
        got = group.embedding
        assert isinstance(got, HalkServedEmbedding)
        assert group.positions == tuple(range(len(batch)))
        assert np.array_equal(got.signature, want.signature)
        assert len(got.arcs) == len(want.branches)
        # DNF branch order is a property of the canonical tree, so the
        # two walks agree on it
        for (center, length), arc in zip(got.arcs, want.branches):
            assert type(center) is type(length) is np.ndarray
            assert np.array_equal(center, arc.center.data), name
            assert np.array_equal(length, arc.length.data), name


def test_plan_execution_builds_no_tensor(model, sampler, monkeypatch):
    built = []
    init = Tensor.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    batch = sample_queries(sampler, ALL_STRUCTURES, per=2)
    plan = lower(batch)
    backend = model.plan_backend()
    monkeypatch.setattr(Tensor, "__init__", counting)
    groups = execute_plan(plan, backend)
    assert sum(len(g.positions) for g in groups) == len(batch)
    assert not built
    # the oracle's door into a served embedding does build them
    groups[0].embedding.branches
    assert built


def test_backend_reads_live_weights(kg, sampler):
    """A hot reload writes ``Parameter.data`` in place; the backend
    holds no copy, so the next plan sees the new weights."""
    from repro.core import HalkModel
    config = ModelConfig(embedding_dim=12, hidden_dim=24, seed=3)
    live, donor = HalkModel(kg, config), \
        HalkModel(kg, ModelConfig(embedding_dim=12, hidden_dim=24, seed=4))
    backend = live.plan_backend()
    batch = [canonicalize(q) for q in sample_queries(sampler, ["2i"], per=2)]
    before = execute_plan(lower(batch), backend)[0].embedding.arcs[0][0]
    live.load_state_dict(donor.state_dict())
    after = execute_plan(lower(batch), backend)[0].embedding.arcs[0][0]
    assert not np.array_equal(before, after)
    assert np.array_equal(after,
                          live.embed_batch(batch).branches[0].center.data)


@pytest.mark.parametrize("variant", sorted(ABLATION_VARIANTS))
def test_ablations_have_no_backend_and_are_not_served(kg, variant):
    """The backend re-states the paper's operators; a variant that swaps
    one would be served with the wrong arithmetic, so it is refused like
    any model without a backend."""
    model = ABLATION_VARIANTS[variant](
        kg, ModelConfig(embedding_dim=12, hidden_dim=24, seed=3))
    assert model.plan_backend() is None
    with pytest.raises(TypeError, match="plan_backend"):
        ServeRuntime(model, kg=kg)
