"""The serving backend is numpy, and says the same thing as training.

``HalkPlanBackend`` runs the model's own five primitives under the array
namespace (``repro.nn.arrays``) where ``HalkModel._embed`` runs them
under ``repro.nn.functional``.  These tests hold the two at the
embedding itself (centres and arclengths, not just the distances
``test_equivalence`` compares), pin that serving builds no autograd
wrapper on the way, and pin what one definition buys: the operators a
model *holds* are the ones served — an MLP's own activation, and the
Table V ablations' swapped operators.
"""

import numpy as np
import pytest

from repro.baselines.ablations import ABLATION_VARIANTS
from repro.config import ModelConfig
from repro.core import HalkModel
from repro.core.model import HalkServedEmbedding
from repro.nn import Tensor
from repro.plan import execute_plan, lower
from repro.serve import ServeConfig, ServeRuntime
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


CONFIG = ModelConfig(embedding_dim=12, hidden_dim=24, seed=3)


def _as_if_trained(model):
    """Move every parameter off its initial value: the correction
    branches start at exactly zero, which would hide their networks."""
    rng = np.random.default_rng(5)
    for param in model.parameters():
        param.data += rng.normal(scale=0.05, size=param.data.shape)
    return model


def _assert_served_rows_equal_embed_batch(model, batch):
    want = model.embed_batch(batch)
    (group,) = execute_plan(lower(batch), model.plan_backend())
    assert len(group.embedding.arcs) == len(want.branches)
    for (center, length), arc in zip(group.embedding.arcs, want.branches):
        assert np.array_equal(center, arc.center.data)
        assert np.array_equal(length, arc.length.data)
    return group.embedding.arcs


@pytest.mark.parametrize("activation", ["tanh", "sigmoid"])
def test_served_mlp_uses_the_modules_activation(kg, sampler, activation):
    """One forward loop, so the served MLP applies the nonlinearity the
    module names (the array copy of the operators hard-coded ReLU)."""
    model = _as_if_trained(HalkModel(kg, CONFIG))
    model.projection.center_mlp.activation = activation
    batch = [canonicalize(q) for q in sample_queries(sampler, ["2p"], per=3)]
    assert len(batch) == 3
    _assert_served_rows_equal_embed_batch(model, batch)


#: the structures Table V scores each variant on (its swapped operator)
TABLE_V = {"HaLk-V1": ["2d", "3d", "dp"],
           "HaLk-V2": ["2in", "3in", "pin"],
           "HaLk-V3": ["1p", "2p", "3p"]}


@pytest.mark.parametrize("variant", sorted(ABLATION_VARIANTS))
def test_ablations_are_served_with_their_own_operators(kg, sampler, variant):
    """A variant is a HaLk model holding one different operator module;
    the backend runs the model's primitives, so what is served is the
    variant's arithmetic — bit for bit its ``embed_batch``, and not the
    stock model's."""
    model = _as_if_trained(ABLATION_VARIANTS[variant](kg, CONFIG))
    stock = _as_if_trained(HalkModel(kg, CONFIG))
    structures = TABLE_V[variant] + ["2i"]
    workload = []
    for name in structures:
        batch = [canonicalize(q)
                 for q in sample_queries(sampler, [name], per=3)]
        assert len(batch) == 3, f"could not ground structure {name}"
        served = _assert_served_rows_equal_embed_batch(model, batch)
        if name in TABLE_V[variant]:
            (group,) = execute_plan(lower(batch), stock.plan_backend())
            assert any(not np.array_equal(center, other)
                       for (center, _), (other, _)
                       in zip(served, group.embedding.arcs)), name
        workload += batch

    want = model.answer_batch(workload, top_k=5)
    caches_off = dict(answer_cache_size=1, answer_ttl=1e-9,
                      embedding_cache_size=1)
    for caches in ({}, caches_off):
        config = ServeConfig(max_batch_size=64, num_workers=1, **caches)
        with ServeRuntime(model, kg=kg, config=config) as runtime:
            for _ in range(2):  # the second pass meets warm caches
                futures = [runtime.submit(q, top_k=5) for q in workload]
                got = [f.result(timeout=30) for f in futures]
                assert [list(r.entity_ids) for r in got] == want
