"""Plan-op cost accounting in the fused-stage executor (ISSUE 10).

Every fused stage must land wall seconds / rows / bytes into the
labelled ``plan_stage_*`` metric families and, when the caller passes a
``cost`` dict, accumulate per-kind milliseconds there — the hook the
serve runtime uses to stamp ``plan_stage_ms`` onto flight records.
"""

import pytest

from repro.obs.metrics import MetricsRegistry, parse_metric_key
from repro.plan.compiler import lower
from repro.plan.executor import execute_plan, schedule

from .conftest import sample_queries

pytestmark = [pytest.mark.plan, pytest.mark.prof]

MIX = ["1p", "2p", "2i", "ip"]


@pytest.fixture(scope="module")
def batch(sampler):
    queries = sample_queries(sampler, MIX, per=2)
    assert queries, "sampler failed to ground any structure"
    return queries


def test_stage_metrics_cover_every_fused_stage(model, sampler, batch):
    plan = lower(batch)
    registry = MetricsRegistry()
    groups = execute_plan(plan, model.plan_backend(), registry=registry)
    assert groups  # sanity: the plan actually ran
    snapshot = registry.snapshot()
    stage_keys = [key for key in snapshot.gauges
                  if key.startswith("plan_stage_seconds")]
    # one labelled gauge per scheduled (kind, depth, fused) group, plus
    # the finalize stage
    labels = {(parse_metric_key(key)[1]["kind"],
               parse_metric_key(key)[1]["depth"],
               parse_metric_key(key)[1]["fused"]) for key in stage_keys}
    expected = {(g.kind, str(g.depth), "1" if len(g.ops) > 1 else "0")
                for g in schedule(plan)} | {("finalize", "0", "0")}
    assert labels == expected
    for key in stage_keys:
        assert snapshot.gauges[key] >= 0.0
    # rows counters conserve the op count per kind
    rows_by_kind = {}
    for key, value in snapshot.counters.items():
        if key.startswith("plan_stage_rows"):
            rows_by_kind[parse_metric_key(key)[1]["kind"]] = value
    scheduled_by_kind = {}
    for group in schedule(plan):
        scheduled_by_kind[group.kind] = \
            scheduled_by_kind.get(group.kind, 0) + len(group.ops)
    assert rows_by_kind == scheduled_by_kind
    # bytes counters are integers (the registry renders counters as
    # ints; floats here would corrupt the delta piggyback)
    for key, value in snapshot.counters.items():
        if key.startswith("plan_stage_bytes"):
            assert isinstance(value, int) and value > 0


def test_a_recurring_stage_shape_renders_no_metric_key(model, batch,
                                                        monkeypatch):
    """Every batch is a new plan, but its ``(kind, depth, fused)``
    shapes recur: from the second execution on, the accounting looks no
    labelled metric up (it was three key renders per stage) — and still
    lands in the same series."""
    from repro.obs import metrics

    registry = MetricsRegistry()
    execute_plan(lower(batch), model.plan_backend(), registry=registry)
    first = registry.snapshot()
    rendered = []
    render = metrics.metric_key
    monkeypatch.setattr(
        metrics, "metric_key",
        lambda name, labels=None: (rendered.append(name),
                                   render(name, labels))[1])
    execute_plan(lower(batch), model.plan_backend(), registry=registry)
    monkeypatch.undo()
    assert rendered == []
    second = registry.snapshot()
    assert set(second.counters) == set(first.counters)
    assert set(second.gauges) == set(first.gauges)
    assert all(second.counters[key] == 2 * value
               for key, value in first.counters.items())


def test_cost_dict_accumulates_per_kind_milliseconds(model, batch):
    plan = lower(batch)
    cost = {}
    execute_plan(plan, model.plan_backend(),
                 registry=MetricsRegistry(), cost=cost)
    kinds = {g.kind for g in schedule(plan)}
    assert set(cost) == kinds | {"finalize"}
    assert all(value >= 0.0 for value in cost.values())
    # a second batch through the same dict keeps accumulating
    before = dict(cost)
    execute_plan(plan, model.plan_backend(),
                 registry=MetricsRegistry(), cost=cost)
    assert all(cost[kind] >= before[kind] for kind in before)


def test_accounting_does_not_change_results(model, batch):
    """Cost-accounted execution returns the same embeddings as before
    the accounting existed (same backend, fresh registry)."""
    plan = lower(batch)
    plain = execute_plan(plan, model.plan_backend(),
                         registry=MetricsRegistry())
    cost = {}
    accounted = execute_plan(plan, model.plan_backend(),
                             registry=MetricsRegistry(), cost=cost)
    assert [g.positions for g in plain] == \
        [g.positions for g in accounted]
    import numpy as np
    for a, b in zip(plain, accounted):
        assert len(a.embedding.branches) == len(b.embedding.branches)
        np.testing.assert_array_equal(a.embedding.signature,
                                      b.embedding.signature)
        for arc_a, arc_b in zip(a.embedding.branches,
                                b.embedding.branches):
            np.testing.assert_array_equal(arc_a.center.data,
                                          arc_b.center.data)
            np.testing.assert_array_equal(arc_a.length.data,
                                          arc_b.length.data)
