"""Plan execution: stacked model evaluation and the symbolic oracle.

Two executors share the same compiled :class:`repro.plan.ir.Plan`:

* :func:`execute_plan` — the serving path.  It schedules the DAG as
  *fused stages*: every op of one kind (and operand arity) at one depth
  becomes a single stacked backend call, so a batch of 64 ``3p`` queries
  pays three projection kernels instead of 192, and CSE-shared ops are
  computed once and read from the value table by every consumer
  (per-op memoisation is the value table itself — SSA ids are computed
  exactly once).
* :func:`execute_symbolic` — the exact set-semantics oracle, mirroring
  :func:`repro.queries.executor.execute` per op.  It exists to prove the
  lowering correct: plan execution over sets must equal the interpretive
  executor on every structure (tests/plan/).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..core.arc import ArcRows
from ..kg.graph import KnowledgeGraph
from ..obs.metrics import get_registry
from ..obs.trace import get_tracer
from .ir import (AnchorOp, DifferenceOp, IntersectOp, NegateOp, Plan,
                 ProjectOp, RankOp, StageGroup, UnionOp, op_inputs)

__all__ = ["StageGroup", "RankGroup", "schedule", "execute_plan",
           "execute_symbolic", "plan_answer_batch"]


def schedule(plan: Plan) -> list[StageGroup]:
    """Non-rank ops grouped into fused stages, shallowest first.

    Grouping by ``(depth, kind, arity)`` is the fusion rule: ops in one
    group have no data dependencies on each other (same depth), take the
    same kernel (same kind/arity), and therefore run as one stacked call.
    Deterministic: groups sort by key, ops within a group keep SSA order.
    The compiler records them as it emits the ops (:class:`Plan`).
    """
    return plan.stages


def _gather(values: list, ids) -> ArcRows:
    """Stack the rows behind value ids ``ids`` into one batch.

    Bulk counterpart of per-row slicing: one fancy-index per source
    block and field, so a stage's operand assembly costs O(blocks)
    kernels instead of O(rows) slices.  Gathers copy bits verbatim,
    preserving the backend's bitwise guarantees.  A value lives where
    its stage left it: a ``(block, row)`` pair — one row of that stage's
    result block.
    """
    slots = [values[i] for i in ids]
    first = slots[0][0]
    if all(block is first for block, _ in slots):
        return first.take([row for _, row in slots])
    by_block: dict[int, tuple[ArcRows, list[int], list[int]]] = {}
    for position, (block, row) in enumerate(slots):
        entry = by_block.get(id(block))
        if entry is None:
            entry = (block, [], [])
            by_block[id(block)] = entry
        entry[1].append(position)
        entry[2].append(row)
    n = len(slots)
    center = np.empty((n,) + first.center.shape[1:],
                      dtype=first.center.dtype)
    length = np.empty((n,) + first.length.shape[1:],
                      dtype=first.length.dtype)
    signature = np.empty((n,) + first.signature.shape[1:],
                         dtype=first.signature.dtype)
    for block, positions, rows in by_block.values():
        center[positions] = block.center[rows]
        length[positions] = block.length[rows]
        signature[positions] = block.signature[rows]
    return ArcRows(center, length, first.radius, signature)


@dataclass
class RankGroup:
    """Queries sharing one branch count, embedded as one stacked batch.

    ``positions`` index :attr:`Plan.roots` (i.e. the batch's query
    order); row ``i`` of ``embedding`` answers query
    ``positions[i]``.
    """

    positions: tuple[int, ...]
    embedding: object


def _block_nbytes(block: ArcRows) -> int:
    """Bytes materialised by one stage result block."""
    return int(block.center.nbytes + block.length.nbytes
               + block.signature.nbytes)


def _stage_meters(registry, kind: str, depth: int, fused: bool):
    """The ``plan_stage_seconds`` gauge and the ``plan_stage_rows`` /
    ``plan_stage_bytes`` counters of one stage shape, looked up once per
    registry (every batch builds a new plan, but the shapes recur)."""
    return registry.handles(
        ("plan_stage", kind, depth, fused),
        lambda r: (r.gauge("plan_stage_seconds", kind=kind,
                           depth=str(depth), fused="1" if fused else "0"),
                   r.counter("plan_stage_rows", kind=kind),
                   r.counter("plan_stage_bytes", kind=kind)))


def execute_plan(plan: Plan, backend, tracer=None, registry=None,
                 cost=None) -> list[RankGroup]:
    """Evaluate a DNF plan with stacked kernels; one RankGroup per shape.

    The returned embeddings are what the backend's ``finalize`` makes
    of the stacked branch rows; they feed the ranking path (a
    ``LocalRanker`` or ``ShardedRanker``) unchanged.

    Cost accounting (the plan-op half of ``repro.obs.prof``): every fused
    stage records wall seconds into the ``plan_stage_seconds`` gauge
    family labelled ``{kind, depth, fused}`` plus ``plan_stage_rows`` /
    ``plan_stage_bytes`` counters on ``registry`` (process default when
    omitted).  ``cost``, when given, is a dict accumulating per-kind
    milliseconds for this one call — the runtime stamps it onto the
    batch's flight records.
    """
    tracer = tracer if tracer is not None else get_tracer()
    registry = registry if registry is not None else get_registry()
    values: list[object] = [None] * len(plan.ops)
    with tracer.span("plan.execute", ops=len(plan.ops),
                     queries=plan.num_queries):
        for group in plan.stages:
            with tracer.span("plan.stage", depth=group.depth,
                             kind=group.kind, ops=len(group.ops)):
                started = time.perf_counter()
                result = _run_stage(plan, group, values, backend)
                elapsed = time.perf_counter() - started
            seconds, rows, nbytes = _stage_meters(
                registry, group.kind, group.depth, len(group.ops) > 1)
            seconds.add(elapsed)
            rows.inc(len(group.ops))
            nbytes.inc(_block_nbytes(result))
            if cost is not None:
                cost[group.kind] = cost.get(group.kind, 0.0) \
                    + 1000.0 * elapsed
        with tracer.span("plan.finalize"):
            started = time.perf_counter()
            by_branches: dict[int, list[int]] = {}
            for position, root in enumerate(plan.roots):
                count = len(plan.ops[root].branches)
                by_branches.setdefault(count, []).append(position)
            out: list[RankGroup] = []
            for count, positions in sorted(by_branches.items()):
                branches = []
                for branch_index in range(count):
                    branches.append(_gather(values, [
                        plan.ops[plan.roots[p]].branches[branch_index]
                        for p in positions]))
                out.append(RankGroup(tuple(positions),
                                     backend.finalize(branches)))
            elapsed = time.perf_counter() - started
        registry.handles("plan_finalize", lambda r: r.gauge(
            "plan_stage_seconds", kind="finalize", depth="0",
            fused="0")).add(elapsed)
        if cost is not None:
            cost["finalize"] = cost.get("finalize", 0.0) + 1000.0 * elapsed
    return out


def _run_stage(plan: Plan, group: StageGroup, values, backend) -> ArcRows:
    """Execute one fused stage and scatter per-op rows into the table."""
    ops = [plan.ops[i] for i in group.ops]
    if group.kind == "anchor":
        result = backend.anchor([op.entity for op in ops])
    elif group.kind == "project":
        result = backend.project(
            [op.relation for op in ops],
            _gather(values, [op.operand for op in ops]))
    elif group.kind == "negate":
        result = backend.negate(
            _gather(values, [op.operand for op in ops]))
    elif group.kind in ("intersect", "difference"):
        columns = [_gather(values, [op.operands[position] for op in ops])
                   for position in range(group.arity)]
        primitive = backend.intersect if group.kind == "intersect" \
            else backend.difference
        result = primitive(columns)
    elif group.kind == "union":
        raise ValueError(
            "model backends require DNF plans; lower with dnf=True")
    else:  # pragma: no cover - exhaustive over the IR
        raise TypeError(f"unknown op kind: {group.kind}")
    for row, index in enumerate(group.ops):
        values[index] = (result, row)
    return result


def execute_symbolic(plan: Plan, kg: KnowledgeGraph) -> list[set[int]]:
    """Exact answer sets of every query in the plan, in root order.

    Mirrors :func:`repro.queries.executor.execute` op for op (the
    universal set for negation is the full vocabulary; difference is the
    first operand minus the rest).  Handles :class:`UnionOp`, so non-DNF
    plans are executable here — the equivalence tests use that to prove
    the DNF rewrite semantics-preserving at the plan level.
    """
    values: list[set[int]] = []
    for op in plan.ops:
        if isinstance(op, AnchorOp):
            if not 0 <= op.entity < kg.num_entities:
                raise ValueError(f"anchor entity {op.entity} not in graph")
            result = {op.entity}
        elif isinstance(op, ProjectOp):
            result = kg.project(values[op.operand], op.relation)
        elif isinstance(op, IntersectOp):
            result = set(values[op.operands[0]])
            for value in op.operands[1:]:
                result &= values[value]
        elif isinstance(op, (UnionOp, RankOp)):
            result = set()
            for value in op_inputs(op):
                result |= values[value]
        elif isinstance(op, DifferenceOp):
            result = set(values[op.operands[0]])
            for value in op.operands[1:]:
                result -= values[value]
        elif isinstance(op, NegateOp):
            result = set(range(kg.num_entities)) - values[op.operand]
        else:  # pragma: no cover - exhaustive over the IR
            raise TypeError(f"unknown op type: {type(op).__name__}")
        values.append(result)
    return [set(values[root]) for root in plan.roots]


def plan_answer_batch(queries, model, top_k: int = 10, compiler=None,
                      ranker=None) -> list[list[int]]:
    """Compiled counterpart of :meth:`QueryModel.answer_batch`.

    Compile → execute → rank, returning top-k ids in input order.  With
    ``compiler`` the structure-template cache is consulted; without, the
    batch is lowered directly.  ``ranker`` may be a
    :class:`repro.dist.ShardedRanker`, exactly as in ``answer_batch``;
    without one the same scorer ranks in-process
    (:class:`repro.dist.LocalRanker`, built per call).
    """
    from .compiler import lower

    backend = model.plan_backend()
    if backend is None:
        raise ValueError(f"model {model.name!r} has no plan backend")
    if compiler is not None:
        plan = compiler.compile(queries).plan
    else:
        plan = lower(queries)
    if ranker is None:
        from ..dist.ranker import LocalRanker
        ranker = LocalRanker(model)
    tracer = get_tracer()
    out: list[list[int]] = [[] for _ in range(plan.num_queries)]
    for group in execute_plan(plan, backend):
        with tracer.span("plan.rank", queries=len(group.positions)):
            top, _ = ranker.topk(group.embedding, top_k)
        for ids, position in zip(top.tolist(), group.positions):
            out[position] = ids
    return out
