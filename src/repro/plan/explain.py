"""Human-readable and JSON rendering of compiled plans (``cli explain``).

Follows the ``queries/printing.py`` conventions: entity/relation ids
render as ``e7``/``r2`` (or graph vocabulary names when a graph is
supplied), and the tree connectors match ``to_tree``.  On top of that,
the plan view annotates what the compiler did: ``[shared ×N]`` marks
CSE'd values read by more than one consumer, and the fused-stage section
shows which ops execute as one stacked kernel call.
"""

from __future__ import annotations

from ..kg.graph import KnowledgeGraph
from .executor import schedule
from .ir import (AnchorOp, DifferenceOp, IntersectOp, NegateOp, Plan,
                 ProjectOp, RankOp, UnionOp, op_inputs, op_kind)

__all__ = ["render_plan", "plan_to_json"]


def _entity_label(entity: int, kg: KnowledgeGraph | None) -> str:
    if kg is not None and 0 <= entity < len(kg.entity_names):
        return kg.entity_names[entity]
    return f"e{entity}"


def _relation_label(relation: int, kg: KnowledgeGraph | None) -> str:
    if kg is not None and 0 <= relation < len(kg.relation_names):
        return kg.relation_names[relation]
    return f"r{relation}"


def _op_text(op, kg: KnowledgeGraph | None) -> str:
    if isinstance(op, AnchorOp):
        return f"anchor {_entity_label(op.entity, kg)}"
    if isinstance(op, ProjectOp):
        return f"project [{_relation_label(op.relation, kg)}] %{op.operand}"
    if isinstance(op, NegateOp):
        return f"negate %{op.operand}"
    if isinstance(op, RankOp):
        return "rank " + " | ".join(f"%{v}" for v in op.branches)
    tag = {IntersectOp: "intersect", UnionOp: "union",
           DifferenceOp: "difference"}[type(op)]
    return tag + "(" + ", ".join(f"%{v}" for v in op.operands) + ")"


def render_plan(plan: Plan, structure_keys: list[str] | None = None,
                cache_hits: list[bool] | None = None,
                kg: KnowledgeGraph | None = None) -> str:
    """ASCII rendering of a compiled plan with CSE/fusion annotations."""
    stages = schedule(plan)
    uses = plan.use_counts()
    stage_of = {index: number for number, group in enumerate(stages)
                for index in group.ops}

    lines = [f"plan: {plan.num_queries} "
             f"quer{'y' if plan.num_queries == 1 else 'ies'}, "
             f"{len(plan.ops)} ops ({plan.ops_total} before CSE, "
             f"{plan.ops_saved} saved), {len(stages)} fused stages"]
    if structure_keys:
        lines.append("structure keys:")
        for position, key in enumerate(structure_keys):
            note = ""
            if cache_hits is not None:
                note = "  [plan-cache hit]" if cache_hits[position] \
                    else "  [plan-cache miss]"
            lines.append(f"  q{position}: {key}{note}")
    lines.append("ops:")
    roots = {root: position for position, root in enumerate(plan.roots)}
    width = max(len(_op_text(op, kg)) for op in plan.ops)
    for index, op in enumerate(plan.ops):
        text = _op_text(op, kg)
        notes = []
        if uses[index] > 1:
            notes.append(f"shared ×{uses[index]}")
        if index in roots:
            notes.append(f"-> q{roots[index]}")
        suffix = ("  [" + ", ".join(notes) + "]") if notes else ""
        lines.append(f"  %{index:<3} = {text:<{width}}{suffix}")
    lines.append("fused stages:")
    for number, group in enumerate(stages):
        members = " ".join(f"%{i}" for i in group.ops)
        kernel = "1 stacked kernel call" if len(group.ops) > 1 \
            else "1 kernel call"
        lines.append(f"  stage {number}: depth {group.depth} "
                     f"{group.kind} ×{len(group.ops)} ({kernel})  {members}")
    rank_ops = [i for i, op in enumerate(plan.ops) if isinstance(op, RankOp)]
    if rank_ops:
        lines.append(f"  rank stage: {len(rank_ops)} "
                     f"quer{'y' if len(rank_ops) == 1 else 'ies'} "
                     "(grouped by branch count, one distance pass each)")
    return "\n".join(lines)


def plan_to_json(plan: Plan, structure_keys: list[str] | None = None,
                 cache_hits: list[bool] | None = None) -> dict:
    """Machine-readable plan dump (``cli explain --json``)."""
    stages = schedule(plan)
    uses = plan.use_counts()
    depths = plan.depths()
    stage_of = {index: number for number, group in enumerate(stages)
                for index in group.ops}
    ops = []
    for index, op in enumerate(plan.ops):
        entry: dict = {"id": index, "kind": op_kind(op),
                       "inputs": list(op_inputs(op)), "depth": depths[index],
                       "uses": uses[index], "shared": uses[index] > 1,
                       "stage": stage_of.get(index)}
        if isinstance(op, AnchorOp):
            entry["entity"] = op.entity
        elif isinstance(op, ProjectOp):
            entry["relation"] = op.relation
        ops.append(entry)
    out = {"num_queries": plan.num_queries, "ops": ops,
           "roots": list(plan.roots), "ops_total": plan.ops_total,
           "ops_saved": plan.ops_saved,
           "stages": [{"stage": number, "depth": group.depth,
                       "kind": group.kind, "arity": group.arity,
                       "ops": list(group.ops)}
                      for number, group in enumerate(stages)]}
    if structure_keys is not None:
        out["structure_keys"] = structure_keys
    if cache_hits is not None:
        out["plan_cache_hits"] = cache_hits
    return out
