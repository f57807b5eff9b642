"""Hypothesis properties of the one query walk and of emit-time stages.

:func:`repro.serve.canonical.walk` replaced five separate walks (the
normal form, its two keys and the pre-order anchor and relation ids),
and the plan builder now records the fused stages that
:func:`repro.plan.schedule` used to group after the fact.  Served bits
depend on both — operand order feeds the intersection attention sums,
stage order feeds the stacked kernels — so each is checked here against
a reference copy of the definition it replaced.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.plan import PlanCompiler, lower, op_inputs, op_kind
from repro.plan.ir import RankOp
from repro.queries import (EVAL_ONLY_STRUCTURES, STRUCTURES,
                           TRAIN_STRUCTURES, Difference, Entity, Intersection,
                           Negation, Node, Projection, Union, rename)
from repro.serve.canonical import walk

from .test_executor_properties import queries

pytestmark = pytest.mark.plan


# ----------------------------------------------------------------------
# reference copies of the five walks the one walk replaced
# ----------------------------------------------------------------------
def ref_serialize(node: Node) -> str:
    if isinstance(node, Entity):
        return f"E{node.entity}"
    if isinstance(node, Projection):
        return f"P{node.relation}({ref_serialize(node.operand)})"
    if isinstance(node, Negation):
        return f"N({ref_serialize(node.operand)})"
    tag = {Intersection: "I", Union: "U", Difference: "D"}[type(node)]
    return f"{tag}({','.join(ref_serialize(op) for op in node.operands)})"


def ref_structure_signature(node: Node) -> str:
    if isinstance(node, Entity):
        return "E"
    if isinstance(node, Projection):
        return f"P({ref_structure_signature(node.operand)})"
    if isinstance(node, Negation):
        return f"N({ref_structure_signature(node.operand)})"
    tag = {Intersection: "I", Union: "U", Difference: "D"}[type(node)]
    inner = ",".join(ref_structure_signature(op) for op in node.operands)
    return f"{tag}({inner})"


def ref_sort_key(node: Node) -> tuple[str, str]:
    return ref_structure_signature(node), ref_serialize(node)


def ref_canonicalize(node: Node) -> Node:
    if isinstance(node, Entity):
        return node
    if isinstance(node, Projection):
        return Projection(node.relation, ref_canonicalize(node.operand))
    if isinstance(node, Negation):
        return Negation(ref_canonicalize(node.operand))
    operands = tuple(ref_canonicalize(op) for op in node.operands)
    if isinstance(node, Difference):
        return Difference((operands[0],)
                          + tuple(sorted(operands[1:], key=ref_sort_key)))
    return type(node)(tuple(sorted(operands, key=ref_sort_key)))


def ref_iter_nodes(node: Node):
    yield node
    if isinstance(node, (Projection, Negation)):
        yield from ref_iter_nodes(node.operand)
    elif isinstance(node, (Intersection, Union, Difference)):
        for operand in node.operands:
            yield from ref_iter_nodes(operand)


def ref_anchors(node: Node) -> list[int]:
    return [n.entity for n in ref_iter_nodes(node) if isinstance(n, Entity)]


def ref_relations(node: Node) -> list[int]:
    return [n.relation for n in ref_iter_nodes(node)
            if isinstance(n, Projection)]


@settings(max_examples=200, deadline=None)
@given(queries(depth=3))
def test_the_walk_yields_what_the_five_walks_did(query):
    canonical = ref_canonicalize(query)
    walked = walk(query)
    assert walked.canonical == canonical
    assert walked.structure == ref_structure_signature(canonical)
    assert walked.key == ref_serialize(canonical)
    assert walked.anchors == ref_anchors(canonical)
    assert walked.relations == ref_relations(canonical)
    # and the normal form is a fixed point of the walk
    assert walk(walked.canonical) == walked


# ----------------------------------------------------------------------
# emit-time stages
# ----------------------------------------------------------------------
def ref_stages(plan) -> list[tuple[int, str, int, tuple[int, ...]]]:
    """The ``(depth, kind, arity)`` grouping, from the ops alone."""
    depths: list[int] = []
    for op in plan.ops:
        depths.append(1 + max((depths[i] for i in op_inputs(op)),
                              default=-1))
    groups: dict[tuple[int, str, int], list[int]] = {}
    for index, op in enumerate(plan.ops):
        if not isinstance(op, RankOp):
            key = (depths[index], op_kind(op), len(op_inputs(op)))
            groups.setdefault(key, []).append(index)
    return [key + (tuple(ops),) for key, ops in sorted(groups.items())]


@st.composite
def grounded(draw) -> Node:
    """One of the 16 structures over a tiny id space, so that a batch
    holds duplicates and shared prefixes."""
    structure = STRUCTURES[draw(st.sampled_from(
        TRAIN_STRUCTURES + EVAL_ONLY_STRUCTURES))]
    entities = [draw(st.integers(0, 3)) for _ in range(structure.num_anchors)]
    rels = [draw(st.integers(0, 2)) for _ in range(structure.num_relations)]
    return rename(structure.template, entity_map=entities.__getitem__,
                  relation_map=rels.__getitem__)


@settings(max_examples=150, deadline=None)
@given(st.lists(grounded(), min_size=1, max_size=24))
def test_compiled_plans_carry_the_scheduled_stages(batch):
    want = lower(batch)
    compiler = PlanCompiler()
    for _ in range(2):  # cold, then warm template cache
        plan = compiler.compile(batch).plan
        assert plan.ops == want.ops
        assert plan.roots == want.roots
        assert plan.ops_total == want.ops_total
        assert [(s.depth, s.kind, s.arity, s.ops) for s in plan.stages] \
            == ref_stages(plan)
    assert [(s.depth, s.kind, s.arity, s.ops) for s in want.stages] \
        == ref_stages(want)
