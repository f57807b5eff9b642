"""Lowering computation graphs to plans, with CSE and template caching.

Three layers, cheapest first on the steady-state path:

1. **Template cache** — lowering is structural, so its result is reused
   across every query that shares a :func:`repro.serve.canonical.batch_key`
   (the canonical structure signature).  A :class:`PlanTemplate` is a
   plan over *slot* indexes instead of concrete entity/relation ids; a
   cache hit skips the DNF rewrite and the tree walk entirely and only
   pays the slot-substitution loop.

2. **Grounding** — a template instantiates against one query's anchor
   and relation ids (read off in canonical pre-order — the order slots
   were assigned — by the :func:`~repro.serve.canonical.walk` that
   canonicalised it).

3. **Cross-query CSE** — grounded ops are hash-consed into the batch's
   shared DAG: two queries that reach the same grounded sub-expression
   (the thousands of ``2i``/``3p`` queries sharing ``1p`` prefixes)
   share one op, so the executor computes it once.  Correctness rests on
   canonicalisation: structurally equal canonical sub-trees serialize
   identically, and by the PR 1 normal form, equal serialization implies
   equal answers (DESIGN.md §12).  The builder records each new op's
   fused stage as it appends it: plans leave with their schedule.

:class:`PlanCompiler` is the stateful front door the serving runtime
holds: it owns the template cache and the ``plan_cache_hits`` /
``plan_cache_misses`` / ``plan_cse_ops_saved`` counters.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from ..obs.metrics import MetricsRegistry
from ..obs.trace import get_tracer
from ..queries.computation_graph import (Difference, Entity, Intersection,
                                         Negation, Node, Projection, Union,
                                         rename, to_dnf)
from ..serve.cache import LruCache
from ..serve.canonical import Walk, walk
from .ir import (AnchorOp, DifferenceOp, IntersectOp, NegateOp, Plan, PlanOp,
                 ProjectOp, RankOp, UnionOp, group_stages, op_inputs,
                 op_kind)

__all__ = ["PlanTemplate", "PlanCompiler", "lower", "lower_template",
           "instantiate"]


#: the op of a kind tag, from its entity/relation id and input value ids
_MAKE = {
    "anchor": lambda ident, inputs: AnchorOp(ident),
    "project": lambda ident, inputs: ProjectOp(ident, inputs[0]),
    "negate": lambda ident, inputs: NegateOp(inputs[0]),
    "intersect": lambda ident, inputs: IntersectOp(inputs),
    "union": lambda ident, inputs: UnionOp(inputs),
    "difference": lambda ident, inputs: DifferenceOp(inputs),
}


class _Builder:
    """Hash-consing op emitter: one shared SSA list per micro-batch.

    An op is emitted as a plain-tuple CSE key ``(kind, entity or
    relation id or None, input value ids)`` plus its depth: the op object
    is built only when new, and its ``(depth, kind, arity)`` stage is
    recorded as it is appended, so the plan leaves with its stages.
    """

    def __init__(self):
        self.ops: list[PlanOp] = []
        self.roots: list[int] = []
        self.ops_total = 0
        self._index: dict[tuple, int] = {}
        self._stages: dict[tuple[int, str, int], list[int]] = {}

    def emit(self, key: tuple, depth: int) -> int:
        """Add one op, deduplicating structurally identical ones (CSE)."""
        self.ops_total += 1
        found = self._index.get(key)
        if found is not None:
            return found
        value = len(self.ops)
        self._index[key] = value
        kind, ident, inputs = key
        self.ops.append(_MAKE[kind](ident, inputs))
        self._stages.setdefault((depth, kind, len(inputs)), []).append(value)
        return value

    def emit_root(self, branches: tuple[int, ...]) -> int:
        """Add a query root; roots are never CSE'd (one answer per query)."""
        self.ops_total += 1
        value = len(self.ops)
        self.ops.append(RankOp(branches))
        self.roots.append(value)
        return value

    def plan(self) -> Plan:
        return Plan(self.ops, self.roots, ops_total=self.ops_total,
                    stages=group_stages(self._stages))


_CONNECTIVES = {Intersection: "intersect", Union: "union",
                Difference: "difference"}


def _lower_tree(node: Node, builder: _Builder) -> tuple[int, int]:
    """Lower one union-free (or non-DNF) tree: its (value id, depth)."""
    if isinstance(node, Entity):
        return builder.emit(("anchor", node.entity, ()), 0), 0
    if isinstance(node, (Projection, Negation)):
        value, depth = _lower_tree(node.operand, builder)
        key = ("project", node.relation, (value,)) \
            if isinstance(node, Projection) else ("negate", None, (value,))
        return builder.emit(key, depth + 1), depth + 1
    kind = _CONNECTIVES.get(type(node))
    if kind is None:
        raise TypeError(f"unknown node type: {type(node).__name__}")
    lowered = [_lower_tree(op, builder) for op in node.operands]
    depth = 1 + max(depth for _, depth in lowered)
    key = (kind, None, tuple(value for value, _ in lowered))
    return builder.emit(key, depth), depth


def _lower_query(node: Node, builder: _Builder, dnf: bool) -> int:
    """Lower one canonical query to its RankOp root."""
    if dnf:
        branches = tuple(_lower_tree(branch, builder)[0]
                         for branch in to_dnf(node))
    else:
        branches = (_lower_tree(node, builder)[0],)
    return builder.emit_root(branches)


def lower(queries, dnf: bool = True, canonical: bool = False) -> Plan:
    """Compile a list of query trees into one shared plan.

    ``dnf=True`` (the serving mode) rewrites unions away so the model
    backend can execute every op; ``dnf=False`` keeps :class:`UnionOp`
    nodes (the symbolic backend handles them, and tests use the form to
    prove the rewrite preserves semantics).  ``canonical=True`` skips
    re-canonicalisation for callers that already hold canonical trees.
    """
    builder = _Builder()
    for query in queries:
        _lower_query(query if canonical else walk(query).canonical,
                     builder, dnf)
    return builder.plan()


# ----------------------------------------------------------------------
# structure-keyed templates
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class PlanTemplate:
    """A lowered plan whose ids are slot indexes, reusable across queries.

    ``steps`` are ``(kind, slot, inputs, depth)``: an anchor or relation
    *slot* (pre-order occurrence index in the canonical tree), local input
    ids, and the depth its grounded op keeps.  Queries sharing a canonical
    structure signature have isomorphic canonical trees, so their walks'
    pre-order ids line up with the slots one-to-one.
    """

    steps: tuple[tuple[str, int | None, tuple[int, ...], int], ...]
    root: int
    #: ops before intra-template CSE (for honest ops_total accounting)
    ops_total: int
    num_anchor_slots: int
    num_relation_slots: int


def lower_template(canonical_node: Node, dnf: bool = True) -> PlanTemplate:
    """Lower the anonymous shape of one canonical query into a template."""
    # ``rename`` visits ids in pre-order: each gets its occurrence slot
    anchor_slots, relation_slots = itertools.count(), itertools.count()
    slot_tree = rename(canonical_node, lambda _: next(anchor_slots),
                       lambda _: next(relation_slots))
    builder = _Builder()
    root = _lower_query(slot_tree, builder, dnf)
    steps = []
    for op, depth in zip(builder.ops, builder.plan().depths()):
        slot = op.entity if isinstance(op, AnchorOp) else \
            op.relation if isinstance(op, ProjectOp) else None
        steps.append((op_kind(op), slot, op_inputs(op), depth))
    return PlanTemplate(steps=tuple(steps), root=root,
                        ops_total=builder.ops_total,
                        num_anchor_slots=next(anchor_slots),
                        num_relation_slots=next(relation_slots))


def instantiate(template: PlanTemplate, entity_ids, relation_ids,
                builder: _Builder) -> int:
    """Ground a template and merge it into the batch builder (CSE)."""
    if len(entity_ids) != template.num_anchor_slots or \
            len(relation_ids) != template.num_relation_slots:
        raise ValueError(
            f"template expects {template.num_anchor_slots} anchors / "
            f"{template.num_relation_slots} relations; got "
            f"{len(entity_ids)}/{len(relation_ids)}")
    emit = builder.emit
    remap: list[int] = []
    for kind, slot, inputs, depth in template.steps:
        if kind == "anchor":
            remap.append(emit((kind, entity_ids[slot], ()), depth))
        elif kind == "project":
            remap.append(emit((kind, relation_ids[slot],
                               (remap[inputs[0]],)), depth))
        elif kind == "rank":
            remap.append(builder.emit_root(
                tuple([remap[v] for v in inputs])))
        else:
            remap.append(emit((kind, None, tuple([remap[v] for v in inputs])),
                              depth))
    # honest accounting: the template's pre-CSE node count, not the
    # post-CSE op count, is what an interpretive walk would have paid
    builder.ops_total += template.ops_total - len(template.steps)
    return remap[template.root]


@dataclass
class CompileResult:
    """A compiled batch plus the compile-time bookkeeping."""

    plan: Plan
    #: per-query canonical structure keys (``batch_key``), input order
    structure_keys: list[str] = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0


class PlanCompiler:
    """Batch compiler with a structure-keyed compiled-plan cache.

    Thread-safe: the template cache is a :class:`repro.serve.cache.LruCache`
    and a racy double-lowering of one structure is harmless (both sides
    produce the identical template; last write wins).
    """

    def __init__(self, cache_size: int = 256,
                 metrics: MetricsRegistry | None = None,
                 tracer=None, dnf: bool = True):
        self.cache = LruCache(cache_size)
        self.metrics = metrics
        self.tracer = tracer
        self.dnf = dnf

    def compile(self, queries) -> CompileResult:
        """Compile a micro-batch into one shared, CSE'd plan, walking
        each query once (:func:`repro.serve.canonical.walk`)."""
        return self.compile_walks([walk(query) for query in queries])

    def compile_walks(self, walks: list[Walk]) -> CompileResult:
        """:meth:`compile` for queries walked already — the runtime walks
        each one at admission and hands the walks in."""
        tracer = self.tracer if self.tracer is not None else get_tracer()
        with tracer.span("plan.compile", queries=len(walks)):
            builder = _Builder()
            hits = 0
            for walked in walks:
                template = self.cache.get(walked.structure)
                if template is None:
                    template = lower_template(walked.canonical, self.dnf)
                    self.cache.put(walked.structure, template)
                else:
                    hits += 1
                instantiate(template, walked.anchors, walked.relations,
                            builder)
            result = CompileResult(
                builder.plan(), [walked.structure for walked in walks],
                cache_hits=hits, cache_misses=len(walks) - hits)
        if self.metrics is not None:
            self.metrics.counter("plan_cache_hits").inc(result.cache_hits)
            self.metrics.counter("plan_cache_misses").inc(
                result.cache_misses)
            self.metrics.counter("plan_cse_ops_saved").inc(
                result.plan.ops_saved)
            self.metrics.counter("plan_ops_total").inc(
                result.plan.ops_total)
            self.metrics.counter("plan_ops_executed").inc(
                len(result.plan.ops))
        return result
