"""Lowering computation graphs to plans, with CSE and template caching.

Three layers, cheapest first on the steady-state path:

1. **Template cache** — lowering is structural, so its result is reused
   across every query that shares a :func:`repro.serve.canonical.batch_key`
   (the canonical structure signature).  A :class:`PlanTemplate` is a
   plan over *slot* indexes instead of concrete entity/relation ids; a
   cache hit skips the DNF rewrite and the tree walk entirely and only
   pays the slot-substitution loop.

2. **Grounding** — a template instantiates against one query's anchor
   and relation ids (extracted in canonical pre-order, the same order
   slots were assigned).

3. **Cross-query CSE** — grounded ops are hash-consed into the batch's
   shared DAG: two queries that reach the same grounded sub-expression
   (the thousands of ``2i``/``3p`` queries sharing ``1p`` prefixes)
   share one op, so the executor computes it once.  Correctness rests on
   canonicalisation: structurally equal canonical sub-trees serialize
   identically, and by the PR 1 normal form, equal serialization implies
   equal answers (DESIGN.md §12).

:class:`PlanCompiler` is the stateful front door the serving runtime
holds: it owns the template cache and the ``plan_cache_hits`` /
``plan_cache_misses`` / ``plan_cse_ops_saved`` counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..obs.metrics import MetricsRegistry
from ..obs.trace import get_tracer
from ..queries.computation_graph import (Difference, Entity, Intersection,
                                         Negation, Node, Projection, Union,
                                         anchors, relations, to_dnf)
from ..serve.cache import LruCache
from ..serve.canonical import batch_key, canonicalize
from .ir import (AnchorOp, DifferenceOp, IntersectOp, NegateOp, Plan, PlanOp,
                 ProjectOp, RankOp, UnionOp)

__all__ = ["PlanTemplate", "PlanCompiler", "lower", "lower_template",
           "instantiate"]


class _Builder:
    """Hash-consing op emitter: one shared SSA list per micro-batch."""

    def __init__(self):
        self.ops: list[PlanOp] = []
        self.roots: list[int] = []
        self.ops_total = 0
        self._index: dict[PlanOp, int] = {}

    def emit(self, op: PlanOp) -> int:
        """Add one op, deduplicating structurally identical ones (CSE)."""
        self.ops_total += 1
        found = self._index.get(op)
        if found is not None:
            return found
        value = len(self.ops)
        self.ops.append(op)
        self._index[op] = value
        return value

    def emit_root(self, op: RankOp) -> int:
        """Add a query root; roots are never CSE'd (one answer per query)."""
        self.ops_total += 1
        value = len(self.ops)
        self.ops.append(op)
        self.roots.append(value)
        return value

    def plan(self) -> Plan:
        return Plan(self.ops, self.roots, ops_total=self.ops_total)


def _lower_tree(node: Node, builder: _Builder) -> int:
    """Lower one union-free (or non-DNF) tree, returning its value id."""
    if isinstance(node, Entity):
        return builder.emit(AnchorOp(node.entity))
    if isinstance(node, Projection):
        return builder.emit(ProjectOp(node.relation,
                                      _lower_tree(node.operand, builder)))
    if isinstance(node, Negation):
        return builder.emit(NegateOp(_lower_tree(node.operand, builder)))
    values = tuple(_lower_tree(op, builder) for op in node.operands)
    if isinstance(node, Intersection):
        return builder.emit(IntersectOp(values))
    if isinstance(node, Union):
        return builder.emit(UnionOp(values))
    if isinstance(node, Difference):
        return builder.emit(DifferenceOp(values))
    raise TypeError(f"unknown node type: {type(node).__name__}")


def _lower_query(node: Node, builder: _Builder, dnf: bool) -> int:
    """Lower one canonical query to its RankOp root."""
    if dnf:
        branches = tuple(_lower_tree(branch, builder)
                         for branch in to_dnf(node))
    else:
        branches = (_lower_tree(node, builder),)
    return builder.emit_root(RankOp(branches))


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
        node = query if canonical else canonicalize(query)
        _lower_query(node, builder, dnf)
    return builder.plan()


# ----------------------------------------------------------------------
# structure-keyed templates
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class PlanTemplate:
    """A lowered plan whose ids are slot indexes, reusable across queries.

    ``ops`` reference anchor/relation *slots* (pre-order occurrence
    indexes in the canonical tree); two queries with the same canonical
    structure signature have isomorphic canonical trees, so their
    pre-order id vectors (:func:`repro.queries.anchors` /
    :func:`repro.queries.relations`) line up with the slots one-to-one.
    """

    ops: tuple[PlanOp, ...]
    root: int
    #: ops before intra-template CSE (for honest ops_total accounting)
    ops_total: int
    num_anchor_slots: int
    num_relation_slots: int


class _SlotTree:
    """Rebuild a tree with ids replaced by pre-order occurrence slots."""

    def __init__(self):
        self.next_anchor = 0
        self.next_relation = 0

    def rewrite(self, node: Node) -> Node:
        if isinstance(node, Entity):
            slot = self.next_anchor
            self.next_anchor += 1
            return Entity(slot)
        if isinstance(node, Projection):
            slot = self.next_relation
            self.next_relation += 1
            return Projection(slot, self.rewrite(node.operand))
        if isinstance(node, Negation):
            return Negation(self.rewrite(node.operand))
        return type(node)(tuple(self.rewrite(op) for op in node.operands))


def lower_template(canonical_node: Node, dnf: bool = True) -> PlanTemplate:
    """Lower the anonymous shape of one canonical query into a template."""
    slots = _SlotTree()
    slot_tree = slots.rewrite(canonical_node)
    builder = _Builder()
    root = _lower_query(slot_tree, builder, dnf)
    return PlanTemplate(ops=tuple(builder.ops), root=root,
                        ops_total=builder.ops_total,
                        num_anchor_slots=slots.next_anchor,
                        num_relation_slots=slots.next_relation)


def instantiate(template: PlanTemplate, entity_ids, relation_ids,
                builder: _Builder) -> int:
    """Ground a template and merge it into the batch builder (CSE)."""
    if len(entity_ids) != template.num_anchor_slots or \
            len(relation_ids) != template.num_relation_slots:
        raise ValueError(
            f"template expects {template.num_anchor_slots} anchors / "
            f"{template.num_relation_slots} relations; got "
            f"{len(entity_ids)}/{len(relation_ids)}")
    remap: list[int] = []
    root = -1
    for op in template.ops:
        if isinstance(op, AnchorOp):
            value = builder.emit(AnchorOp(entity_ids[op.entity]))
        elif isinstance(op, ProjectOp):
            value = builder.emit(ProjectOp(relation_ids[op.relation],
                                           remap[op.operand]))
        elif isinstance(op, NegateOp):
            value = builder.emit(NegateOp(remap[op.operand]))
        elif isinstance(op, IntersectOp):
            value = builder.emit(IntersectOp(
                tuple(remap[v] for v in op.operands)))
        elif isinstance(op, UnionOp):
            value = builder.emit(UnionOp(
                tuple(remap[v] for v in op.operands)))
        elif isinstance(op, DifferenceOp):
            value = builder.emit(DifferenceOp(
                tuple(remap[v] for v in op.operands)))
        elif isinstance(op, RankOp):
            value = builder.emit_root(RankOp(
                tuple(remap[v] for v in op.branches)))
            root = value
        else:  # pragma: no cover - exhaustive over the IR
            raise TypeError(f"unknown op type: {type(op).__name__}")
        remap.append(value)
    # honest accounting: the template's pre-CSE node count, not the
    # post-CSE op count, is what an interpretive walk would have paid
    builder.ops_total += template.ops_total - len(template.ops)
    return root


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

    def template_for(self, canonical_node: Node,
                     key: str | None = None) -> tuple[PlanTemplate, bool]:
        """Cached template of one canonical query; returns (template, hit)."""
        key = key if key is not None else batch_key(canonical_node)
        template = self.cache.get(key)
        if template is not None:
            return template, True
        template = lower_template(canonical_node, dnf=self.dnf)
        self.cache.put(key, template)
        return template, False

    def compile(self, queries, canonical: bool = False,
                keys: list[str] | None = None) -> CompileResult:
        """Compile a micro-batch into one shared, CSE'd plan.

        ``canonical`` vouches that the queries are already in serving
        normal form; ``keys`` hands in their :func:`batch_key` (the
        runtime computed it at submit) instead of walking each tree
        again.
        """
        tracer = self.tracer if self.tracer is not None else get_tracer()
        with tracer.span("plan.compile", queries=len(queries)):
            builder = _Builder()
            result = CompileResult(plan=None)  # filled below
            for position, query in enumerate(queries):
                node = query if canonical else canonicalize(query)
                key = batch_key(node) if keys is None else keys[position]
                template, hit = self.template_for(node, key=key)
                instantiate(template, anchors(node), relations(node),
                            builder)
                result.structure_keys.append(key)
                if hit:
                    result.cache_hits += 1
                else:
                    result.cache_misses += 1
            result.plan = builder.plan()
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
