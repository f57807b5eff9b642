"""Computation graphs for first-order-logic queries.

A logical query is represented as a directed acyclic computation graph
(paper §II-A): anchor entities are sources, interior nodes apply one of the
five logical operations, and the root is the query target variable.  Since
every structure in the paper's workload is a tree, nodes are modelled as an
immutable expression tree:

* :class:`Entity` — anchor node (a singleton entity set),
* :class:`Projection` — relational traversal ``P``,
* :class:`Intersection` — conjunction ``I``,
* :class:`Union` — disjunction ``U``,
* :class:`Difference` — set difference ``D`` (first minus the rest),
* :class:`Negation` — complement ``N``.

The module also implements the DNF rewriting of §III-F, which moves every
union to the top level so the union operator can be answered *exactly* as a
set of conjunctive queries.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Union as TypingUnion

__all__ = [
    "Node", "Entity", "Projection", "Intersection", "Union", "Difference",
    "Negation", "to_dnf", "query_size", "iter_nodes", "anchors", "relations",
    "rename", "structure_signature",
]


@dataclass(frozen=True)
class Entity:
    """Anchor node: the singleton set containing one known entity."""

    entity: int


@dataclass(frozen=True)
class Projection:
    """Relational projection: all entities reachable via ``relation``."""

    relation: int
    operand: "Node"


@dataclass(frozen=True)
class Intersection:
    """Conjunction of two or more sub-queries."""

    operands: tuple["Node", ...]

    def __post_init__(self):
        if len(self.operands) < 2:
            raise ValueError("intersection needs at least two operands")


@dataclass(frozen=True)
class Union:
    """Disjunction of two or more sub-queries."""

    operands: tuple["Node", ...]

    def __post_init__(self):
        if len(self.operands) < 2:
            raise ValueError("union needs at least two operands")


@dataclass(frozen=True)
class Difference:
    """Set difference: first operand minus the union of the rest."""

    operands: tuple["Node", ...]

    def __post_init__(self):
        if len(self.operands) < 2:
            raise ValueError("difference needs at least two operands")


@dataclass(frozen=True)
class Negation:
    """Complement of a sub-query with respect to the full entity set."""

    operand: "Node"


Node = TypingUnion[Entity, Projection, Intersection, Union, Difference, Negation]


def iter_nodes(node: Node) -> Iterator[Node]:
    """Yield every node of the tree (pre-order)."""
    yield node
    if isinstance(node, Projection):
        yield from iter_nodes(node.operand)
    elif isinstance(node, Negation):
        yield from iter_nodes(node.operand)
    elif isinstance(node, (Intersection, Union, Difference)):
        for operand in node.operands:
            yield from iter_nodes(operand)


def anchors(node: Node) -> list[int]:
    """Anchor entity ids in deterministic (pre-order) traversal order."""
    return [n.entity for n in iter_nodes(node) if isinstance(n, Entity)]


def relations(node: Node) -> list[int]:
    """Relation ids of all projections in traversal order."""
    return [n.relation for n in iter_nodes(node) if isinstance(n, Projection)]


def query_size(node: Node) -> int:
    """Query size = number of relational predicates (projection edges).

    Matches Table VI of the paper where 1p has size 1, 2p size 2, pi size
    3 and so on.
    """
    return sum(1 for n in iter_nodes(node) if isinstance(n, Projection))


def structure_signature(node: Node) -> str:
    """Anonymous structural fingerprint of a query tree (ids erased).

    Two queries share a signature exactly when their trees are isomorphic
    once every anchor entity and relation id is stripped — which is the
    condition under which they can be embedded together in a single
    ``embed_batch`` call (same DNF branch count, same per-branch shape).
    """
    if isinstance(node, Entity):
        return "E"
    if isinstance(node, Projection):
        return f"P({structure_signature(node.operand)})"
    if isinstance(node, Negation):
        return f"N({structure_signature(node.operand)})"
    tag = {Intersection: "I", Union: "U", Difference: "D"}[type(node)]
    inner = ",".join(structure_signature(op) for op in node.operands)
    return f"{tag}({inner})"


def rename(node: Node, entity_map=None, relation_map=None) -> Node:
    """Rebuild a tree applying id translations (used for templating)."""
    entity_map = entity_map or (lambda e: e)
    relation_map = relation_map or (lambda r: r)
    if isinstance(node, Entity):
        return Entity(entity_map(node.entity))
    if isinstance(node, Projection):
        return Projection(relation_map(node.relation),
                          rename(node.operand, entity_map, relation_map))
    if isinstance(node, Negation):
        return Negation(rename(node.operand, entity_map, relation_map))
    ops = tuple(rename(op, entity_map, relation_map) for op in node.operands)
    return type(node)(ops)


# ----------------------------------------------------------------------
# Disjunctive Normal Form (paper §III-F)
# ----------------------------------------------------------------------
def to_dnf(node: Node) -> list[Node]:
    """Rewrite a query into a list of union-free conjunctive queries.

    The rewrite is remembered on ``node`` (trees are immutable), so a
    training query embedded at every epoch is rewritten once.

    The answer of the original query is exactly the union of the answers
    of the returned queries, so the union operator becomes non-parametric
    and exact.  Rewrites used:

    * ``U(a, b)``          -> branches of ``a`` plus branches of ``b``
    * ``P(r, U(a, b))``    -> ``U(P(r, a), P(r, b))``
    * ``I(U(a, b), c)``    -> ``U(I(a, c), I(b, c))``  (cross product)
    * ``D(x, U(a, b))``    -> ``D(x, a, b)``  (since x − (a∪b) = x − a − b)
    * ``D(U(a, b), y)``    -> ``U(D(a, y), D(b, y))``
    * ``N(U(a, b))``       -> ``I(N(a), N(b))``  (De Morgan)
    """
    branches = getattr(node, "_dnf", None)
    if branches is None:
        branches = tuple(_rewrite(node))
        # the node classes are frozen dataclasses: equality, hash and
        # repr read the declared fields only, so this is invisible
        object.__setattr__(node, "_dnf", branches)
    return list(branches)


def _rewrite(node: Node) -> list[Node]:
    if isinstance(node, Entity):
        return [node]
    if isinstance(node, Projection):
        return [Projection(node.relation, branch)
                for branch in _rewrite(node.operand)]
    if isinstance(node, Union):
        out: list[Node] = []
        for operand in node.operands:
            out.extend(_rewrite(operand))
        return out
    if isinstance(node, Intersection):
        branch_lists = [_rewrite(op) for op in node.operands]
        return [_flatten_intersection(combo)
                for combo in itertools.product(*branch_lists)]
    if isinstance(node, Negation):
        branches = _rewrite(node.operand)
        if len(branches) == 1:
            return [Negation(branches[0])]
        return [Intersection(tuple(Negation(b) for b in branches))]
    if isinstance(node, Difference):
        positive_branches = _rewrite(node.operands[0])
        subtracted: list[Node] = []
        for operand in node.operands[1:]:
            subtracted.extend(_rewrite(operand))
        return [Difference((positive,) + tuple(subtracted))
                for positive in positive_branches]
    raise TypeError(f"unknown node type: {type(node).__name__}")


def _flatten_intersection(operands) -> Node:
    """Build an intersection, merging nested intersections produced by DNF."""
    flat: list[Node] = []
    for operand in operands:
        if isinstance(operand, Intersection):
            flat.extend(operand.operands)
        else:
            flat.append(operand)
    if len(flat) == 1:
        return flat[0]
    return Intersection(tuple(flat))
