"""Query canonicalisation: one cache entry per equivalence class.

Two served queries frequently differ only in the order their operands
were written down — ``I(a, b)`` vs ``I(b, a)``, or a UNION whose branches
arrive permuted from different front-ends.  Canonicalisation rewrites a
computation graph into a normal form so that every member of such an
equivalence class produces the same :func:`cache_key` (embedding/answer
caches hit) and the same :func:`batch_key` (requests coalesce into the
same micro-batch).

Normal form:

* operands of the commutative connectives (:class:`Intersection`,
  :class:`Union`) are sorted;
* :class:`Difference` keeps its first (positive) operand in place and
  sorts only the subtracted operands — ``D`` is not commutative;
* the sort key orders first by anonymous shape, then by the full id
  serialization, so isomorphic queries with different ids still agree on
  *which shape goes where* and therefore share a batchable structure.

All of it — tree, both keys, and the ids the plan compiler grounds
templates with — comes out of one bottom-up :func:`walk`, whose sort
reads the keys already built for the operands.
"""

from __future__ import annotations

from collections import namedtuple
from operator import itemgetter

from ..queries.computation_graph import (Difference, Entity, Intersection,
                                         Negation, Node, Projection, Union)

__all__ = ["Walk", "walk", "canonicalize", "serialize", "cache_key",
           "batch_key"]

_TAGS = {Intersection: "I", Union: "U", Difference: "D"}
#: the operand sort key: (anonymous shape, id serialization)
_ORDER = itemgetter(1, 2)


#: one query walked once (:func:`walk`): the normal-form tree (unchanged
#: sub-trees reused), :func:`batch_key`, :func:`cache_key`, and the anchor
#: entity and projection relation ids in canonical pre-order
Walk = namedtuple("Walk", "canonical structure key anchors relations")


def serialize(node: Node) -> str:
    """Deterministic string form of a tree, ids included (hashable key)."""
    if isinstance(node, Entity):
        return f"E{node.entity}"
    if isinstance(node, Projection):
        return f"P{node.relation}({serialize(node.operand)})"
    if isinstance(node, Negation):
        return f"N({serialize(node.operand)})"
    tag = _TAGS[type(node)]
    return f"{tag}({','.join(serialize(op) for op in node.operands)})"


def _walk(node: Node) -> tuple:
    kind = type(node)
    if kind is Entity:
        return node, "E", f"E{node.entity}", [node.entity], []
    if kind is Projection:
        operand, shape, key, ids, rels = _walk(node.operand)
        if operand is not node.operand:
            node = Projection(node.relation, operand)
        return (node, f"P({shape})", f"P{node.relation}({key})", ids,
                [node.relation] + rels)
    if kind is Negation:
        operand, shape, key, ids, rels = _walk(node.operand)
        if operand is not node.operand:
            node = Negation(operand)
        return node, f"N({shape})", f"N({key})", ids, rels
    walked = [_walk(op) for op in node.operands]
    tag = _TAGS[kind]
    head = 1 if kind is Difference else 0  # D keeps its first operand
    walked[head:] = sorted(walked[head:], key=_ORDER)
    operands = tuple([w[0] for w in walked])
    if operands != node.operands:
        node = kind(operands)
    ids, rels = [], []
    for w in walked:
        ids += w[3]
        rels += w[4]
    return (node, f"{tag}({','.join([w[1] for w in walked])})",
            f"{tag}({','.join([w[2] for w in walked])})", ids, rels)


def walk(node: Node) -> Walk:
    """Canonicalise ``node`` and read off its keys and ids in one pass."""
    return Walk._make(_walk(node))


def canonicalize(node: Node) -> Node:
    """Rewrite ``node`` into the serving normal form (same answers)."""
    return _walk(node)[0]


def cache_key(node: Node) -> str:
    """Cache key shared by every query equivalent to ``node``."""
    return _walk(node)[2]


def batch_key(node: Node) -> str:
    """Micro-batch group key: canonical shape with ids erased."""
    return _walk(node)[1]
