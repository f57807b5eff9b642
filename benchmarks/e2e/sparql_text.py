"""Computation graph -> SPARQL text, the inverse of ``repro.sparql``'s Adaptor.

The HTTP door takes SPARQL, the query sampler produces computation
graphs, so the benchmark needs the missing direction.  The mapping is the
Adaptor's table read right to left:

=====================  =============================================
operator               rendered as
=====================  =============================================
``P(r, x)``            ``x r ?v .`` (a fresh variable per hop)
``I(a, b, N(c))``      the patterns of ``a`` and ``b`` side by side,
                       ``FILTER NOT EXISTS { c }``
``U(a, b)``            ``{ a } UNION { b }``
``D(a, b, c)``         the patterns of ``a``, ``MINUS { b } MINUS { c }``
=====================  =============================================

Every one of the paper's 16 Table I/III structures round-trips to the
same canonical graph except ``3in``: the Adaptor folds the positive
operands first and compiles ``I(a, b, N(c))`` as ``I(I(a, b), N(c))``.
The two have the same exact answers; :func:`check_round_trip` asserts
whichever of the two holds.
"""

from __future__ import annotations

from repro.queries import (Difference, Entity, Intersection, Negation,
                           Projection, Union, execute)
from repro.serve.canonical import canonicalize

__all__ = ["render_sparql", "check_round_trip"]


class _Renderer:
    def __init__(self, entity_names, relation_names):
        self.entity_names = entity_names
        self.relation_names = relation_names
        self.fresh = 0

    def variable(self) -> str:
        self.fresh += 1
        return f"?v{self.fresh}"

    def patterns(self, node, target: str) -> str:
        """Group-pattern text whose solutions bind ``target`` to ``node``."""
        if isinstance(node, Projection):
            relation = self.relation_names[node.relation]
            if isinstance(node.operand, Entity):
                source = self.entity_names[node.operand.entity]
                return f"{source} {relation} {target} ."
            source = self.variable()
            return (f"{source} {relation} {target} . "
                    + self.patterns(node.operand, source))
        if isinstance(node, Intersection):
            positive = [op for op in node.operands
                        if not isinstance(op, Negation)]
            negated = [op for op in node.operands if isinstance(op, Negation)]
            if not positive:
                raise ValueError("an intersection of only negations has no "
                                 "positive binding pattern")
            parts = [self.patterns(op, target) for op in positive]
            parts += [f"FILTER NOT EXISTS {{ "
                      f"{self.patterns(op.operand, target)} }}"
                      for op in negated]
            return " ".join(parts)
        if isinstance(node, Union):
            return " UNION ".join(f"{{ {self.patterns(op, target)} }}"
                                  for op in node.operands)
        if isinstance(node, Difference):
            parts = [self.patterns(node.operands[0], target)]
            parts += [f"MINUS {{ {self.patterns(op, target)} }}"
                      for op in node.operands[1:]]
            return " ".join(parts)
        raise ValueError(f"{type(node).__name__} cannot bind a variable on "
                         f"its own in the supported SPARQL fragment")


def render_sparql(node, entity_names, relation_names) -> str:
    """SPARQL ``SELECT`` text that the Adaptor compiles back to ``node``."""
    body = _Renderer(entity_names, relation_names).patterns(node, "?x")
    return f"SELECT ?x WHERE {{ {body} }}"


def _flatten(node):
    """Merge intersections nested directly inside intersections."""
    if isinstance(node, Entity):
        return node
    if isinstance(node, Projection):
        return Projection(node.relation, _flatten(node.operand))
    if isinstance(node, Negation):
        return Negation(_flatten(node.operand))
    operands = [_flatten(op) for op in node.operands]
    if isinstance(node, Intersection):
        operands = [inner for op in operands
                    for inner in (op.operands if isinstance(op, Intersection)
                                  else (op,))]
    return type(node)(tuple(operands))


def check_round_trip(node, compiled, kg) -> None:
    """Raise unless ``compiled`` is ``node`` up to the documented nesting."""
    if canonicalize(compiled) == canonicalize(node):
        return
    if canonicalize(_flatten(compiled)) != canonicalize(node) \
            or execute(compiled, kg) != execute(node, kg):
        raise AssertionError(f"SPARQL round trip changed the query: "
                             f"{node} compiled to {compiled}")
