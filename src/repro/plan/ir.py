"""The SSA-style plan intermediate representation.

A compiled micro-batch is a :class:`Plan`: a flat list of operations in
SSA form, where every op is identified by its index (a *value id*) and
references its inputs by smaller indexes — the list order is therefore a
topological order of the DAG by construction.  Seven op kinds:

* :class:`AnchorOp` — embed one known entity (a DAG source),
* :class:`ProjectOp` — relational traversal of one upstream value,
* :class:`IntersectOp` — conjunction of two or more upstream values,
* :class:`UnionOp` — disjunction (only present in non-DNF plans; the
  serving compiler rewrites unions away so the union stays exact,
  paper §III-F),
* :class:`DifferenceOp` — first input minus the rest,
* :class:`NegateOp` — complement of one upstream value,
* :class:`RankOp` — a query root: the DNF branches whose minimum
  distance (equivalently, set union) is the query's answer.

Ops are frozen dataclasses, so structural equality and hashability come
for free.  Unlike a computation-graph *tree*, two queries that share a
grounded sub-expression share the op (one value id), which is the whole
point of compiling a batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union as TypingUnion

__all__ = [
    "AnchorOp", "ProjectOp", "IntersectOp", "UnionOp", "DifferenceOp",
    "NegateOp", "RankOp", "PlanOp", "Plan", "StageGroup", "op_inputs",
    "op_kind",
]


@dataclass(frozen=True)
class AnchorOp:
    """Source: the singleton set / zero-length arc of one entity."""

    entity: int


@dataclass(frozen=True)
class ProjectOp:
    """Relational projection of value ``operand`` via ``relation``."""

    relation: int
    operand: int


@dataclass(frozen=True)
class IntersectOp:
    """Conjunction of two or more upstream values."""

    operands: tuple[int, ...]


@dataclass(frozen=True)
class UnionOp:
    """Disjunction; absent from DNF plans (rewritten into RankOp roots)."""

    operands: tuple[int, ...]


@dataclass(frozen=True)
class DifferenceOp:
    """First operand minus the union of the rest."""

    operands: tuple[int, ...]


@dataclass(frozen=True)
class NegateOp:
    """Complement of one upstream value."""

    operand: int


@dataclass(frozen=True)
class RankOp:
    """A query root: rank entities against the union of ``branches``.

    One RankOp per query in the batch.  ``branches`` are the value ids of
    the query's union-free DNF branches (a single id for union-free
    queries); the executor answers the query as the entity ranking under
    the minimum-over-branches distance, which is exactly the DNF union
    semantics of §III-F.  RankOps are *not* CSE'd — two identical queries
    in one batch keep distinct RankOps (each caller gets an answer) but
    share every upstream op.
    """

    branches: tuple[int, ...]


PlanOp = TypingUnion[AnchorOp, ProjectOp, IntersectOp, UnionOp,
                     DifferenceOp, NegateOp, RankOp]

#: display tag per op class (the explain/debug vocabulary)
_KIND = {AnchorOp: "anchor", ProjectOp: "project", IntersectOp: "intersect",
         UnionOp: "union", DifferenceOp: "difference", NegateOp: "negate",
         RankOp: "rank"}


def op_kind(op: PlanOp) -> str:
    """Short kind tag of an op (``anchor``/``project``/...)."""
    return _KIND[type(op)]


def op_inputs(op: PlanOp) -> tuple[int, ...]:
    """Value ids an op reads (empty for sources)."""
    if isinstance(op, AnchorOp):
        return ()
    if isinstance(op, (ProjectOp, NegateOp)):
        return (op.operand,)
    if isinstance(op, RankOp):
        return op.branches
    return op.operands


@dataclass(frozen=True)
class StageGroup:
    """One fused execution stage: same-depth, same-kind ops stacked."""

    depth: int
    kind: str
    arity: int
    ops: tuple[int, ...]


def group_stages(groups: dict[tuple, list[int]]) -> list[StageGroup]:
    """Stages from ``{(depth, kind, arity): op ids in SSA order}``."""
    return [StageGroup(*key, tuple(ops)) for key, ops in sorted(groups.items())]


@dataclass
class Plan:
    """A compiled micro-batch: SSA ops plus per-query roots.

    Attributes
    ----------
    ops:
        Topologically ordered op list; ``ops[i]`` defines value ``i`` and
        references only values ``< i``.
    roots:
        One :class:`RankOp` value id per query, in submission order.
    ops_total:
        Ops the batch would hold without CSE (every query lowered in
        isolation); ``ops_total - len(ops)`` is the work CSE removed.
    stages:
        The fused stages (:func:`repro.plan.schedule`), as the compiler
        recorded them; a plan built without them is SSA-checked and
        grouped here.
    """

    ops: list[PlanOp]
    roots: list[int]
    ops_total: int = 0
    stages: list[StageGroup] | None = field(default=None, repr=False,
                                            compare=False)

    def __post_init__(self):
        if self.stages is not None:
            return
        depths: list[int] = []
        groups: dict[tuple, list[int]] = {}
        for index, op in enumerate(self.ops):
            inputs = op_inputs(op)
            for value in inputs:
                if not 0 <= value < index:
                    raise ValueError(
                        f"op {index} ({op_kind(op)}) references value "
                        f"{value}; SSA requires 0 <= input < {index}")
            depths.append(1 + max((depths[i] for i in inputs), default=-1))
            if not isinstance(op, RankOp):
                groups.setdefault((depths[index], op_kind(op), len(inputs)),
                                  []).append(index)
        for root in self.roots:
            if not isinstance(self.ops[root], RankOp):
                raise ValueError(f"root {root} is not a RankOp")
        self.stages = group_stages(groups)

    @property
    def num_queries(self) -> int:
        return len(self.roots)

    @property
    def ops_saved(self) -> int:
        """Ops eliminated by cross-query CSE."""
        return max(0, self.ops_total - len(self.ops))

    def depths(self) -> list[int]:
        """Per-op depth (sources = 0); stacked execution groups by it."""
        out: list[int] = []
        for op in self.ops:
            inputs = op_inputs(op)
            out.append(1 + max((out[i] for i in inputs), default=-1))
        return out

    def use_counts(self) -> list[int]:
        """How many ops read each value (RankOp reads included)."""
        counts = [0] * len(self.ops)
        for op in self.ops:
            for value in op_inputs(op):
                counts[value] += 1
        return counts
