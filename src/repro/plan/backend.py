"""The model backend that executes plan ops over stacked value rows.

The executor (:mod:`repro.plan.executor`) schedules a compiled DAG as a
sequence of *stacked* primitive calls — every op of one kind at one depth
runs as a single batched kernel invocation, regardless of which query
each row belongs to.  A backend supplies those primitives.

:class:`HalkPlanBackend` holds no arithmetic: it calls the model's own
``embed_*`` primitives — the ones ``QueryModel._embed`` walks a tree
through on the training tape — with :mod:`repro.nn.arrays`, so a served
answer builds no autograd wrapper, computes the bits ``embed_batch``
computes, and runs whatever operator modules the model holds (the
Table V ablations need nothing here).

What stacked execution adds is the lone-row padding.  Every HaLk kernel
is row-wise (elementwise ops, ``sum(axis=-1)`` reductions, per-row
matmuls, softmax over the *operand* axis), so a row's bits do not depend
on its batch-mates — except that numpy dispatches ``(1, d)`` matmuls to
a different kernel than ``(m≥2, d)`` ones, and the two can differ in the
last ulp.  Single-row groups are therefore padded to two rows
(duplicating the row, slicing the result), which keeps compiled
execution bitwise batch-composition-invariant and bitwise equal to the
interpretive ``embed_batch`` whenever that batch has ``B ≥ 2`` (see
DESIGN.md §12 and tests/plan/).
"""

from __future__ import annotations

from ..core.arc import ArcRows, stack_rows
from ..core.model import HalkModel, HalkServedEmbedding
from ..nn import arrays

__all__ = ["HalkPlanBackend"]


def _pad(state: ArcRows) -> ArcRows:
    """Duplicate a lone row so matmuls hit the stable ``m ≥ 2`` kernel."""
    return stack_rows([state, state])


class HalkPlanBackend:
    """Stacked plan primitives: a :class:`HalkModel`'s own, on arrays
    (which read ``Parameter.data`` at call time, so a hot reload — it
    writes the weights in place — needs no rebuild)."""

    def __init__(self, model: HalkModel):
        self.model = model

    def anchor(self, entity_ids) -> ArcRows:
        # a table lookup: no matmul, nothing to pad
        return self.model.embed_anchor(entity_ids, xp=arrays)

    def project(self, relation_ids, operand: ArcRows) -> ArcRows:
        m = operand.batch_size
        if m == 1:
            operand, relation_ids = _pad(operand), list(relation_ids) * 2
        return self.model.embed_project(relation_ids, operand,
                                        xp=arrays).first(m)

    def intersect(self, operands: list[ArcRows]) -> ArcRows:
        return self._nary(self.model.embed_intersect, operands)

    def difference(self, operands: list[ArcRows]) -> ArcRows:
        return self._nary(self.model.embed_difference, operands)

    @staticmethod
    def _nary(primitive, operands: list[ArcRows]) -> ArcRows:
        m = operands[0].batch_size
        if m == 1:
            operands = [_pad(state) for state in operands]
        return primitive(operands, xp=arrays).first(m)

    def negate(self, operand: ArcRows) -> ArcRows:
        m = operand.batch_size
        if m == 1:
            operand = _pad(operand)
        return self.model.embed_negate(operand, xp=arrays).first(m)

    def finalize(self, branches: list[ArcRows]) -> HalkServedEmbedding:
        """Assemble stacked branch values into a rankable embedding."""
        return HalkServedEmbedding(
            [(state.center, state.length) for state in branches],
            self.model.union_signature(branches), self.model.config.radius)
