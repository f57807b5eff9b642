"""Model backends that execute plan ops over stacked value rows.

The executor (:mod:`repro.plan.executor`) schedules a compiled DAG as a
sequence of *stacked* primitive calls — every op of one kind at one depth
runs as a single batched kernel invocation, regardless of which query
each row belongs to.  A backend supplies those primitives.

:class:`HalkPlanBackend` is plain numpy end to end.  It re-states
:meth:`repro.core.model.HalkModel._embed` and the four operators of
``core/operators.py`` operation for operation — the same lookups, the
same float ops in the same order — over the model's live
``Parameter.data`` arrays, so a served answer costs no autograd wrapper:
differentiation belongs to the training call, not to the arithmetic.
The operator arithmetic therefore exists twice (training in
``core/operators.py``, serving here); what pins the copies together is
the bitwise parity suite in ``tests/plan``, which holds every structure's
served rows ``np.array_equal`` to ``embed_batch``'s.  Change one copy and
that suite fails until the other follows.

Because every HaLk kernel is row-wise (elementwise ops, ``sum(axis=-1)``
reductions, per-row matmuls, softmax over the *operand* axis), a row's
bits do not depend on which other rows share its batch — with one
caveat: numpy dispatches ``(1, d)`` matmuls to a different kernel than
``(m≥2, d)`` ones, and the two can differ in the last ulp.  The backend
therefore pads single-row groups to two rows (duplicating the row,
slicing the result), which keeps compiled execution bitwise
batch-composition-invariant and bitwise equal to the interpretive
``embed_batch`` whenever the interpretive batch itself has ``B ≥ 2``
(see DESIGN.md §12 and tests/plan/).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.arc import TWO_PI, wrap_angles
from ..core.model import HalkModel, HalkServedEmbedding

__all__ = ["ArcRows", "HalkPlanBackend", "stack_rows"]


@dataclass
class ArcRows:
    """The value of one or more plan ops under the HaLk backend.

    One row per op: arc centres and arclengths plus the per-row
    multi-hot group signature — the ``(Arc, signature)`` pair ``_embed``
    threads through its recursion, as three plain arrays.
    """

    center: np.ndarray     # (m, d)
    length: np.ndarray     # (m, d)
    signature: np.ndarray  # (m, G)

    @property
    def rows(self) -> int:
        return self.center.shape[0]

    def first(self, m: int) -> "ArcRows":
        """Drop padding rows, keeping the first ``m``."""
        if self.rows == m:
            return self
        return ArcRows(self.center[:m], self.length[:m], self.signature[:m])

    def take(self, rows) -> "ArcRows":
        """Gather ``rows`` into a new stacked batch (one fancy index per
        field — the executor's bulk operand assembly)."""
        rows = np.asarray(rows, dtype=np.int64)
        return ArcRows(self.center[rows], self.length[rows],
                       self.signature[rows])


def stack_rows(states: list[ArcRows]) -> ArcRows:
    """Concatenate per-op rows into one stacked batch."""
    if len(states) == 1:
        return states[0]
    return ArcRows(np.concatenate([s.center for s in states]),
                   np.concatenate([s.length for s in states]),
                   np.concatenate([s.signature for s in states]))


def _pad(state: ArcRows) -> ArcRows:
    """Duplicate a lone row so matmuls hit the stable ``m ≥ 2`` kernel."""
    return stack_rows([state, state])


# ----------------------------------------------------------------------
# repro.nn.functional, restated on arrays (same expression, same bits)
# ----------------------------------------------------------------------
def _sigmoid(x: np.ndarray) -> np.ndarray:
    decay = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + decay), decay / (1.0 + decay))


def _softmax0(x: np.ndarray) -> np.ndarray:
    exps = np.exp(x - np.max(x, axis=0, keepdims=True))
    return exps / exps.sum(axis=0, keepdims=True)


def _mlp(mlp, x: np.ndarray) -> np.ndarray:
    """``repro.nn.MLP.forward`` (ReLU hidden stack, linear output)."""
    for layer in mlp.hidden_layers:
        x = np.maximum(_linear(layer, x), 0.0)
    return _linear(mlp.output, x)


def _linear(layer, x: np.ndarray) -> np.ndarray:
    out = x @ layer.weight.data
    if layer.bias is not None:
        out = out + layer.bias.data
    return out


def _angle_features(angles: np.ndarray) -> list[np.ndarray]:
    return [np.sin(angles), np.cos(angles)]


class HalkPlanBackend:
    """Stacked plan primitives over a :class:`HalkModel`'s weights.

    Every method reproduces one branch of ``HalkModel._embed`` and the
    operator it calls, verbatim in numpy; the only additions are the
    single-row padding (see module docstring) and the explicit stacking
    interface.  Weights are read through ``Parameter.data`` at call
    time, so a hot reload (which writes them in place) needs no rebuild.
    """

    def __init__(self, model: HalkModel):
        self.model = model
        self.radius = model.config.radius
        self.lambda_scale = model.config.lambda_scale

    # ------------------------------------------------------------------
    # shared pieces of the operators
    # ------------------------------------------------------------------
    def _pair_features(self, center: np.ndarray,
                       length: np.ndarray) -> np.ndarray:
        """(sin, cos) chart of the arc's (start, end) pair."""
        half = length / (2.0 * self.radius)
        return np.concatenate(_angle_features(center - half)
                              + _angle_features(center + half), axis=-1)

    def _corrected(self, base: np.ndarray, mlp,
                   features: np.ndarray) -> np.ndarray:
        """``base + π·tanh(λ·mlp(features))`` — the bounded correction."""
        return base + np.pi * np.tanh(self.lambda_scale
                                      * _mlp(mlp, features))

    def _semantic_average_center(self, centers: list[np.ndarray],
                                 weights: np.ndarray) -> np.ndarray:
        """Attention-weighted centre in rectangular coordinates (Eq. 4–6)."""
        x_avg = y_avg = None
        for center, weight in zip(centers, weights):
            x_i = weight * (self.radius * np.cos(center))
            y_i = weight * (self.radius * np.sin(center))
            x_avg = x_i if x_avg is None else x_avg + x_i
            y_avg = y_i if y_avg is None else y_avg + y_i
        eps = 1e-9
        sign = np.sign(x_avg)
        x_safe = x_avg + sign * eps + eps * (1.0 - np.abs(sign))
        return wrap_angles(np.arctan2(y_avg, x_safe))

    # ------------------------------------------------------------------
    # op primitives (one stacked kernel call each)
    # ------------------------------------------------------------------
    def anchor(self, entity_ids) -> ArcRows:
        ids = np.asarray(entity_ids, dtype=np.int64)
        points = wrap_angles(self.model.entity_points.weight.data[ids])
        return ArcRows(points, np.zeros(points.shape),
                       self.model.groups.one_hot[ids].copy())

    def project(self, relation_ids, operand: ArcRows) -> ArcRows:
        ids = np.asarray(relation_ids, dtype=np.int64)
        m = operand.rows
        if m == 1:
            operand = _pad(operand)
            ids = np.concatenate([ids, ids])
        model, radius = self.model, self.radius
        op = model.projection
        # rotation initialisation: ~A_c = A_{h,c} + A_{r,c}, ~A_l likewise
        center = operand.center + model.relation_center.weight.data[ids]
        length = np.clip(
            operand.length + model.relation_length.weight.data[ids],
            0.0, TWO_PI * radius)
        features = self._pair_features(center, length)
        out_center = wrap_angles(
            self._corrected(center, op.center_mlp, features))
        angle = np.clip(
            self._corrected(length / radius, op.length_mlp, features),
            0.0, TWO_PI)
        reached = np.einsum("bg,bgh->bh", operand.signature,
                            model.groups.adjacency[ids])
        return ArcRows(out_center, radius * angle,
                       (reached > 0).astype(np.float64)).first(m)

    def intersect(self, operands: list[ArcRows]) -> ArcRows:
        m = operands[0].rows
        if m == 1:
            operands = [_pad(state) for state in operands]
        sigs = [state.signature for state in operands]
        target_sig = sigs[0]
        for sig in sigs[1:]:
            target_sig = target_sig * sig
        op, radius = self.model.intersection, self.radius
        features = [self._pair_features(state.center, state.length)
                    for state in operands]
        # z_i = 1 / (‖h_Ui − h_Ut‖ + 1), Eq. (10)
        scores = [(1.0 / (np.abs(sig - target_sig).sum(axis=-1)
                          + 1.0))[:, None] * _mlp(op.attention_mlp, feats)
                  for sig, feats in zip(sigs, features)]
        center = self._semantic_average_center(
            [state.center for state in operands],
            _softmax0(np.stack(scores, axis=0)))
        min_angle = encoded = None
        for state, feats in zip(operands, features):
            angle = state.length / radius
            min_angle = angle if min_angle is None \
                else np.minimum(min_angle, angle)
            item = _mlp(op.deepsets.inner, feats)
            encoded = item if encoded is None else encoded + item
        shrink = _sigmoid(_mlp(op.deepsets.outer,
                               encoded / float(len(operands))))
        return ArcRows(center, radius * (min_angle * shrink),
                       target_sig).first(m)

    def difference(self, operands: list[ArcRows]) -> ArcRows:
        m = operands[0].rows
        if m == 1:
            operands = [_pad(state) for state in operands]
        op, radius = self.model.difference, self.radius
        head, rest = operands[0], operands[1:]
        scores = []
        for index, state in enumerate(operands):
            kappa = op.kappa_head if index == 0 else op.kappa_rest
            scores.append(kappa.data * _mlp(
                op.attention_mlp,
                self._pair_features(state.center, state.length)))
        center = self._semantic_average_center(
            [state.center for state in operands],
            _softmax0(np.stack(scores, axis=0)))
        encoded = None
        for other in rest:
            # signed chord between centres + arclength gap (Eq. 9)
            delta_c = 2.0 * radius * np.sin(
                (head.center - other.center) / 2.0)
            item = _mlp(op.overlap.inner, np.concatenate(
                [delta_c, head.length - other.length], axis=-1))
            encoded = item if encoded is None else encoded + item
        shrink = _sigmoid(_mlp(op.overlap.outer,
                               encoded / float(len(rest))))
        # cardinality constraint: the result is a sub-arc of the head
        return ArcRows(center, head.length * shrink,
                       head.signature).first(m)

    def negate(self, operand: ArcRows) -> ArcRows:
        m = operand.rows
        if m == 1:
            operand = _pad(operand)
        op, radius = self.model.negation, self.radius
        # linear part (Eq. 13): antipodal centre, complementary span
        center = wrap_angles(operand.center + np.pi)
        angle = (TWO_PI * radius - operand.length) / radius
        joint = np.concatenate(
            [_mlp(op.center_encoder,
                  np.concatenate(_angle_features(center), axis=-1)),
             _mlp(op.angle_encoder, angle / np.pi - 1.0)], axis=-1)
        out_center = wrap_angles(
            self._corrected(center, op.center_mlp, joint))
        out_angle = np.clip(self._corrected(angle, op.angle_mlp, joint),
                            0.0, TWO_PI)
        return ArcRows(out_center, radius * out_angle,
                       np.ones_like(operand.signature)).first(m)

    # ------------------------------------------------------------------
    # rank-stage assembly
    # ------------------------------------------------------------------
    def finalize(self, branches: list[ArcRows]) -> HalkServedEmbedding:
        """Assemble stacked branch values into a rankable embedding."""
        signature: np.ndarray | None = None
        for state in branches:
            signature = state.signature if signature is None else \
                np.maximum(signature, state.signature)
        return HalkServedEmbedding(
            [(state.center, state.length) for state in branches],
            signature, self.radius)
