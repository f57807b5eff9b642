"""Neural models for the five logical operators (paper §III-B..F).

Each operator maps input :class:`Arc` batches to an output :class:`Arc`:

* :class:`ProjectionOperator` — Eq. (2)/(3): rotate by the relation, then
  jointly refine centre and span from the (start, end) pair.
* :class:`DifferenceOperator` — Eq. (4)–(9): semantic-average centre with
  head/rest asymmetric attention, arclength shrunk under the cardinality
  constraint from chord-length overlaps.
* :class:`IntersectionOperator` — Eq. (10)–(12): semantic-average centre
  with group-similarity attention, arclength capped by the minimum input.
* :class:`NegationOperator` — Eq. (13)/(14): antipodal linear init plus a
  non-linear correction network.
* Union is non-parametric (DNF, §III-F) and lives in the model.

Implementation clarifications versus the printed equations (also recorded
in DESIGN.md):

* MLP inputs are the (sin, cos) chart of the angles (periodicity-safe),
  matching the chord-length treatment the paper uses for all distances.
* Centre/span outputs are parameterised as the geometric initialisation
  plus a bounded learned correction ``π·tanh(·)`` — the same function
  class as Eq. (2)/(14) (``g`` squashes into a 2π-wide interval) but
  centred on the rotation instead of on π, which conditions training far
  better at small scale.

The arithmetic is written here and nowhere else.  Every ``forward`` takes
the namespace ``xp`` its ops come from — :mod:`repro.nn.functional` (the
default) records the training tape, :mod:`repro.nn.arrays` computes the
same bits on plain arrays for serving — picked once by whoever starts the
forward pass; nothing in here tests what it was handed.
"""

from __future__ import annotations

import numpy as np

from ..config import ModelConfig
from ..nn import F, MLP, Module, Parameter, Tensor
from .arc import TWO_PI, Arc

__all__ = [
    "ProjectionOperator", "DifferenceOperator", "IntersectionOperator",
    "NegationOperator", "squash_angle", "semantic_average_center",
    "corrected_arc", "zero_init_output",
]


def zero_init_output(mlp: MLP) -> MLP:
    """Zero the output layer so a correction branch starts as identity.

    The operator networks are parameterised as geometric initialisation
    plus a bounded correction; zero-initialising the correction's output
    layer makes a fresh model *exactly* the rotation/antipode geometry, so
    early training cannot scramble the backbone before the embeddings
    settle (standard residual-branch initialisation).
    """
    mlp.output.weight.data[...] = 0.0
    if mlp.output.bias is not None:
        mlp.output.bias.data[...] = 0.0
    return mlp


def squash_angle(x: Tensor, lambda_scale: float = 1.0) -> Tensor:
    """The regulator ``g`` of Eq. (3): ``π·tanh(λx) + π`` into (0, 2π)."""
    return np.pi * F.tanh(lambda_scale * x) + np.pi


def _pair_features(arc: Arc, xp):
    """Feature map of the (start, end) coordinated information pair.
    Intersection asks twice per operand (attention, DeepSets): arrays
    share the result, the tape records each (see ``F.memo``)."""
    return xp.memo(arc, "_pair_features", lambda: xp.concat(
        [xp.angle_features(arc.start), xp.angle_features(arc.end)], axis=-1))


def corrected_arc(approx: Arc, center_mlp: MLP, center_input,
                  angle_mlp: MLP, angle_input, lambda_scale: float,
                  xp) -> Arc:
    """The geometric initialisation ``approx`` plus the bounded learned
    correction ``π·tanh(λ·mlp(input))`` on centre and span."""
    center = xp.wrap_angle(approx.center + np.pi * xp.tanh(
        lambda_scale * xp.mlp(center_mlp, center_input)))
    angle = xp.clip(approx.angle + np.pi * xp.tanh(
        lambda_scale * xp.mlp(angle_mlp, angle_input)), 0.0, TWO_PI)
    return Arc(center, approx.radius * angle, approx.radius)


def semantic_average_center(arcs: list[Arc], weights: list, xp=F):
    """Attention-weighted centre in rectangular coordinates (Eq. 4–6).

    Converting to (x, y), averaging, and mapping back through ``arctan2``
    sidesteps the periodicity problem of averaging raw angles; `arctan2`
    plays the role of the paper's ``Reg`` function (quadrant-correct
    inverse tangent).
    """
    radius = arcs[0].radius
    x_avg = y_avg = None
    for arc, weight in zip(arcs, weights):
        x_i = weight * (radius * xp.cos(arc.center))
        y_i = weight * (radius * xp.sin(arc.center))
        x_avg = x_i if x_avg is None else x_avg + x_i
        y_avg = y_i if y_avg is None else y_avg + y_i
    # Guard the degenerate all-cancelling case the paper handles by
    # nudging x away from zero.
    eps = 1e-9
    x_safe = x_avg + xp.sign(x_avg) * eps \
        + eps * (1.0 - xp.abs_(xp.sign(x_avg)))
    return xp.wrap_angle(xp.arctan2(y_avg, x_safe))


class ProjectionOperator(Module):
    """Relational projection ``P`` (Eq. 2/3)."""

    def __init__(self, config: ModelConfig, rng: np.random.Generator):
        super().__init__()
        self.config = config
        d = config.embedding_dim
        # (sin, cos) of start and end points -> 4d input features
        self.center_mlp = zero_init_output(MLP(4 * d, config.hidden_dim, d,
                                                rng=rng))
        self.length_mlp = zero_init_output(MLP(4 * d, config.hidden_dim, d,
                                                rng=rng))

    def rotate(self, head: Arc, relation: Arc, xp) -> Arc:
        """Rotation initialisation: ~A_c = A_{h,c} + A_{r,c}, ~A_l likewise."""
        radius = head.radius
        return Arc(head.center + relation.center,
                   xp.clip(head.length + relation.length, 0.0,
                           TWO_PI * radius), radius)

    def forward(self, head: Arc, relation: Arc, xp=F) -> Arc:
        approx = self.rotate(head, relation, xp)
        features = _pair_features(approx, xp)
        return corrected_arc(approx, self.center_mlp, features,
                             self.length_mlp, features,
                             self.config.lambda_scale, xp)


class _OverlapDeepSets(Module):
    """DeepSets over chord-length overlaps (Eq. 8/9)."""

    def __init__(self, config: ModelConfig, rng: np.random.Generator):
        super().__init__()
        d = config.embedding_dim
        self.inner = MLP(2 * d, config.hidden_dim, config.hidden_dim, rng=rng)
        self.outer = MLP(config.hidden_dim, config.hidden_dim, d, rng=rng)

    def forward(self, head: Arc, rest: list[Arc], xp=F):
        radius = head.radius
        encoded = None
        for other in rest:
            # signed chord between centres + arclength gap (Eq. 9)
            delta_c = 2.0 * radius * xp.sin((head.center - other.center) / 2.0)
            delta_l = head.length - other.length
            item = xp.mlp(self.inner, xp.concat([delta_c, delta_l], axis=-1))
            encoded = item if encoded is None else encoded + item
        return xp.mlp(self.outer, encoded / float(len(rest)))


class DifferenceOperator(Module):
    """Set difference ``D`` with a closed-form answer region (Eq. 4–9).

    The output arc is constrained to lie inside the first input: the
    centre is an attention average dominated by the head input (the
    ``κ_head``/``κ_rest`` vectors hard-code the asymmetry while staying
    permutation-invariant over inputs 2..k), and the arclength is the
    head's arclength shrunk by a sigmoid factor (Eq. 8) — hence the
    result is always a valid sub-arc, avoiding NewLook's fixed-lossy box
    problem.
    """

    def __init__(self, config: ModelConfig, rng: np.random.Generator):
        super().__init__()
        d = config.embedding_dim
        self.attention_mlp = MLP(4 * d, config.hidden_dim, d, rng=rng)
        self.kappa_head = Parameter(np.full(d, 2.0))
        self.kappa_rest = Parameter(np.zeros(d))
        self.overlap = _OverlapDeepSets(config, rng)

    def forward(self, arcs: list[Arc], xp=F) -> Arc:
        if len(arcs) < 2:
            raise ValueError("difference needs at least two inputs")
        head, rest = arcs[0], list(arcs[1:])
        radius = head.radius
        scores = []
        for index, arc in enumerate(arcs):
            kappa = self.kappa_head if index == 0 else self.kappa_rest
            scores.append(xp.parameter(kappa) * xp.mlp(
                self.attention_mlp, _pair_features(arc, xp)))
        weights = xp.softmax(xp.stack(scores, axis=0), axis=0)
        weight_list = [weights[i] for i in range(len(arcs))]
        center = semantic_average_center(arcs, weight_list, xp)
        shrink = xp.sigmoid(self.overlap(head, rest, xp=xp))
        length = head.length * shrink  # cardinality constraint: ⊆ head
        return Arc(center, length, radius)


class _SetDeepSets(Module):
    """DeepSets over (start, end) pair features (Eq. 12)."""

    def __init__(self, config: ModelConfig, rng: np.random.Generator):
        super().__init__()
        d = config.embedding_dim
        self.inner = MLP(4 * d, config.hidden_dim, config.hidden_dim, rng=rng)
        self.outer = MLP(config.hidden_dim, config.hidden_dim, d, rng=rng)

    def forward(self, arcs: list[Arc], xp=F):
        encoded = None
        for arc in arcs:
            item = xp.mlp(self.inner, _pair_features(arc, xp))
            encoded = item if encoded is None else encoded + item
        return xp.mlp(self.outer, encoded / float(len(arcs)))


class IntersectionOperator(Module):
    """Conjunction ``I`` (Eq. 10–12).

    Group-signature similarities ``z_i`` (coarse random-group information,
    §II-A) modulate the attention so inputs whose groups match the
    intersected signature pull the centre harder; the arclength is the
    minimum input span shrunk by a DeepSets factor, enforcing the
    cardinality constraint |result| ≤ min |input|.
    """

    def __init__(self, config: ModelConfig, rng: np.random.Generator):
        super().__init__()
        d = config.embedding_dim
        self.attention_mlp = MLP(4 * d, config.hidden_dim, d, rng=rng)
        self.deepsets = _SetDeepSets(config, rng)

    def forward(self, arcs: list[Arc], group_similarities=None,
                xp=F) -> Arc:
        if len(arcs) < 2:
            raise ValueError("intersection needs at least two inputs")
        radius = arcs[0].radius
        if group_similarities is None:
            group_similarities = np.ones((len(arcs), arcs[0].batch_size))
        scores = []
        for index, arc in enumerate(arcs):
            # z_i: one (B,) block per operand, a constant of the tape
            z = group_similarities[index][:, None]
            scores.append(xp.mlp(self.attention_mlp,
                                 _pair_features(arc, xp)) * z)
        weights = xp.softmax(xp.stack(scores, axis=0), axis=0)
        weight_list = [weights[i] for i in range(len(arcs))]
        center = semantic_average_center(arcs, weight_list, xp)

        min_angle = None
        for arc in arcs:
            min_angle = arc.angle if min_angle is None \
                else xp.minimum(min_angle, arc.angle)
        angle = min_angle * xp.sigmoid(self.deepsets(arcs, xp=xp))
        return Arc(center, radius * angle, radius)


class NegationOperator(Module):
    """Complement ``N`` (Eq. 13/14).

    The linear initialisation flips the centre to the antipode and takes
    the complementary arclength (so query and complement tile the whole
    circle); the non-linear network then corrects both jointly — this is
    what lets HaLk move beyond the linear-transformation assumption of
    BetaE/ConE/MLPMix.
    """

    def __init__(self, config: ModelConfig, rng: np.random.Generator):
        super().__init__()
        self.config = config
        d = config.embedding_dim
        self.center_encoder = MLP(2 * d, config.hidden_dim, config.hidden_dim,
                                  rng=rng)
        self.angle_encoder = MLP(d, config.hidden_dim, config.hidden_dim,
                                 rng=rng)
        self.center_mlp = zero_init_output(
            MLP(2 * config.hidden_dim, config.hidden_dim, d, rng=rng))
        self.angle_mlp = zero_init_output(
            MLP(2 * config.hidden_dim, config.hidden_dim, d, rng=rng))

    def linear_negation(self, arc: Arc, xp=F) -> Arc:
        """The linear part alone (Eq. 13) — also the HaLk-V2 ablation."""
        center = xp.wrap_angle(arc.center + np.pi)
        length = TWO_PI * arc.radius - arc.length
        return Arc(center, length, arc.radius)

    def forward(self, arc: Arc, xp=F) -> Arc:
        approx = self.linear_negation(arc, xp)
        t1 = xp.mlp(self.center_encoder, xp.angle_features(approx.center))
        # span scaled to [-1, 1]
        t2 = xp.mlp(self.angle_encoder, approx.angle / np.pi - 1.0)
        joint = xp.concat([t1, t2], axis=-1)
        return corrected_arc(approx, self.center_mlp, joint,
                             self.angle_mlp, joint,
                             self.config.lambda_scale, xp)
