"""Ablated HaLk variants for Table V (§IV-C).

* **HaLk-V1** — difference operator with NewLook-style raw-value overlap
  attention and *no* cardinality constraint (the arclength is predicted
  freely instead of shrinking the head input's arclength).
* **HaLk-V2** — negation restricted to the linear transformation of
  Eq. (13) (the assumption ConE/BetaE/MLPMix share).
* **HaLk-V3** — projection that learns centre and arclength independently
  (NewLook-style), dropping the coordinated start/end information pair.

Each variant is one operator class over the namespace ``xp`` (like the
stock ones in ``core/operators.py``) plus a :class:`HalkModel` subclass
installing it — all it takes to train, evaluate *and* serve it.
"""

from __future__ import annotations

import numpy as np

from ..config import ModelConfig
from ..core.arc import TWO_PI, Arc
from ..core.model import HalkModel
from ..core.operators import (NegationOperator, ProjectionOperator,
                              corrected_arc)
from ..kg.graph import KnowledgeGraph
from ..kg.groups import GroupAssignment
from ..nn import F, MLP, Module

__all__ = [
    "NewLookStyleDifference", "LinearNegation", "IndependentProjection",
    "HalkV1", "HalkV2", "HalkV3", "make_halk_variant", "ABLATION_VARIANTS",
]


class NewLookStyleDifference(Module):
    """Difference via raw-value attention without cardinality constraint.

    Raw angle values feed the attention directly (the semantic
    inconsistency §III-C describes for rotational backbones) and the
    output arclength is free — it is not forced to be a sub-arc of the
    first input.
    """

    def __init__(self, config: ModelConfig, rng: np.random.Generator):
        super().__init__()
        d = config.embedding_dim
        self.attention_mlp = MLP(2 * d, config.hidden_dim, d, rng=rng)
        self.length_mlp = MLP(2 * d, config.hidden_dim, d, rng=rng)

    def forward(self, arcs: list[Arc], xp=F) -> Arc:
        if len(arcs) < 2:
            raise ValueError("difference needs at least two inputs")
        head, rest = arcs[0], arcs[1:]
        radius = head.radius
        scores = [xp.mlp(self.attention_mlp,
                         xp.concat([arc.center, arc.length], axis=-1))
                  for arc in arcs]
        weights = xp.softmax(xp.stack(scores, axis=0), axis=0)
        center = None
        for index, arc in enumerate(arcs):
            # raw weighted average of angles: periodicity-unsafe on purpose
            term = weights[index] * arc.center
            center = term if center is None else center + term
        overlap = None
        for arc in rest:
            term = xp.concat([head.center - arc.center,
                              head.length - arc.length], axis=-1)
            overlap = term if overlap is None else overlap + term
        # free arclength: can exceed the head input's span (lossy)
        angle = TWO_PI * xp.sigmoid(
            xp.mlp(self.length_mlp, overlap / float(len(rest))))
        return Arc(xp.wrap_angle(center), radius * angle, radius)


class LinearNegation(NegationOperator):
    """Negation without the non-linear correction network (HaLk-V2)."""

    def forward(self, arc: Arc, xp=F) -> Arc:
        return self.linear_negation(arc, xp)


class IndependentProjection(ProjectionOperator):
    """Projection learning centre and span independently (HaLk-V3).

    The centre network never sees the span and vice versa, reproducing
    the semantic gap the coordinated (start, end) pair closes.
    """

    def __init__(self, config: ModelConfig, rng: np.random.Generator):
        super().__init__(config, rng)
        d = config.embedding_dim
        self.center_only_mlp = MLP(2 * d, config.hidden_dim, d, rng=rng)
        self.length_only_mlp = MLP(d, config.hidden_dim, d, rng=rng)

    def forward(self, head: Arc, relation: Arc, xp=F) -> Arc:
        approx = self.rotate(head, relation, xp)
        return corrected_arc(
            approx, self.center_only_mlp, xp.angle_features(approx.center),
            self.length_only_mlp, approx.angle / np.pi - 1.0,
            self.config.lambda_scale, xp)


class HalkV1(HalkModel):
    """HaLk with the NewLook-style difference operator."""

    name = "HaLk-V1"

    def __init__(self, kg: KnowledgeGraph, config: ModelConfig | None = None,
                 groups: GroupAssignment | None = None):
        super().__init__(kg, config, groups)
        rng = np.random.default_rng((config or ModelConfig()).seed + 101)
        self.difference = NewLookStyleDifference(self.config, rng)


class HalkV2(HalkModel):
    """HaLk with linear-only negation."""

    name = "HaLk-V2"

    def __init__(self, kg: KnowledgeGraph, config: ModelConfig | None = None,
                 groups: GroupAssignment | None = None):
        super().__init__(kg, config, groups)
        rng = np.random.default_rng((config or ModelConfig()).seed + 102)
        self.negation = LinearNegation(self.config, rng)


class HalkV3(HalkModel):
    """HaLk with independent centre/span projection."""

    name = "HaLk-V3"

    def __init__(self, kg: KnowledgeGraph, config: ModelConfig | None = None,
                 groups: GroupAssignment | None = None):
        super().__init__(kg, config, groups)
        rng = np.random.default_rng((config or ModelConfig()).seed + 103)
        self.projection = IndependentProjection(self.config, rng)


ABLATION_VARIANTS = {
    "HaLk-V1": HalkV1,
    "HaLk-V2": HalkV2,
    "HaLk-V3": HalkV3,
}


def make_halk_variant(kg: KnowledgeGraph, variant: str,
                      config: ModelConfig | None = None) -> HalkModel:
    """Build a HaLk ablation by name (``"HaLk-V1"``/``"HaLk-V2"``/``"HaLk-V3"``)."""
    if variant == "HaLk":
        return HalkModel(kg, config)
    try:
        return ABLATION_VARIANTS[variant](kg, config)
    except KeyError:
        raise KeyError(f"unknown variant {variant!r}; "
                       f"known: ['HaLk'] + {sorted(ABLATION_VARIANTS)}") from None
