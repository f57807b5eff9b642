"""ConE baseline (Zhang et al., NeurIPS 2021) on the shared substrate.

Cone embeddings: each query is a product of 2-D cones, one per dimension,
parameterised by an axis angle and an aperture — geometrically the same
family as HaLk's arcs.  The differences the paper calls out (§III-G) are
exactly what this implementation preserves:

* centre and aperture are learned *independently* (no start/end pair), so
  the "semantic gap" between location and cardinality remains;
* negation is purely **linear** (axis + π, complementary aperture);
* distances use raw angle differences folded into [0, 2π), which keeps the
  0/2π seam artefact ("duality of results caused by the periodicity of the
  angle in ConE") instead of HaLk's chord lengths;
* no difference operator.
"""

from __future__ import annotations

import numpy as np

from ..config import ModelConfig
from ..core.arc import TWO_PI, Arc, angle_features
from ..core.model import QueryModel
from ..core.operators import zero_init_output
from ..kg.graph import KnowledgeGraph
from ..nn import Embedding, F, MLP, Tensor

__all__ = ["ConEModel"]


def _fold(delta):
    """Fold an angle difference into [0, π] (minimal angular distance)."""
    wrapped = F.abs_(F.wrap_angle(delta) - np.pi)
    return np.pi - wrapped


class ConEModel(QueryModel):
    """Cone-embedding query answering with linear negation."""

    name = "ConE"

    def __init__(self, kg: KnowledgeGraph, config: ModelConfig | None = None):
        config = config or ModelConfig()
        super().__init__(kg.num_entities, kg.num_relations)
        self.config = config
        rng = np.random.default_rng(config.seed)
        d = config.embedding_dim
        self.entity_points = Embedding(kg.num_entities, d, low=0.0,
                                       high=TWO_PI, rng=rng)
        self.relation_axis = Embedding(kg.num_relations, d, low=0.0,
                                       high=TWO_PI, rng=rng)
        self.relation_aperture = Embedding(kg.num_relations, d, low=0.0,
                                           high=0.5, rng=rng)
        # independent axis / aperture networks — the design HaLk §III-B
        # identifies as the source of the semantic gap
        self.axis_mlp = zero_init_output(MLP(2 * d, config.hidden_dim, d,
                                              rng=rng))
        self.aperture_mlp = zero_init_output(MLP(d, config.hidden_dim, d,
                                                 rng=rng))
        self.attention_mlp = MLP(2 * d, config.hidden_dim, d, rng=rng)
        self.aperture_inner = MLP(d, config.hidden_dim, config.hidden_dim,
                                  rng=rng)
        self.aperture_outer = MLP(config.hidden_dim, config.hidden_dim, d,
                                  rng=rng)

    # ------------------------------------------------------------------
    # operator primitives
    # ------------------------------------------------------------------
    def embed_anchor(self, entity_ids: np.ndarray) -> Arc:
        points = F.wrap_angle(self.entity_points(entity_ids))
        return Arc.from_points(points, self.config.radius)

    def embed_project(self, relation_ids: np.ndarray, operand: Arc) -> Arc:
        radius = self.config.radius
        axis = operand.center + self.relation_axis(relation_ids)
        aperture = F.clip(operand.angle + self.relation_aperture(relation_ids),
                          0.0, TWO_PI)
        # independent refinement of axis and aperture
        axis = F.wrap_angle(axis + np.pi * F.tanh(
            self.axis_mlp(angle_features(axis))))
        aperture = F.clip(aperture + np.pi * F.tanh(
            self.aperture_mlp(aperture / np.pi - 1.0)), 0.0, TWO_PI)
        return Arc(axis, radius * aperture, radius)

    def embed_intersect(self, operands: list[Arc]) -> Arc:
        radius = operands[0].radius
        # SemanticAverage on axes (attention over axis features only)
        scores = [self.attention_mlp(angle_features(arc.center))
                  for arc in operands]
        weights = F.softmax(F.stack(scores, axis=0), axis=0)
        x_avg: Tensor | None = None
        y_avg: Tensor | None = None
        for index, arc in enumerate(operands):
            w = weights[index]
            x_i = w * F.cos(arc.center)
            y_i = w * F.sin(arc.center)
            x_avg = x_i if x_avg is None else x_avg + x_i
            y_avg = y_i if y_avg is None else y_avg + y_i
        axis = F.wrap_angle(F.arctan2(y_avg, x_avg))
        # CardMin on apertures
        encoded: Tensor | None = None
        min_aperture: Tensor | None = None
        for arc in operands:
            item = self.aperture_inner(arc.angle / np.pi - 1.0)
            encoded = item if encoded is None else encoded + item
            min_aperture = arc.angle if min_aperture is None \
                else F.minimum(min_aperture, arc.angle)
        shrink = F.sigmoid(self.aperture_outer(encoded / float(len(operands))))
        return Arc(axis, radius * min_aperture * shrink, radius)

    def embed_negate(self, operand: Arc) -> Arc:
        # purely linear: antipodal axis, complementary aperture
        axis = F.wrap_angle(operand.center + np.pi)
        length = TWO_PI * operand.radius - operand.length
        return Arc(axis, length, operand.radius)

    # ------------------------------------------------------------------
    # distance: raw folded angles (keeps ConE's periodicity seam)
    # ------------------------------------------------------------------
    def _candidate_points(self, entity_ids: np.ndarray) -> Tensor:
        points = F.wrap_angle(self.entity_points(entity_ids))
        if points.ndim == 2:
            n, d = points.shape
            points = points.reshape(1, n, d)
        return points

    def _branch_distance(self, branch: Arc, points: Tensor) -> Tensor:
        center = F.wrap_angle(branch.center).reshape(branch.batch_size, 1,
                                                     branch.dim)
        half = branch.half_angle.reshape(branch.batch_size, 1, branch.dim)
        start = center - half
        end = center + half
        # folded angular metric min(|Δ|, 2π−|Δ|): a true metric on the
        # circle, but linear in the angle rather than HaLk's chord — the
        # representational difference §III-G highlights
        outside = F.minimum(_fold(points - start), _fold(points - end))
        inside_mask = (np.abs(points.data - center.data) <= half.data + 1e-12)
        outside = F.where(inside_mask, Tensor(np.zeros(outside.shape)), outside)
        inside = F.minimum(_fold(points - center), half)
        return outside.sum(axis=-1) + self.config.eta * inside.sum(axis=-1)
