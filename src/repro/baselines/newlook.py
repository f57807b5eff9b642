"""NewLook baseline (Liu et al., KDD 2021) on the shared substrate.

Box embeddings in ℝ^d (Query2Box geometry): a query is an axis-aligned
hyper-rectangle (centre, non-negative offset); entities are points.
NewLook extends Query2Box with a *difference* operator learned by
raw-value attention — which is exactly the design the paper criticises:

* the difference of two boxes is generally **not** a box, so the learned
  box either includes false positives or drops true answers (the
  "fixed-lossy" problem, §III-C, Fig. 5);
* attention operates on raw coordinate values, which is fine in ℝ^d but
  does not transfer to rotational backbones;
* there is **no** negation operator (no universal set in box space).
"""

from __future__ import annotations

import numpy as np

from ..config import ModelConfig
from ..core.model import QueryModel
from ..kg.graph import KnowledgeGraph
from ..nn import Embedding, F, MLP, Tensor

__all__ = ["Box", "NewLookModel"]


class Box:
    """A batch of axis-aligned boxes: centre ``(B, d)``, offset ``(B, d) ≥ 0``."""

    def __init__(self, center: Tensor, offset: Tensor):
        if center.shape != offset.shape:
            raise ValueError("center/offset shape mismatch")
        self.center = center
        self.offset = offset

    @property
    def batch_size(self) -> int:
        return self.center.shape[0]

    @property
    def dim(self) -> int:
        return self.center.shape[-1]

    @staticmethod
    def from_points(points: Tensor) -> "Box":
        return Box(points, Tensor(np.zeros(points.shape)))


class NewLookModel(QueryModel):
    """Box-embedding query answering with a (lossy) difference operator."""

    name = "NewLook"

    def __init__(self, kg: KnowledgeGraph, config: ModelConfig | None = None):
        config = config or ModelConfig()
        super().__init__(kg.num_entities, kg.num_relations)
        self.config = config
        rng = np.random.default_rng(config.seed)
        d = config.embedding_dim
        self.entity_points = Embedding(kg.num_entities, d, low=-1.0, high=1.0,
                                       rng=rng)
        self.relation_center = Embedding(kg.num_relations, d, low=-1.0,
                                         high=1.0, rng=rng)
        self.relation_offset = Embedding(kg.num_relations, d, low=0.0,
                                         high=0.3, rng=rng)
        self.center_mlp = MLP(2 * d, config.hidden_dim, d, rng=rng)
        self.offset_mlp = MLP(2 * d, config.hidden_dim, d, rng=rng)
        self.attention_mlp = MLP(2 * d, config.hidden_dim, d, rng=rng)
        self.shrink_inner = MLP(2 * d, config.hidden_dim, config.hidden_dim,
                                rng=rng)
        self.shrink_outer = MLP(config.hidden_dim, config.hidden_dim, d,
                                rng=rng)
        self.diff_attention = MLP(2 * d, config.hidden_dim, d, rng=rng)
        self.diff_shrink = MLP(2 * d, config.hidden_dim, d, rng=rng)

    # ------------------------------------------------------------------
    # operator primitives
    # ------------------------------------------------------------------
    def embed_anchor(self, entity_ids: np.ndarray) -> Box:
        return Box.from_points(self.entity_points(entity_ids))

    def embed_project(self, relation_ids: np.ndarray, operand: Box) -> Box:
        center = operand.center + self.relation_center(relation_ids)
        offset = operand.offset + self.relation_offset(relation_ids)
        features = F.concat([center, offset], axis=-1)
        center = center + F.tanh(self.center_mlp(features))
        offset = F.relu(offset + F.tanh(self.offset_mlp(features)))
        return Box(center, offset)

    def embed_intersect(self, operands: list[Box]) -> Box:
        # raw-value attention over centres (Query2Box / NewLook style)
        scores = [self.attention_mlp(F.concat([box.center, box.offset], axis=-1))
                  for box in operands]
        weights = F.softmax(F.stack(scores, axis=0), axis=0)
        center: Tensor | None = None
        for index, box in enumerate(operands):
            term = weights[index] * box.center
            center = term if center is None else center + term
        encoded: Tensor | None = None
        min_offset: Tensor | None = None
        for box in operands:
            item = self.shrink_inner(F.concat([box.center, box.offset], axis=-1))
            encoded = item if encoded is None else encoded + item
            min_offset = box.offset if min_offset is None \
                else F.minimum(min_offset, box.offset)
        shrink = F.sigmoid(self.shrink_outer(encoded / float(len(operands))))
        return Box(center, min_offset * shrink)

    def embed_difference(self, operands: list[Box]) -> Box:
        """NewLook's lossy difference: attention-shifted centre, shrunk box.

        The output is forced to be a *single* box even though the true
        difference region is not one — the fixed-lossy behaviour of
        Fig. 5(a) in the paper.
        """
        head, rest = operands[0], operands[1:]
        scores = [self.diff_attention(F.concat([box.center, box.offset], axis=-1))
                  for box in operands]
        weights = F.softmax(F.stack(scores, axis=0), axis=0)
        center: Tensor | None = None
        for index, box in enumerate(operands):
            term = weights[index] * box.center
            center = term if center is None else center + term
        overlap: Tensor | None = None
        for box in rest:
            term = F.concat([head.center - box.center,
                             head.offset - box.offset], axis=-1)
            overlap = term if overlap is None else overlap + term
        shrink = F.sigmoid(self.diff_shrink(overlap / float(len(rest))))
        return Box(center, head.offset * shrink)

    # ------------------------------------------------------------------
    # Query2Box distance
    # ------------------------------------------------------------------
    def _candidate_points(self, entity_ids: np.ndarray) -> Tensor:
        points = self.entity_points(entity_ids)
        if points.ndim == 2:
            n, d = points.shape
            points = points.reshape(1, n, d)
        return points

    def _branch_distance(self, branch: Box, points: Tensor) -> Tensor:
        center = branch.center.reshape(branch.batch_size, 1, branch.dim)
        offset = branch.offset.reshape(branch.batch_size, 1, branch.dim)
        gap = F.abs_(points - center) - offset
        outside = F.relu(gap)
        inside = F.minimum(F.abs_(points - center), offset)
        return outside.sum(axis=-1) + self.config.eta * inside.sum(axis=-1)
