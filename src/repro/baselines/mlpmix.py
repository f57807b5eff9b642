"""MLPMix baseline (Amayuelas et al., ICLR 2022) on the shared substrate.

The non-geometric baseline: queries and entities are plain vectors in ℝ^d
and every logical operator is an MLP.  There is no notion of answer-set
cardinality (no span/offset), which is the property the paper credits for
geometric methods' advantage (§IV-B observation 4).

* projection: ``q' = MLP(q ‖ r)``
* intersection: permutation-invariant MLP mixer (mean of encoded inputs)
* negation: ``q' = MLP(q)`` — a learned (linear-assumption) map
* union: DNF; difference: unsupported.
"""

from __future__ import annotations

import numpy as np

from ..config import ModelConfig
from ..core.model import QueryModel
from ..kg.graph import KnowledgeGraph
from ..nn import Embedding, F, MLP, Tensor

__all__ = ["MLPMixModel"]


class MLPMixModel(QueryModel):
    """Pure-MLP query answering over vector embeddings."""

    name = "MLPMix"

    def __init__(self, kg: KnowledgeGraph, config: ModelConfig | None = None):
        config = config or ModelConfig()
        super().__init__(kg.num_entities, kg.num_relations)
        self.config = config
        rng = np.random.default_rng(config.seed)
        d = config.embedding_dim
        self.entity_vectors = Embedding(kg.num_entities, d, low=-1.0, high=1.0,
                                        rng=rng)
        self.relation_vectors = Embedding(kg.num_relations, d, low=-1.0,
                                          high=1.0, rng=rng)
        # the original model is a deep MLP-Mixer stack — substantially
        # heavier than the geometric methods' shallow operator nets, which
        # is also why MLPMix has the largest offline cost in Fig. 6b
        wide = 4 * config.hidden_dim
        self.projection_mlp = MLP(2 * d, wide, d, num_hidden_layers=3,
                                  rng=rng)
        self.mix_inner = MLP(d, wide, wide, num_hidden_layers=2, rng=rng)
        self.mix_outer = MLP(wide, wide, d, num_hidden_layers=2, rng=rng)
        self.negation_mlp = MLP(d, wide, d, num_hidden_layers=2, rng=rng)

    # ------------------------------------------------------------------
    # operator primitives
    # ------------------------------------------------------------------
    def embed_anchor(self, entity_ids: np.ndarray) -> Tensor:
        return self.entity_vectors(entity_ids)

    def embed_project(self, relation_ids: np.ndarray,
                      operand: Tensor) -> Tensor:
        # plain MLP (no residual) — the original design, and the source of
        # the cascading error the paper's §III-B analyses
        relation = self.relation_vectors(relation_ids)
        return self.projection_mlp(F.concat([operand, relation], axis=-1))

    def embed_intersect(self, operands: list[Tensor]) -> Tensor:
        encoded: Tensor | None = None
        for operand in operands:
            item = self.mix_inner(operand)
            encoded = item if encoded is None else encoded + item
        return self.mix_outer(encoded / float(len(operands)))

    def embed_negate(self, operand: Tensor) -> Tensor:
        return self.negation_mlp(operand)

    # ------------------------------------------------------------------
    # L1 distance in vector space
    # ------------------------------------------------------------------
    def _candidate_points(self, entity_ids: np.ndarray) -> Tensor:
        points = self.entity_vectors(entity_ids)
        if points.ndim == 2:
            n, d = points.shape
            points = points.reshape(1, n, d)
        return points

    def _branch_distance(self, branch: Tensor, points: Tensor) -> Tensor:
        query = branch.reshape(branch.shape[0], 1, branch.shape[-1])
        return F.abs_(points - query).sum(axis=-1)
