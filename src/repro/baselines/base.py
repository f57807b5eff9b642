"""Shared machinery for the baseline query-embedding models.

Every baseline (ConE, NewLook, MLPMix) follows the same recipe the paper
describes: embed the computation graph bottom-up with one neural model per
operator, answer unions through DNF, and rank entities by a distance
function.  :class:`BranchEmbeddingModel` implements the recursion once;
subclasses provide the per-operator hooks and the distance.

Baselines differ in *which* operators they support (Tables I–IV leave the
unsupported cells blank): NewLook has no negation, ConE and MLPMix have no
difference.  Embedding an unsupported tree raises
:class:`UnsupportedOperatorError`, which the benchmark harness turns into
the paper's "-" cells.
"""

from __future__ import annotations

import numpy as np

from ..core.model import QueryModel
from ..nn import F, Tensor, no_grad
from ..queries.computation_graph import (Difference, Entity, Intersection,
                                         Negation, Node, Projection, Union,
                                         to_dnf)
from ..queries.dataset import QueryWorkload

__all__ = ["UnsupportedOperatorError", "supported_workload",
           "BranchEmbeddingModel", "BranchQueryEmbedding"]


class UnsupportedOperatorError(NotImplementedError):
    """Raised when a model cannot embed one of the query's operators."""

    def __init__(self, model_name: str, operator: str):
        super().__init__(f"{model_name} does not support the {operator} operator")
        self.model_name = model_name
        self.operator = operator


def supported_workload(model: QueryModel,
                       workload: QueryWorkload) -> QueryWorkload:
    """The structures of ``workload`` whose operators ``model`` has (the
    filled cells of Tables I–IV), in workload order.  A structure's
    queries share their operators, so one per structure is probed."""
    out = QueryWorkload()
    with no_grad():
        for structure in workload.structures():
            queries = workload[structure]
            try:
                model.embed_batch([queries[0].query])
            except UnsupportedOperatorError:
                continue
            for query in queries:
                out.add(query)
    return out


class BranchQueryEmbedding:
    """DNF embedding: one backend-specific embedding per conjunctive branch."""

    def __init__(self, branches: list):
        self.branches = branches


class BranchEmbeddingModel(QueryModel):
    """Base class implementing the DNF + bottom-up embedding recursion."""

    def embed_batch(self, queries: list[Node]) -> BranchQueryEmbedding:
        if not queries:
            raise ValueError("empty query batch")
        dnf_lists = [to_dnf(query) for query in queries]
        branch_count = len(dnf_lists[0])
        if any(len(branches) != branch_count for branches in dnf_lists):
            raise ValueError("queries in a batch must share one structure")
        branches = []
        for index in range(branch_count):
            trees = [branches_i[index] for branches_i in dnf_lists]
            branches.append(self._embed(trees))
        return BranchQueryEmbedding(branches)

    def _embed(self, trees: list[Node]):
        head = trees[0]
        if isinstance(head, Entity):
            ids = np.array([t.entity for t in trees], dtype=np.int64)
            return self._embed_entity(ids)
        if isinstance(head, Projection):
            child = self._embed([t.operand for t in trees])
            rel_ids = np.array([t.relation for t in trees], dtype=np.int64)
            return self._embed_projection(child, rel_ids)
        if isinstance(head, Intersection):
            parts = [self._embed([t.operands[i] for t in trees])
                     for i in range(len(head.operands))]
            return self._embed_intersection(parts)
        if isinstance(head, Difference):
            parts = [self._embed([t.operands[i] for t in trees])
                     for i in range(len(head.operands))]
            return self._embed_difference(parts)
        if isinstance(head, Negation):
            child = self._embed([t.operand for t in trees])
            return self._embed_negation(child)
        if isinstance(head, Union):
            raise ValueError("unions must be removed by DNF before embedding")
        raise TypeError(f"unknown node type: {type(head).__name__}")

    # ------------------------------------------------------------------
    # per-operator hooks (subclasses override the supported ones)
    # ------------------------------------------------------------------
    def _embed_entity(self, ids: np.ndarray):
        raise NotImplementedError

    def _embed_projection(self, child, rel_ids: np.ndarray):
        raise NotImplementedError

    def _embed_intersection(self, parts: list):
        raise NotImplementedError

    def _embed_difference(self, parts: list):
        raise UnsupportedOperatorError(self.name, "difference")

    def _embed_negation(self, child):
        raise UnsupportedOperatorError(self.name, "negation")

    # ------------------------------------------------------------------
    # distances
    # ------------------------------------------------------------------
    def _branch_distance(self, branch, points: Tensor) -> Tensor:
        """Distance from candidate points to one conjunctive branch."""
        raise NotImplementedError

    def _candidate_points(self, entity_ids: np.ndarray) -> Tensor:
        """Entity representations for the given id array."""
        raise NotImplementedError

    def distance_to_entities(self, embedding: BranchQueryEmbedding,
                             entity_ids: np.ndarray) -> Tensor:
        entity_ids = np.asarray(entity_ids, dtype=np.int64)
        if entity_ids.ndim != 2:
            raise ValueError("entity_ids must be (B, M)")
        points = self._candidate_points(entity_ids)
        return self._min_over_branches(embedding, points)

    def distance_to_all(self, embedding: BranchQueryEmbedding) -> Tensor:
        all_ids = np.arange(self.num_entities, dtype=np.int64)
        points = self._candidate_points(all_ids)
        return self._min_over_branches(embedding, points)

    def _min_over_branches(self, embedding: BranchQueryEmbedding,
                           points: Tensor) -> Tensor:
        best: Tensor | None = None
        for branch in embedding.branches:
            dist = self._branch_distance(branch, points)
            best = dist if best is None else F.minimum(best, dist)
        return best

    # ------------------------------------------------------------------
    def supports(self, query: Node) -> bool:
        """True when every operator in ``query`` is supported."""
        try:
            with no_grad():
                self.embed_batch([query])
            return True
        except UnsupportedOperatorError:
            return False
