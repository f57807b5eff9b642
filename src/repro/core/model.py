"""The model protocol every method implements, and the HaLk model.

:class:`QueryModel` is the recipe the paper compares HaLk with ConE,
NewLook and MLPMix under, written once: rewrite a query into DNF
(§III-F), embed each conjunctive branch bottom-up over its computation
graph — one neural model per logical operator — and score an entity by
its distance to the nearest branch.  A method supplies the five per-node
primitives (``embed_anchor``/``embed_project``/``embed_intersect``/
``embed_difference``/``embed_negate``), its entity representation
(``_candidate_points``) and its per-branch distance
(``_branch_distance``); an operator it lacks keeps the default, which
raises :class:`UnsupportedOperatorError` — the blank cells of Tables
I–IV.  The generic trainer and evaluation protocol in
``trainer.py``/``evaluation.py`` only talk to this interface, which is
what makes the paper's comparisons apples-to-apples.

:class:`HalkModel` is the paper's model: entities are points on a circle,
queries are arcs, each logical operator has its own neural model, and
each node carries a group signature (the ξ term of Eq. 17).  Its
primitives take the array namespace ``xp`` as a trailing keyword: the
tree walk here records the tape with ``F``, the plan backend
(``repro.plan``) serves with ``repro.nn.arrays``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import ModelConfig
from ..kg.graph import KnowledgeGraph
from ..kg.groups import GroupAssignment
from ..nn import Embedding, F, Module, Tensor, arrays, no_grad
from ..obs.trace import get_tracer
from ..queries.computation_graph import (Difference, Entity, Intersection,
                                         Negation, Node, Projection, Union,
                                         structure_signature, to_dnf)
from .arc import TWO_PI, Arc, ArcRows
from .distance import distance_to_points
from .operators import (DifferenceOperator, IntersectionOperator,
                        NegationOperator, ProjectionOperator)
# Re-exported here for backwards compatibility; the helper lives in
# ``core.topk`` so the ANN indexes and the ``repro.dist`` merge can share
# it without importing the model stack.
from .topk import topk_rows

__all__ = ["QueryModel", "QueryEmbedding", "UnsupportedOperatorError",
           "HalkModel", "HalkServedEmbedding", "topk_rows"]


class UnsupportedOperatorError(NotImplementedError):
    """Raised when a model cannot embed one of the query's operators."""

    def __init__(self, model_name: str, operator: str):
        super().__init__(f"{model_name} does not support the "
                         f"{operator} operator")
        self.model_name = model_name
        self.operator = operator


@dataclass
class QueryEmbedding:
    """DNF embedding of a query batch: one value per conjunctive branch —
    whatever the method's primitives build (arcs, boxes, vectors) — and
    the union's group signature when the method has one (HaLk)."""

    branches: list
    signature: np.ndarray | None = None  # (B, G) multi-hot over groups


class QueryModel(Module):
    """The protocol every method implements, and the recipe they share:
    DNF split, bottom-up tree walk, branch-min distance."""

    #: short method name used in result tables
    name: str = "abstract"

    def __init__(self, num_entities: int, num_relations: int):
        super().__init__()
        self.num_entities = num_entities
        self.num_relations = num_relations

    # ------------------------------------------------------------------
    # embedding: the DNF split and the one tree walk
    # ------------------------------------------------------------------
    def embed_batch(self, queries: list[Node]) -> QueryEmbedding:
        """Embed same-structure queries; union handled via DNF (§III-F)."""
        if not queries:
            raise ValueError("empty query batch")
        dnf_lists = [to_dnf(query) for query in queries]
        branch_count = len(dnf_lists[0])
        if any(len(branches) != branch_count for branches in dnf_lists):
            raise ValueError("queries in a batch must share one structure")
        branches = [self._embed([dnf[index] for dnf in dnf_lists])
                    for index in range(branch_count)]
        return QueryEmbedding(branches, self.union_signature(branches))

    def _embed(self, trees: list[Node]):
        """Recursively embed a batch of isomorphic (union-free) trees:
        only the walk, each node one ``embed_*`` primitive — the training
        forward, and the oracle plan execution is held to."""
        head = trees[0]
        if isinstance(head, Entity):
            return self.embed_anchor(
                np.array([t.entity for t in trees], dtype=np.int64))
        if isinstance(head, Projection):
            return self.embed_project(
                np.array([t.relation for t in trees], dtype=np.int64),
                self._embed([t.operand for t in trees]))
        if isinstance(head, (Intersection, Difference)):
            operands = [self._embed([t.operands[i] for t in trees])
                        for i in range(len(head.operands))]
            if isinstance(head, Intersection):
                return self.embed_intersect(operands)
            return self.embed_difference(operands)
        if isinstance(head, Negation):
            return self.embed_negate(self._embed([t.operand for t in trees]))
        if isinstance(head, Union):
            raise ValueError("unions must be removed by DNF before embedding")
        raise TypeError(f"unknown node type: {type(head).__name__}")

    def union_signature(self, branches: list) -> np.ndarray | None:
        """Group signature of a DNF embedding's branches, or None."""
        return None

    def supports(self, query: Node) -> bool:
        """True when every operator in ``query`` is supported."""
        try:
            with no_grad():
                self.embed_batch([query])
            return True
        except UnsupportedOperatorError:
            return False

    # ------------------------------------------------------------------
    # the five per-node primitives; an operator a method lacks keeps
    # the default (a blank cell of Tables I–IV)
    # ------------------------------------------------------------------
    def embed_anchor(self, entity_ids):
        raise UnsupportedOperatorError(self.name, "anchor")

    def embed_project(self, relation_ids, operand):
        raise UnsupportedOperatorError(self.name, "projection")

    def embed_intersect(self, operands: list):
        raise UnsupportedOperatorError(self.name, "intersection")

    def embed_difference(self, operands: list):
        raise UnsupportedOperatorError(self.name, "difference")

    def embed_negate(self, operand):
        raise UnsupportedOperatorError(self.name, "negation")

    # ------------------------------------------------------------------
    # distances: the minimum over DNF branches (§III-G)
    # ------------------------------------------------------------------
    def _candidate_points(self, entity_ids: np.ndarray) -> Tensor:
        """Entity representations for an id array."""
        raise NotImplementedError

    def _branch_distance(self, branch, points: Tensor) -> Tensor:
        """Distance from candidate points to one conjunctive branch."""
        raise NotImplementedError

    def distance_to_entities(self, embedding,
                             entity_ids: np.ndarray) -> Tensor:
        """Distances ``(B, M)`` from per-query candidate entities."""
        entity_ids = np.asarray(entity_ids, dtype=np.int64)
        if entity_ids.ndim != 2:
            raise ValueError("entity_ids must be (B, M)")
        return self._min_over_branches(embedding,
                                       self._candidate_points(entity_ids))

    def distance_to_all(self, embedding) -> Tensor:
        """Distances ``(B, N)`` from every entity in the vocabulary."""
        all_ids = np.arange(self.num_entities, dtype=np.int64)
        return self._min_over_branches(embedding,
                                       self._candidate_points(all_ids))

    def _min_over_branches(self, embedding, points: Tensor) -> Tensor:
        best: Tensor | None = None
        for branch in embedding.branches:
            dist = self._branch_distance(branch, points)
            best = dist if best is None else F.minimum(best, dist)
        return best

    def query_signature(self, embedding) -> np.ndarray | None:
        """Multi-hot group signature ``(B, G)`` or None if unsupported."""
        return embedding.signature

    def entity_signatures(self, entity_ids: np.ndarray) -> np.ndarray | None:
        """Group one-hots for entity ids, or None if unsupported."""
        return None

    def size_penalty(self, embedding) -> "Tensor | None":
        """Mean size (span/offset/aperture) of the query embedding.

        Geometric models return a scalar Tensor used as a cardinality
        regulariser: at reproduction scale (few thousand steps instead of
        the paper's several hundred thousand) answer regions bloat to
        cover all positives before the negative pressure can shrink them;
        a small penalty on the region size restores the compact-region
        behaviour the paper reports.  Non-geometric models return None.
        """
        return None

    def embedding_parameters(self):
        """Parameters of embedding tables (entity/relation lookups).

        The trainer can give these a higher learning rate than the
        operator networks: embedding tables see each row only a few times
        per epoch, while the shared networks see every sample — the
        standard two-speed regime of KG-embedding training.
        """
        seen = set()
        for table in self.modules_of_type(Embedding):
            for param in table.parameters():
                if id(param) not in seen:
                    seen.add(id(param))
                    yield param

    def network_parameters(self):
        """All parameters that are not embedding-table rows."""
        embedding_ids = {id(p) for p in self.embedding_parameters()}
        for param in self.parameters():
            if id(param) not in embedding_ids:
                yield param

    # ------------------------------------------------------------------
    # convenience inference API (shared by all models)
    # ------------------------------------------------------------------
    def rank_all_entities(self, queries: list[Node],
                          batch_size: int = 64, ranker=None) -> np.ndarray:
        """Distance matrix ``(len(queries), N)`` without recording grads.

        With a :class:`repro.dist.ShardedRanker` the per-shard distance
        blocks are computed by the worker pool and concatenated — bitwise
        identical to the in-process pass (see DESIGN.md §7).
        """
        rows = []
        with no_grad():
            for start in range(0, len(queries), batch_size):
                chunk = queries[start:start + batch_size]
                embedding = self.embed_batch(chunk)
                if ranker is not None:
                    rows.append(ranker.distances(embedding))
                else:
                    rows.append(self.distance_to_all(embedding).data)
        return np.concatenate(rows, axis=0)

    def answer(self, query: Node, top_k: int = 10) -> list[int]:
        """Top-k candidate answers for a single query."""
        return self.answer_batch([query], top_k=top_k)[0]

    def answer_batch(self, queries: list[Node], top_k: int = 10,
                     batch_size: int = 64) -> list[list[int]]:
        """Top-k answers for many queries, in input order.

        Unlike :meth:`rank_all_entities`, the queries may mix structures:
        they are grouped by :func:`structure_signature` so every
        ``embed_batch`` call still sees one structure, and each group pays
        the embedding + distance matmuls once instead of per query.
        """
        tracer = get_tracer()
        with tracer.span("model.answer_batch", queries=len(queries)):
            groups: dict[str, list[int]] = {}
            for position, query in enumerate(queries):
                groups.setdefault(structure_signature(query),
                                  []).append(position)
            out: list[list[int]] = [[] for _ in queries]
            with no_grad():
                for positions in groups.values():
                    for start in range(0, len(positions), batch_size):
                        chunk = positions[start:start + batch_size]
                        with tracer.span("model.embed", batch=len(chunk)):
                            embedding = self.embed_batch(
                                [queries[i] for i in chunk])
                        with tracer.span("model.distance"):
                            distances = self.distance_to_all(embedding).data
                        with tracer.span("model.rank"):
                            top = topk_rows(distances, top_k)
                        for row, position in enumerate(chunk):
                            out[position] = [int(e) for e in top[row]]
            return out

    # ------------------------------------------------------------------
    # optional hooks used by the serving runtime (repro.serve)
    # ------------------------------------------------------------------
    def slice_embedding(self, embedding, index: int):
        """Single-query view of row ``index`` of a batch embedding.

        Models that support it return an embedding equivalent to
        ``embed_batch([queries[index]])``; the serving layer uses this to
        keep a per-query embedding LRU.  Default: unsupported (None).
        """
        return None

    def query_points(self, embedding) -> list[np.ndarray] | None:
        """Representative circle points of a query embedding.

        One ``(B, d)`` angle array per DNF branch, usable as probes for an
        :class:`repro.ann.LshIndex`; None when the model has no point
        geometry.
        """
        return None

    # ------------------------------------------------------------------
    # hook used by the plan compiler (repro.plan); required by serving
    # ------------------------------------------------------------------
    def plan_backend(self):
        """Stacked-execution backend for compiled plans, or None.

        An object with the ``anchor``/``project``/``intersect``/
        ``difference``/``negate``/``finalize`` primitives the plan
        executor schedules; embeddings it produces must be accepted by
        :meth:`ranking_payload` (the rank stage of every serving tier)
        and by :meth:`distance_to_all` (the oracle the equivalence suites
        hold them against).  Required by serving, as is
        :meth:`sharding_spec`: :class:`repro.serve.ServeRuntime` refuses
        (``TypeError``) a model returning the default None.  HaLk and its
        ablations return their own forward pass under the array
        namespace; the baselines (own distances, no scorer) keep the
        default and train and evaluate through :meth:`embed_batch` only.
        """
        return None

    # ------------------------------------------------------------------
    # optional hooks used by the sharded executor (repro.dist)
    # ------------------------------------------------------------------
    def sharding_spec(self):
        """Entity table + scorer — what serving ranks over — or None.

        A ``(points, scorer)`` pair: ``points`` is the ``(N, d)`` float64
        entity representation — scored as one block by in-process
        serving (:class:`repro.dist.LocalRanker`), published to shard
        workers via shared memory by :class:`repro.dist.ShardedRanker` —
        and ``scorer`` is a picklable
        :class:`repro.dist.ShardScorer` that turns a
        :meth:`ranking_payload` plus a contiguous row block of ``points``
        into a ``(B, n)`` distance block — bitwise identical to the
        corresponding columns of :meth:`distance_to_all`.
        """
        return None

    def ranking_payload(self, embedding):
        """Picklable payload a :class:`~repro.dist.ShardScorer` consumes.

        Plain-numpy snapshot of a query embedding (no autograd graph),
        small enough to ship to worker processes per batch.  None when
        the model does not support sharding.
        """
        return None


@dataclass
class HalkServedEmbedding:
    """The same embedding as serving holds it: plain arrays, no autograd.

    What a compiled plan's ``finalize`` hands the rank stage, the
    embedding LRU and the shard workers.  ``arcs`` *is* the scorer's
    payload — one ``(center, length)`` pair of ``(B, d)`` float64 arrays
    per DNF branch — so ranking reads it as it stands.
    """

    arcs: list[tuple[np.ndarray, np.ndarray]]
    signature: np.ndarray  # (B, G) multi-hot over groups
    radius: float

    @property
    def branches(self) -> list[Arc]:
        """Tensor-backed view, built on demand: the door through which
        the oracle (:meth:`HalkModel.distance_to_all`) reads a served
        embedding.  Serving itself never opens it."""
        return [Arc(Tensor(center), Tensor(length), self.radius)
                for center, length in self.arcs]


class HalkModel(QueryModel):
    """HaLk: holistic arc-embedding query answering (paper §III).

    Parameters
    ----------
    kg:
        Training graph — defines vocabularies and the group adjacency.
    config:
        Model hyper-parameters.
    groups:
        Optional precomputed group assignment (built from ``kg`` if
        omitted).
    """

    name = "HaLk"

    def __init__(self, kg: KnowledgeGraph, config: ModelConfig | None = None,
                 groups: GroupAssignment | None = None):
        config = config or ModelConfig()
        super().__init__(kg.num_entities, kg.num_relations)
        self.config = config
        self.groups = groups or GroupAssignment(kg, config.num_groups,
                                                seed=config.seed)
        rng = np.random.default_rng(config.seed)
        d = config.embedding_dim
        # entity points: angles on the circle (paper: uniform init)
        self.entity_points = Embedding(kg.num_entities, d, low=0.0,
                                       high=TWO_PI, rng=rng)
        # relation arcs: additive rotation (centre) and span adjustment
        self.relation_center = Embedding(kg.num_relations, d, low=0.0,
                                         high=TWO_PI, rng=rng)
        self.relation_length = Embedding(kg.num_relations, d, low=0.0,
                                         high=0.5, rng=rng)
        self.projection = ProjectionOperator(config, rng)
        self.intersection = IntersectionOperator(config, rng)
        self.difference = DifferenceOperator(config, rng)
        self.negation = NegationOperator(config, rng)

    # ------------------------------------------------------------------
    # the five per-node primitives — table lookup, operator network,
    # group-signature propagation — written once over the namespace
    # ``xp``: ``F`` records the tape, ``repro.nn.arrays`` serves
    # ------------------------------------------------------------------
    def embed_anchor(self, entity_ids, xp=F) -> ArcRows:
        ids = np.asarray(entity_ids, dtype=np.int64)
        points = xp.wrap_angle(self.entity_points(ids, xp=xp))
        arc = Arc.from_points(points, self.config.radius, xp)
        return arc.with_signature(self.groups.one_hot[ids].copy())

    def embed_project(self, relation_ids, operand: ArcRows,
                      xp=F) -> ArcRows:
        ids = np.asarray(relation_ids, dtype=np.int64)
        radius = self.config.radius
        relation = Arc(self.relation_center(ids, xp=xp),
                       self.relation_length(ids, xp=xp), radius)
        reached = np.einsum("bg,bgh->bh", operand.signature,
                            self.groups.adjacency[ids])
        return self.projection(operand, relation, xp=xp).with_signature(
            (reached > 0).astype(np.float64))

    def embed_intersect(self, operands: list[ArcRows], xp=F) -> ArcRows:
        sigs = [operand.signature for operand in operands]
        target_sig = sigs[0]
        for sig in sigs[1:]:
            target_sig = target_sig * sig
        # z_i = 1 / (‖h_Ui − h_Ut‖ + 1), Eq. (10)
        z = [1.0 / (np.abs(sig - target_sig).sum(axis=-1) + 1.0)
             for sig in sigs]
        return self.intersection(operands, z,
                                 xp=xp).with_signature(target_sig)

    def embed_difference(self, operands: list[ArcRows], xp=F) -> ArcRows:
        return self.difference(operands, xp=xp).with_signature(
            operands[0].signature)

    def embed_negate(self, operand: ArcRows, xp=F) -> ArcRows:
        return self.negation(operand, xp=xp).with_signature(
            np.ones_like(operand.signature))

    # ------------------------------------------------------------------
    # distances
    # ------------------------------------------------------------------
    def _candidate_points(self, entity_ids: np.ndarray) -> Tensor:
        """Wrapped point angles of ``entity_ids``.

        Wrapping is element-wise with a pass-through gradient, so it
        commutes with the row lookup bit for bit, values and gradients;
        it runs over whichever is smaller — the table (88 rows against a
        batch's 2 176 candidates) or the gathered block (a few thousand
        candidates out of 14.5k rows; on a tie too, which is
        ``distance_to_all`` looking up every entity).
        """
        table = self.entity_points.weight
        if table.shape[0] < entity_ids.size:
            return F.gather_rows(F.wrap_angle(table), entity_ids)
        return F.wrap_angle(F.gather_rows(table, entity_ids))

    def _branch_distance(self, arc: Arc, points: Tensor) -> Tensor:
        return distance_to_points(arc, points, self.config.eta)

    # ------------------------------------------------------------------
    # serving hooks
    # ------------------------------------------------------------------
    def slice_embedding(self, embedding, index: int) -> HalkServedEmbedding:
        rows = slice(index, index + 1)
        return HalkServedEmbedding(
            [(center[rows], length[rows])
             for center, length in self.ranking_payload(embedding)],
            embedding.signature[rows].copy(), self.config.radius)

    def query_points(self, embedding) -> list[np.ndarray]:
        return [np.mod(center, TWO_PI)
                for center, _ in self.ranking_payload(embedding)]

    # ------------------------------------------------------------------
    # plan-compiler hook (repro.plan)
    # ------------------------------------------------------------------
    def plan_backend(self):
        """This model's own ``embed_*`` primitives under the array
        namespace: the operator modules it holds (the Table V ablations
        swap one) are the ones served."""
        from ..plan.backend import HalkPlanBackend
        return HalkPlanBackend(self)

    # ------------------------------------------------------------------
    # sharding hooks (repro.dist)
    # ------------------------------------------------------------------
    def sharding_spec(self):
        """Wrapped entity angles + the arc-distance scorer.

        The published table applies the same ``wrap_angle`` the model's
        own ``_candidate_points`` applies, so a shard worker scoring a row
        block reproduces :meth:`distance_to_all` bit-for-bit on those
        columns.
        """
        from ..dist.scorer import ArcShardScorer
        return (arrays.wrap_angle(self.entity_points.weight.data),
                ArcShardScorer(eta=self.config.eta,
                               radius=self.config.radius))

    def ranking_payload(self, embedding):
        if isinstance(embedding, HalkServedEmbedding):
            return embedding.arcs
        return [(np.ascontiguousarray(arc.center.data),
                 np.ascontiguousarray(arc.length.data))
                for arc in embedding.branches]

    # ------------------------------------------------------------------
    # group signatures (for the ξ term of Eq. 17)
    # ------------------------------------------------------------------
    def union_signature(self, branches: list[ArcRows]) -> np.ndarray:
        """Every group some branch reaches: the union's signature."""
        signature = branches[0].signature
        for arc in branches[1:]:
            signature = np.maximum(signature, arc.signature)
        return signature

    def size_penalty(self, embedding: QueryEmbedding) -> Tensor:
        total = None
        for arc in embedding.branches:
            term = arc.angle.mean()
            total = term if total is None else total + term
        return total / float(len(embedding.branches))

    def entity_signatures(self, entity_ids: np.ndarray) -> np.ndarray:
        return self.groups.one_hot[np.asarray(entity_ids, dtype=np.int64)]
