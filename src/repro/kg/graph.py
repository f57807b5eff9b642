"""Knowledge-graph core: vocabularies, triple store, adjacency indexes.

A knowledge graph is ``G = {V, R, T}`` (paper §II-A): an entity set, a
relation set, and a set of ``(head, relation, tail)`` fact triples.  This
module stores triples with integer ids and maintains the adjacency indexes
every other subsystem needs:

* forward index ``(h, r) -> {t}`` — drives projection and traversal,
* backward index ``(t, r) -> {h}`` — drives inverse traversal and matching,
* per-relation pair set — drives fast fact checks ``a_r(h, t)``.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, Iterator, Sequence

__all__ = ["Triple", "KnowledgeGraph"]

Triple = tuple[int, int, int]


class KnowledgeGraph:
    """An immutable-after-construction knowledge graph with fast indexes.

    Parameters
    ----------
    num_entities, num_relations:
        Sizes of the entity and relation vocabularies (ids are dense
        integers ``0..n-1``).
    triples:
        Iterable of ``(head, relation, tail)`` integer triples.
    entity_names, relation_names:
        Optional human-readable names, index-aligned with the ids.
    """

    def __init__(self, num_entities: int, num_relations: int,
                 triples: Iterable[Triple],
                 entity_names: Sequence[str] | None = None,
                 relation_names: Sequence[str] | None = None):
        if num_entities <= 0 or num_relations <= 0:
            raise ValueError("graph needs at least one entity and one relation")
        self.num_entities = num_entities
        self.num_relations = num_relations
        self.entity_names = (list(entity_names) if entity_names is not None
                             else [f"e{i}" for i in range(num_entities)])
        self.relation_names = (list(relation_names) if relation_names is not None
                               else [f"r{i}" for i in range(num_relations)])
        if len(self.entity_names) != num_entities:
            raise ValueError("entity_names length must match num_entities")
        if len(self.relation_names) != num_relations:
            raise ValueError("relation_names length must match num_relations")

        self._triples: set[Triple] = set()
        self._out: dict[tuple[int, int], set[int]] = defaultdict(set)
        self._in: dict[tuple[int, int], set[int]] = defaultdict(set)
        self._rel_pairs: dict[int, set[tuple[int, int]]] = defaultdict(set)
        self._out_rels: dict[int, set[int]] = defaultdict(set)
        self._in_rels: dict[int, set[int]] = defaultdict(set)
        for head, rel, tail in triples:
            self._add(int(head), int(rel), int(tail))

    def _add(self, head: int, rel: int, tail: int) -> None:
        if not (0 <= head < self.num_entities and 0 <= tail < self.num_entities):
            raise ValueError(f"entity id out of range in triple {(head, rel, tail)}")
        if not 0 <= rel < self.num_relations:
            raise ValueError(f"relation id out of range in triple {(head, rel, tail)}")
        triple = (head, rel, tail)
        if triple in self._triples:
            return
        self._triples.add(triple)
        self._out[(head, rel)].add(tail)
        self._in[(tail, rel)].add(head)
        self._rel_pairs[rel].add((head, tail))
        self._out_rels[head].add(rel)
        self._in_rels[tail].add(rel)

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def triples(self) -> frozenset[Triple]:
        """All fact triples as a frozen set."""
        return frozenset(self._triples)

    @property
    def num_triples(self) -> int:
        return len(self._triples)

    def __len__(self) -> int:
        return len(self._triples)

    def __contains__(self, triple: Triple) -> bool:
        return tuple(triple) in self._triples

    def __iter__(self) -> Iterator[Triple]:
        return iter(self._triples)

    def has_fact(self, head: int, rel: int, tail: int) -> bool:
        """The binary relational function ``a_r(h, t)`` of the paper."""
        return (head, rel, tail) in self._triples

    def targets(self, head: int, rel: int) -> frozenset[int]:
        """All tails ``t`` with ``(head, rel, t)`` a fact."""
        return frozenset(self._out.get((head, rel), ()))

    def sources(self, tail: int, rel: int) -> frozenset[int]:
        """All heads ``h`` with ``(h, rel, tail)`` a fact."""
        return frozenset(self._in.get((tail, rel), ()))

    def project(self, heads: Iterable[int], rel: int) -> set[int]:
        """Set-semantics projection: union of targets over ``heads``."""
        out: set[int] = set()
        for head in heads:
            out |= self._out.get((head, rel), set())
        return out

    def relation_pairs(self, rel: int) -> frozenset[tuple[int, int]]:
        """All (head, tail) pairs connected by ``rel``."""
        return frozenset(self._rel_pairs.get(rel, ()))

    def out_relations(self, head: int) -> frozenset[int]:
        """Relations with at least one outgoing edge from ``head``."""
        return frozenset(self._out_rels.get(head, ()))

    def in_relations(self, tail: int) -> frozenset[int]:
        """Relations with at least one incoming edge into ``tail``."""
        return frozenset(self._in_rels.get(tail, ()))

    def degree(self, entity: int) -> int:
        """Total (in + out) degree of an entity."""
        out_deg = sum(len(self._out.get((entity, r), ()))
                      for r in self._out_rels.get(entity, ()))
        in_deg = sum(len(self._in.get((entity, r), ()))
                     for r in self._in_rels.get(entity, ()))
        return out_deg + in_deg

    def entities_with_out_relation(self, rel: int) -> set[int]:
        """Heads that have at least one ``rel`` edge."""
        return {h for h, _ in self._rel_pairs.get(rel, ())}

    # ------------------------------------------------------------------
    # derived graphs
    # ------------------------------------------------------------------
    def induced_subgraph(self, entities: Iterable[int]) -> "KnowledgeGraph":
        """Subgraph keeping only triples whose endpoints are in ``entities``.

        Entity/relation vocabularies (and ids) are preserved so embeddings
        and query structures remain valid on the subgraph — this is what
        the HaLk-pruning pipeline (§IV-D) relies on.
        """
        keep = set(entities)
        triples = [t for t in self._triples if t[0] in keep and t[2] in keep]
        return KnowledgeGraph(self.num_entities, self.num_relations, triples,
                              self.entity_names, self.relation_names)

    def merge(self, other: "KnowledgeGraph") -> "KnowledgeGraph":
        """Union of the two triple sets (vocabularies must match)."""
        if (self.num_entities != other.num_entities
                or self.num_relations != other.num_relations):
            raise ValueError("cannot merge graphs over different vocabularies")
        return KnowledgeGraph(self.num_entities, self.num_relations,
                              self._triples | other._triples,
                              self.entity_names, self.relation_names)

    def is_subgraph_of(self, other: "KnowledgeGraph") -> bool:
        """True when every triple of self appears in ``other``."""
        return self._triples <= other._triples

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"KnowledgeGraph(entities={self.num_entities}, "
                f"relations={self.num_relations}, triples={self.num_triples})")
