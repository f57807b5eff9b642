"""Unit tests for the KnowledgeGraph core."""

import numpy as np
import pytest

from repro.kg import KnowledgeGraph


@pytest.fixture
def small_kg() -> KnowledgeGraph:
    # 0 --r0--> 1 --r0--> 2 ; 0 --r1--> 2 ; 3 --r1--> 2
    return KnowledgeGraph(4, 2, [(0, 0, 1), (1, 0, 2), (0, 1, 2), (3, 1, 2)])


class TestConstruction:
    def test_rejects_empty_vocabularies(self):
        with pytest.raises(ValueError):
            KnowledgeGraph(0, 1, [])
        with pytest.raises(ValueError):
            KnowledgeGraph(1, 0, [])

    def test_rejects_out_of_range_entity(self):
        with pytest.raises(ValueError):
            KnowledgeGraph(2, 1, [(0, 0, 5)])

    def test_rejects_out_of_range_relation(self):
        with pytest.raises(ValueError):
            KnowledgeGraph(2, 1, [(0, 3, 1)])

    def test_deduplicates_triples(self):
        kg = KnowledgeGraph(2, 1, [(0, 0, 1), (0, 0, 1)])
        assert kg.num_triples == 1

    def test_default_names(self):
        kg = KnowledgeGraph(2, 1, [])
        assert kg.entity_names == ["e0", "e1"]
        assert kg.relation_names == ["r0"]

    def test_name_length_validation(self):
        with pytest.raises(ValueError):
            KnowledgeGraph(2, 1, [], entity_names=["only-one"])
        with pytest.raises(ValueError):
            KnowledgeGraph(2, 1, [], relation_names=["a", "b"])


class TestAccessors:
    def test_has_fact(self, small_kg):
        assert small_kg.has_fact(0, 0, 1)
        assert not small_kg.has_fact(1, 0, 0)

    def test_contains_and_iter(self, small_kg):
        assert (0, 0, 1) in small_kg
        assert set(small_kg) == small_kg.triples

    def test_len(self, small_kg):
        assert len(small_kg) == 4

    def test_targets(self, small_kg):
        assert small_kg.targets(0, 0) == {1}
        assert small_kg.targets(0, 1) == {2}
        assert small_kg.targets(2, 0) == frozenset()

    def test_sources(self, small_kg):
        assert small_kg.sources(2, 1) == {0, 3}

    def test_project_unions_over_heads(self, small_kg):
        assert small_kg.project([0, 1], 0) == {1, 2}

    def test_relation_pairs(self, small_kg):
        assert small_kg.relation_pairs(1) == {(0, 2), (3, 2)}

    def test_out_in_relations(self, small_kg):
        assert small_kg.out_relations(0) == {0, 1}
        assert small_kg.in_relations(2) == {0, 1}

    def test_degree(self, small_kg):
        assert small_kg.degree(2) == 3  # in: r0 from 1, r1 from 0 and 3
        assert small_kg.degree(0) == 2

    def test_entities_with_out_relation(self, small_kg):
        assert small_kg.entities_with_out_relation(1) == {0, 3}


class TestDerivedGraphs:
    def test_induced_subgraph_keeps_vocab(self, small_kg):
        sub = small_kg.induced_subgraph({0, 1, 2})
        assert sub.num_entities == 4  # vocabulary preserved
        assert sub.triples == {(0, 0, 1), (1, 0, 2), (0, 1, 2)}

    def test_induced_subgraph_empty(self, small_kg):
        assert small_kg.induced_subgraph(set()).num_triples == 0

    def test_merge(self, small_kg):
        other = KnowledgeGraph(4, 2, [(2, 0, 3)])
        merged = small_kg.merge(other)
        assert merged.num_triples == 5
        assert small_kg.is_subgraph_of(merged)

    def test_merge_rejects_vocab_mismatch(self, small_kg):
        with pytest.raises(ValueError):
            small_kg.merge(KnowledgeGraph(5, 2, []))

    def test_is_subgraph_of(self, small_kg):
        sub = KnowledgeGraph(4, 2, [(0, 0, 1)])
        assert sub.is_subgraph_of(small_kg)
        assert not small_kg.is_subgraph_of(sub)
