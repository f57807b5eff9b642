"""Tests for the synthetic dataset generators and the split protocol."""

import graphlib
import hashlib

import numpy as np
import pytest

from repro.kg import (DatasetSplits, GeneratorConfig, KnowledgeGraph,
                      RelationSpec, fb15k_mini, fb237_mini, generate_kg,
                      load_dataset, make_splits, nell_mini)


class TestRelationSpec:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            RelationSpec(kind="banana")

    def test_inverse_requires_target(self):
        with pytest.raises(ValueError):
            RelationSpec(kind="inverse")


class TestGenerateKG:
    def test_deterministic_for_seed(self):
        config = GeneratorConfig("t", 50, (RelationSpec(),), seed=7)
        assert generate_kg(config).triples == generate_kg(config).triples

    def test_different_seeds_differ(self):
        base = GeneratorConfig("t", 50, (RelationSpec(),), seed=1)
        other = GeneratorConfig("t", 50, (RelationSpec(),), seed=2)
        assert generate_kg(base).triples != generate_kg(other).triples

    def test_rotation_relations_have_no_self_loops(self):
        config = GeneratorConfig("t", 60, (RelationSpec("rotation"),), seed=3)
        kg = generate_kg(config)
        assert all(h != t for h, _, t in kg)

    def test_inverse_relation_mirrors(self):
        config = GeneratorConfig(
            "t", 60,
            (RelationSpec("rotation"), RelationSpec("inverse", inverse_of=0)),
            seed=4)
        kg = generate_kg(config)
        forward = {(h, t) for h, r, t in kg if r == 0}
        backward = {(t, h) for h, r, t in kg if r == 1}
        assert forward == backward

    def test_community_links_point_to_hubs(self):
        config = GeneratorConfig("t", 80, (RelationSpec("community"),), seed=5)
        kg = generate_kg(config)
        hubs = {t for _, _, t in kg}
        assert 0 < len(hubs) <= 2 * config.num_communities

    def test_hierarchy_is_acyclic(self):
        config = GeneratorConfig("t", 80, (RelationSpec("hierarchy"),), seed=6)
        kg = generate_kg(config)
        sorter = graphlib.TopologicalSorter()
        for head, _, tail in kg:
            sorter.add(tail, head)
        order = list(sorter.static_order())  # CycleError on a cycle
        assert order and set(order) == ({h for h, _, _ in kg}
                                        | {t for _, _, t in kg})


class TestMakeSplits:
    @pytest.fixture
    def full(self) -> KnowledgeGraph:
        config = GeneratorConfig(
            "t", 100, (RelationSpec(), RelationSpec("community")), seed=0)
        return generate_kg(config)

    def test_nesting_invariant(self, full):
        splits = make_splits(full)
        assert splits.train.is_subgraph_of(splits.valid)
        assert splits.valid.is_subgraph_of(splits.test)

    def test_test_graph_is_full(self, full):
        assert make_splits(full).test.triples == full.triples

    def test_fractions_respected(self, full):
        splits = make_splits(full, train_fraction=0.7, valid_fraction=0.85)
        assert splits.train.num_triples <= splits.valid.num_triples
        assert splits.train.num_triples >= int(0.7 * full.num_triples)

    def test_every_entity_anchored_in_train(self, full):
        splits = make_splits(full)
        touched = set()
        for head, _, tail in splits.train:
            touched.add(head)
            touched.add(tail)
        reachable = {e for e in range(full.num_entities) if full.degree(e) > 0}
        assert reachable <= touched

    def test_rejects_bad_fractions(self, full):
        with pytest.raises(ValueError):
            make_splits(full, train_fraction=0.9, valid_fraction=0.5)
        with pytest.raises(ValueError):
            make_splits(full, train_fraction=0.0)

    def test_deterministic(self, full):
        a = make_splits(full, seed=3)
        b = make_splits(full, seed=3)
        assert a.train.triples == b.train.triples

    def test_splits_validation_catches_violation(self, full):
        splits = make_splits(full)
        with pytest.raises(ValueError):
            DatasetSplits("broken", train=splits.test, valid=splits.train,
                          test=splits.test)


class TestPresets:
    @pytest.mark.parametrize("builder", [fb15k_mini, fb237_mini, nell_mini])
    def test_presets_build_valid_splits(self, builder):
        splits = builder(scale=0.5)
        assert splits.train.is_subgraph_of(splits.test)
        assert splits.test.num_triples > 100

    def test_fb15k_denser_than_fb237(self):
        fb15k = fb15k_mini()
        fb237 = fb237_mini()
        assert (fb15k.test.num_triples / fb15k.test.num_entities
                > fb237.test.num_triples / fb237.test.num_entities)

    def test_nell_has_most_relations(self):
        assert (nell_mini().test.num_relations
                > fb237_mini().test.num_relations)

    def test_scale_parameter(self):
        small = fb237_mini(scale=0.5)
        large = fb237_mini(scale=1.0)
        assert small.test.num_entities < large.test.num_entities

    def test_load_dataset_by_name(self):
        splits = load_dataset("NELL", scale=0.5)
        assert splits.name == "NELL-mini"

    def test_load_dataset_unknown(self):
        with pytest.raises(KeyError):
            load_dataset("WordNet")


class TestPresetDigest:
    """Every preset graph, triple for triple and adjacency order for
    adjacency order, pinned by a sha256.

    The query sampler draws from the iteration order of the adjacency
    indexes, so a generator change that kept the triple set but moved
    that order would still re-roll every workload.  The digest covers
    ``sorted(kg.triples)`` and then, in entity/relation id order, the
    tuple order of ``in_relations``, ``out_relations``, ``sources`` and
    ``targets``."""

    DIGESTS = {
        ("FB15k", 0.4): ("adb8b42c3e6ded8ab42196a5d49cac76"
                         "3d473f8c4f4e7b2c70ff629944931b8e"),
        ("FB237", 0.4): ("20ff31f9cce9a64faa3fa0b682f9454e"
                         "cefb3fabd1d59858cb994f69f8a0a697"),
        ("NELL", 0.4): ("2445c1ff5cc7d02bcfa97dce709c4f73"
                        "ecd3c61ca74d5f6beceafc693a1e7137"),
        ("FB15k", 1.0): ("b605692fb660e3dd103c2e39e90b85a0"
                         "c7e8607494d7daf7e34acf1adfa35b65"),
        ("FB237", 1.0): ("77b001b5031f5f1deb8c8ab67a0c7898"
                         "f4254d8b6c1785e42996a026c8b33cc8"),
        ("NELL", 1.0): ("4c2ed10447768539bc03f65d95ea3201"
                        "47e43af301cf6594e4fdd935856efdf0"),
    }

    @staticmethod
    def _digest(kg: KnowledgeGraph) -> str:
        digest = hashlib.sha256(repr(sorted(kg.triples)).encode())
        for entity in range(kg.num_entities):
            digest.update(repr((tuple(kg.in_relations(entity)),
                                tuple(kg.out_relations(entity)))).encode())
            for rel in range(kg.num_relations):
                digest.update(repr((tuple(kg.sources(entity, rel)),
                                    tuple(kg.targets(entity, rel)))).encode())
        return digest.hexdigest()

    @pytest.mark.parametrize("name", ["FB15k", "FB237", "NELL"])
    @pytest.mark.parametrize("scale", [0.4, 1.0])
    def test_preset_graph_digest(self, name, scale):
        config = load_dataset(name, scale=scale, seed=0).config
        assert self._digest(generate_kg(config)) == \
            self.DIGESTS[(name, scale)]
