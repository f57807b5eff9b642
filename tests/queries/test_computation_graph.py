"""Tests for computation-graph node types and DNF rewriting."""

import pytest

from repro.kg import KnowledgeGraph
from repro.queries import (Difference, Entity, Intersection, Negation,
                           Projection, Union, anchors, execute, iter_nodes,
                           query_size, relations, rename, to_dnf)


class TestNodes:
    def test_nodes_are_hashable(self):
        q1 = Projection(0, Entity(1))
        q2 = Projection(0, Entity(1))
        assert q1 == q2
        assert hash(q1) == hash(q2)

    def test_intersection_arity(self):
        with pytest.raises(ValueError):
            Intersection((Entity(0),))

    def test_union_arity(self):
        with pytest.raises(ValueError):
            Union((Entity(0),))

    def test_difference_arity(self):
        with pytest.raises(ValueError):
            Difference((Entity(0),))

    def test_iter_nodes_preorder(self):
        q = Intersection((Projection(0, Entity(1)), Entity(2)))
        kinds = [type(n).__name__ for n in iter_nodes(q)]
        assert kinds == ["Intersection", "Projection", "Entity", "Entity"]

    def test_anchors_and_relations_order(self):
        q = Projection(7, Intersection((Projection(3, Entity(5)), Entity(9))))
        assert anchors(q) == [5, 9]
        assert relations(q) == [7, 3]

    def test_query_size_counts_projections(self):
        q = Projection(0, Intersection((Projection(1, Entity(0)),
                                        Negation(Projection(2, Entity(1))))))
        assert query_size(q) == 3

    def test_rename(self):
        q = Projection(0, Entity(1))
        renamed = rename(q, entity_map=lambda e: e + 10,
                         relation_map=lambda r: r + 100)
        assert renamed == Projection(100, Entity(11))


@pytest.fixture
def kg() -> KnowledgeGraph:
    # A 6-entity graph with two relations forming a small two-hop world.
    return KnowledgeGraph(6, 2, [
        (0, 0, 1), (0, 0, 2), (1, 1, 3), (2, 1, 3), (2, 1, 4), (5, 0, 4),
    ])


def answers_equal(query, kg):
    """Answers must be identical before and after DNF rewriting."""
    direct = execute(query, kg)
    via_dnf = set()
    for branch in to_dnf(query):
        via_dnf |= execute(branch, kg)
    return direct == via_dnf


class TestDNF:
    def test_entity_passthrough(self):
        assert to_dnf(Entity(3)) == [Entity(3)]

    def test_union_splits(self):
        q = Union((Entity(0), Entity(1)))
        assert to_dnf(q) == [Entity(0), Entity(1)]

    def test_projection_distributes_over_union(self):
        q = Projection(0, Union((Entity(0), Entity(1))))
        assert to_dnf(q) == [Projection(0, Entity(0)), Projection(0, Entity(1))]

    def test_intersection_cross_product(self):
        q = Intersection((Union((Entity(0), Entity(1))),
                          Union((Entity(2), Entity(3)))))
        branches = to_dnf(q)
        assert len(branches) == 4
        assert all(isinstance(b, Intersection) for b in branches)

    def test_difference_with_union_second_flattens(self, kg):
        q = Difference((Projection(0, Entity(0)),
                        Union((Entity(1), Entity(2)))))
        branches = to_dnf(q)
        assert len(branches) == 1
        assert isinstance(branches[0], Difference)
        assert len(branches[0].operands) == 3
        assert answers_equal(q, kg)

    def test_difference_with_union_first_splits(self, kg):
        q = Difference((Union((Projection(0, Entity(0)), Entity(5))),
                        Entity(1)))
        branches = to_dnf(q)
        assert len(branches) == 2
        assert answers_equal(q, kg)

    def test_negation_de_morgan(self, kg):
        q = Negation(Union((Entity(0), Entity(1))))
        branches = to_dnf(q)
        assert len(branches) == 1
        assert isinstance(branches[0], Intersection)
        assert answers_equal(q, kg)

    def test_union_free_query_is_single_branch(self):
        q = Intersection((Projection(0, Entity(0)),
                          Negation(Projection(1, Entity(1)))))
        assert to_dnf(q) == [q]

    @pytest.mark.parametrize("query", [
        Projection(1, Union((Projection(0, Entity(0)), Projection(0, Entity(5))))),
        Union((Projection(0, Entity(0)), Projection(1, Entity(2)))),
        Intersection((Union((Projection(0, Entity(0)), Entity(4))),
                      Projection(1, Entity(2)))),
    ])
    def test_dnf_preserves_semantics(self, query, kg):
        assert answers_equal(query, kg)

    def test_nested_intersections_flattened(self):
        q = Intersection((Union((Intersection((Entity(0), Entity(1))),
                                 Entity(2))),
                          Entity(3)))
        for branch in to_dnf(q):
            if isinstance(branch, Intersection):
                assert not any(isinstance(op, Intersection)
                               for op in branch.operands)


class TestDNFIsRememberedOnTheNode:
    """A training query is embedded every epoch; its rewrite runs once."""

    def query(self):
        return Projection(2, Union((Projection(0, Entity(1)),
                                    Projection(1, Entity(2)))))

    def test_rewritten_once_and_handed_out_as_fresh_lists(self, monkeypatch):
        from repro.queries import computation_graph as graph
        calls = []
        rewrite = graph._rewrite
        monkeypatch.setattr(graph, "_rewrite",
                            lambda node: calls.append(node) or rewrite(node))
        query = self.query()
        first = to_dnf(query)
        first.append("a caller's own business")
        second = to_dnf(query)
        assert sum(node is query for node in calls) == 1
        assert second == to_dnf(self.query()) and len(second) == 2

    def test_invisible_to_equality_hash_repr_and_pickle(self):
        import pickle
        plain, used = self.query(), self.query()
        to_dnf(used)
        assert used == plain and hash(used) == hash(plain)
        assert repr(used) == repr(plain)
        assert pickle.loads(pickle.dumps(used)) == plain

    def test_not_a_node_is_still_a_type_error(self):
        with pytest.raises(TypeError):
            to_dnf("2i")
