"""Lowering, cross-query CSE accounting, and the template cache."""

import pytest

from repro.plan import (AnchorOp, Plan, PlanCompiler, ProjectOp, RankOp,
                        execute_symbolic, instantiate, lower, lower_template,
                        plan_to_json, render_plan, schedule)
from repro.plan.compiler import _Builder
from repro.queries import (Difference, Entity, Intersection, Projection,
                           Union)
from repro.serve.canonical import canonicalize

pytestmark = pytest.mark.plan


def p(rel, node):
    return Projection(rel, node)


def i(*ops):
    return Intersection(tuple(ops))


class TestLowering:
    def test_single_projection_chain(self):
        plan = lower([p(1, p(0, Entity(5)))])
        kinds = [type(op).__name__ for op in plan.ops]
        assert kinds == ["AnchorOp", "ProjectOp", "ProjectOp", "RankOp"]
        assert plan.roots == [3]
        assert plan.ops_saved == 0

    def test_dnf_splits_union_into_branches(self):
        plan = lower([Union((p(0, Entity(1)), p(1, Entity(2))))])
        root = plan.ops[plan.roots[0]]
        assert isinstance(root, RankOp)
        assert len(root.branches) == 2

    def test_non_dnf_keeps_union_op(self):
        plan = lower([Union((p(0, Entity(1)), p(1, Entity(2))))], dnf=False)
        assert any(type(op).__name__ == "UnionOp" for op in plan.ops)
        assert len(plan.ops[plan.roots[0]].branches) == 1

    def test_ssa_validation_rejects_forward_reference(self):
        with pytest.raises(ValueError, match="SSA"):
            Plan([ProjectOp(0, 1), AnchorOp(3), RankOp((0,))], [2])

    def test_root_must_be_rank(self):
        with pytest.raises(ValueError, match="RankOp"):
            Plan([AnchorOp(3)], [0])


class TestCse:
    def test_shared_prefix_computed_once(self):
        shared = p(0, Entity(7))
        queries = [i(shared, p(1, Entity(2))), i(shared, p(2, Entity(3))),
                   p(3, shared)]
        plan = lower(queries)
        # the shared anchor+projection appear once each
        anchors = [op for op in plan.ops if isinstance(op, AnchorOp)]
        assert len([a for a in anchors if a.entity == 7]) == 1
        projections = [op for op in plan.ops
                       if isinstance(op, ProjectOp)]
        assert len([pr for pr in projections
                    if pr.relation == 0]) == 1
        # 3 isolated queries = 6 + 6 + 4 = 16 pre-CSE ops; the shared
        # anchor+projection are deduplicated in queries 2 and 3
        assert plan.ops_total == 16
        assert plan.ops_saved == 4

    def test_identical_queries_share_everything_but_rank(self):
        query = p(0, Entity(4))
        plan = lower([query, query, query])
        ranks = [op for op in plan.ops if isinstance(op, RankOp)]
        assert len(ranks) == 3  # every caller gets an answer
        assert len(plan.ops) == 2 + 3  # anchor + project shared
        assert plan.ops_saved == (3 * 3) - 5

    def test_no_sharing_across_distinct_groundings(self):
        plan = lower([p(0, Entity(1)), p(0, Entity(2))])
        assert plan.ops_saved == 0

    def test_use_counts_mark_shared_values(self):
        shared = p(0, Entity(7))
        plan = lower([i(shared, p(1, Entity(2))), p(3, shared)])
        uses = plan.use_counts()
        shared_value = next(index for index, op in enumerate(plan.ops)
                            if isinstance(op, ProjectOp)
                            and op.relation == 0)
        assert uses[shared_value] == 2


class TestTemplates:
    def test_template_grounds_back_to_original(self, kg):
        query = canonicalize(i(p(0, Entity(7)), p(1, Entity(9))))
        template = lower_template(query)
        assert template.num_anchor_slots == 2
        assert template.num_relation_slots == 2
        from repro.queries import anchors, relations
        builder = _Builder()
        instantiate(template, anchors(query), relations(query), builder)
        plan = builder.plan()
        direct = lower([query], canonical=True)
        assert execute_symbolic(plan, kg) == execute_symbolic(direct, kg)

    def test_instantiate_rejects_slot_mismatch(self):
        template = lower_template(canonicalize(p(0, Entity(1))))
        with pytest.raises(ValueError, match="anchors"):
            instantiate(template, [1, 2], [0], _Builder())

    def test_difference_head_slot_stays_first(self, kg):
        # Difference is not commutative: the head operand must ground
        # into the head slot even after canonical tail sorting.
        query = canonicalize(Difference((p(0, Entity(3)), p(1, Entity(5)))))
        template = lower_template(query)
        from repro.queries import anchors, relations
        builder = _Builder()
        instantiate(template, anchors(query), relations(query), builder)
        assert execute_symbolic(builder.plan(), kg) \
            == execute_symbolic(lower([query], canonical=True), kg)


class TestPlanCache:
    def test_steady_state_hits(self):
        compiler = PlanCompiler()
        queries = [p(0, Entity(1)), p(1, Entity(2))]
        first = compiler.compile(queries)
        second = compiler.compile(queries)
        assert first.cache_misses == 1  # one structure: P(E)
        assert first.cache_hits == 1   # second query reuses it
        assert second.cache_hits == 2
        assert second.cache_misses == 0

    def test_eviction_under_capacity_pressure(self):
        compiler = PlanCompiler(cache_size=2)
        q1 = p(0, Entity(1))                       # P(E)
        q2 = p(0, p(1, Entity(1)))                 # P(P(E))
        q3 = i(p(0, Entity(1)), p(1, Entity(2)))   # I(P(E),P(E))
        compiler.compile([q1])
        compiler.compile([q2])
        compiler.compile([q3])  # capacity 2: evicts the LRU entry (q1)
        assert compiler.cache.stats()["evictions"] == 1
        relowered = compiler.compile([q1])
        assert relowered.cache_misses == 1

    def test_metrics_counters_accumulate(self):
        from repro.obs.metrics import MetricsRegistry
        registry = MetricsRegistry()
        compiler = PlanCompiler(metrics=registry)
        shared = p(0, Entity(7))
        compiler.compile([i(shared, p(1, Entity(2))), p(3, shared)])
        snapshot = registry.snapshot()
        assert snapshot.counters["plan_cache_misses"] == 2
        assert snapshot.counters["plan_cse_ops_saved"] > 0
        assert snapshot.counters["plan_ops_total"] \
            > snapshot.counters["plan_ops_executed"]


def _size(node) -> int:
    operands = getattr(node, "operands", None)
    if operands is None:
        operand = getattr(node, "operand", None)
        operands = () if operand is None else (operand,)
    return 1 + sum(_size(op) for op in operands)


class TestOneWalk:
    BATCH = (p(0, Entity(1)), p(1, p(0, Entity(2))), p(0, Entity(3)),
             i(p(2, Entity(4)), p(0, Entity(1))), p(2, p(1, Entity(5))),
             Difference((p(1, Entity(6)), p(0, Entity(2)), Entity(4))))

    def test_handed_in_walks_change_nothing(self):
        """The runtime walks each query at admission; compiling those
        walks must give the plan, stages, ``structure_keys`` and
        template-cache counters of ``compile`` on the raw queries."""
        from repro.obs.metrics import MetricsRegistry
        from repro.serve.canonical import batch_key, walk
        batch = list(self.BATCH)
        derived, handed = (PlanCompiler(metrics=MetricsRegistry())
                           for _ in range(2))
        for _ in range(2):  # cold, then warm template cache
            want = derived.compile(batch)
            got = handed.compile_walks([walk(q) for q in batch])
            assert got.structure_keys == want.structure_keys \
                == [batch_key(q) for q in batch]
            assert (got.cache_hits, got.cache_misses) == \
                (want.cache_hits, want.cache_misses)
            assert got.plan.ops == want.plan.ops
            assert got.plan.roots == want.plan.roots
            assert got.plan.ops_total == want.plan.ops_total
            assert got.plan.stages == want.plan.stages
        assert handed.metrics.snapshot().counters == \
            derived.metrics.snapshot().counters
        assert handed.cache.stats() == derived.cache.stats()

    @pytest.mark.parametrize("canonical", [False, True])
    def test_compile_walks_each_query_once(self, monkeypatch, canonical):
        """``compile`` visits every node of every query exactly once,
        whether or not the trees arrive canonical already."""
        from repro.serve import canonical as canonical_module
        batch = [canonicalize(q) if canonical else q for q in self.BATCH]
        visits = []
        real = canonical_module._walk

        def counting(node):
            visits.append(node)
            return real(node)

        monkeypatch.setattr(canonical_module, "_walk", counting)
        compiled = PlanCompiler().compile(batch)
        roots = [v for v in visits if any(v is q for q in batch)]
        assert len(roots) == len(batch)
        assert len(visits) == sum(_size(q) for q in batch)
        assert compiled.plan.num_queries == len(batch)


class TestScheduleAndExplain:
    def test_stages_respect_dependencies(self):
        from repro.plan import op_inputs
        plan = lower([i(p(0, Entity(1)), p(1, p(2, Entity(2))))])
        depths = plan.depths()
        for group in schedule(plan):
            for index in group.ops:
                assert depths[index] == group.depth
                for value in op_inputs(plan.ops[index]):
                    assert depths[value] < group.depth

    def test_same_depth_same_kind_ops_fuse(self):
        plan = lower([p(0, Entity(1)), p(1, Entity(2)), p(2, Entity(3))])
        stages = schedule(plan)
        assert [(s.kind, len(s.ops)) for s in stages] \
            == [("anchor", 3), ("project", 3)]

    def test_render_marks_shared_and_stages(self):
        shared = p(0, Entity(7))
        plan = lower([i(shared, p(1, Entity(2))), p(3, shared)])
        text = render_plan(plan, structure_keys=["I(P(E),P(E))", "P(P(E))"])
        assert "shared ×2" in text
        assert "fused stages:" in text
        assert "-> q1" in text
        assert "I(P(E),P(E))" in text

    def test_json_round_trips_structure(self):
        plan = lower([i(p(0, Entity(1)), p(1, Entity(2)))])
        payload = plan_to_json(plan, structure_keys=["I(P(E),P(E))"])
        assert payload["num_queries"] == 1
        assert payload["ops_total"] == len(payload["ops"]) \
            + payload["ops_saved"]
        kinds = {op["kind"] for op in payload["ops"]}
        assert kinds == {"anchor", "project", "intersect", "rank"}
        assert all(op["stage"] is not None for op in payload["ops"]
                   if op["kind"] != "rank")
