"""Tests for backward grounding and the query workload builder."""

import hashlib

import numpy as np
import pytest

from repro.kg import KnowledgeGraph, fb237_mini, load_dataset
from repro.queries import (STRUCTURES, GroundedQuery, QuerySampler,
                           SamplerConfig, batches, build_workloads, execute,
                           get_structure)
from repro.queries.sampler import BLOCK_WORDS


@pytest.fixture(scope="module")
def splits():
    return fb237_mini(scale=0.5)


@pytest.fixture(scope="module")
def train_sampler(splits):
    return QuerySampler(splits.train, seed=0)


class TestSample:
    @pytest.mark.parametrize("name", sorted(STRUCTURES))
    def test_all_structures_groundable(self, train_sampler, name):
        grounded = train_sampler.sample(get_structure(name))
        assert grounded.structure == name
        assert grounded.easy_answers

    def test_answers_match_executor(self, splits, train_sampler):
        grounded = train_sampler.sample(get_structure("2i"))
        assert set(grounded.easy_answers) == execute(grounded.query, splits.train)

    def test_train_sampler_has_no_hard_answers(self, train_sampler):
        grounded = train_sampler.sample(get_structure("2p"))
        assert not grounded.hard_answers

    def test_eval_sampler_produces_hard_answers(self, splits):
        sampler = QuerySampler(splits.valid, splits.test, seed=1,
                               config=SamplerConfig(require_hard_answer=True))
        grounded = sampler.sample(get_structure("1p"))
        assert grounded.hard_answers
        assert not grounded.hard_answers & grounded.easy_answers

    def test_answer_cap_respected(self, splits):
        sampler = QuerySampler(splits.train, seed=2,
                               config=SamplerConfig(max_answer_fraction=0.1))
        grounded = sampler.sample(get_structure("2in"))
        assert len(grounded.all_answers) <= 0.1 * splits.train.num_entities

    def test_observed_must_be_subgraph(self, splits):
        with pytest.raises(ValueError):
            QuerySampler(splits.test, splits.train)

    def test_deterministic_given_seed(self, splits):
        a = QuerySampler(splits.train, seed=9).sample(get_structure("2p"))
        b = QuerySampler(splits.train, seed=9).sample(get_structure("2p"))
        assert a.query == b.query


class TestConfigValidation:
    """A configuration that can never produce a query fails at
    construction, naming the field, instead of exhausting its attempts."""

    @pytest.mark.parametrize("full", ["none", "same", "equal copy"])
    def test_hard_answers_need_a_larger_full_graph(self, splits, full):
        kg = splits.valid
        full_graph = {"none": None, "same": kg,
                      "equal copy": KnowledgeGraph(
                          kg.num_entities, kg.num_relations,
                          kg.triples)}[full]
        with pytest.raises(ValueError, match="require_hard_answer"):
            QuerySampler(kg, full_graph,
                         config=SamplerConfig(require_hard_answer=True))

    @pytest.mark.parametrize("attempts", [0, -1])
    def test_max_attempts_at_least_one(self, splits, attempts):
        with pytest.raises(ValueError, match="max_attempts"):
            QuerySampler(splits.train,
                         config=SamplerConfig(max_attempts=attempts))

    @pytest.mark.parametrize("fraction", [-1.0, 0.0, 1.5, float("nan")])
    def test_max_answer_fraction_in_unit_interval(self, splits, fraction):
        with pytest.raises(ValueError, match="max_answer_fraction"):
            QuerySampler(splits.train,
                         config=SamplerConfig(max_answer_fraction=fraction))

    def test_boundary_values_accepted(self, splits):
        sampler = QuerySampler(splits.train, seed=0, config=SamplerConfig(
            max_attempts=1, max_answer_fraction=1.0))
        assert sampler.sample_many(get_structure("1p"), 3)


class TestWordReplay:
    """A draw replays ``Generator.integers(n)`` over a block of pre-drawn
    words.  This is the guard that fails if numpy changes its
    bounded-integer method: every value, and the generator state, must
    be what one ``integers(n)`` call per draw gives."""

    BOUNDS = (1, 2, 3, 88, 14_505, 100_000,
              2**31 + 1, 3 * 2**30, 2**32 - 1, 2**32)

    def test_values_and_state_equal_numpy(self, splits, monkeypatch):
        sampler = QuerySampler(splits.train, seed=11)
        reference = np.random.default_rng(11)
        refills = []
        refill = sampler._refill

        def counted_refill(*args, **kwargs):
            refills.append(1)
            return refill(*args, **kwargs)

        monkeypatch.setattr(sampler, "_refill", counted_refill)
        order = np.random.default_rng(0).permutation(
            np.repeat(self.BOUNDS, 3 * BLOCK_WORDS // len(self.BOUNDS)))
        middle = len(order) // 2
        got, want = [], []
        for i, n in enumerate(order.tolist()):
            if i == middle:
                first = sampler.rng.bit_generator.state
                second = sampler.rng.bit_generator.state
                assert first == second == reference.bit_generator.state
            got.append(sampler._draw(range(n)))
            want.append(int(reference.integers(n)))
        assert got == want
        # the first block, the one after the middle read emptied it, and
        # a used-up block in each half of the run
        assert len(refills) >= 4, refills
        assert sampler.rng.bit_generator.state == reference.bit_generator.state

    def test_wide_bound_goes_to_the_generator(self, splits):
        sampler = QuerySampler(splits.train, seed=4)
        reference = np.random.default_rng(4)
        bounds = [88, 2**32 + 1, 5, 2**40, 2**40, 3, 2**32]
        assert [sampler._draw(range(n)) for n in bounds] == \
            [int(reference.integers(n)) for n in bounds]
        assert sampler.rng.bit_generator.state == reference.bit_generator.state

    def test_empty_sequence_rejected_like_numpy(self, splits):
        with pytest.raises(ValueError):
            np.random.default_rng(0).integers(0)
        with pytest.raises(ValueError):
            QuerySampler(splits.train, seed=0)._draw(())


class TestSampleMany:
    def test_dedupe(self, train_sampler):
        queries = train_sampler.sample_many(get_structure("1p"), 20)
        assert len({q.query for q in queries}) == len(queries)

    def test_count_respected(self, train_sampler):
        queries = train_sampler.sample_many(get_structure("2i"), 10)
        assert 1 <= len(queries) <= 10

    def test_zero_count_draws_nothing(self, splits):
        sampler = QuerySampler(splits.train, seed=3)
        state = sampler.rng.bit_generator.state
        assert sampler.sample_many(get_structure("2p"), 0) == []
        assert sampler.rng.bit_generator.state == state

    def test_negative_count_rejected(self, train_sampler):
        with pytest.raises(ValueError):
            train_sampler.sample_many(get_structure("2p"), -1)


class TestWorkloads:
    def test_build_workloads_protocol(self, splits):
        bundle = build_workloads(splits, queries_per_structure=5,
                                 eval_queries_per_structure=3, seed=0)
        # zero-shot structures are absent from training
        for name in ("ip", "pi", "2u", "up", "dp"):
            assert name not in bundle.train
            assert name in bundle.test
        # every test query has at least one hard answer
        for query in bundle.test:
            assert query.hard_answers

    def test_workload_iteration_and_total(self, splits):
        bundle = build_workloads(splits, queries_per_structure=4,
                                 eval_queries_per_structure=2, seed=1)
        assert bundle.train.total() == sum(1 for _ in bundle.train)

    def test_zero_train_count_leaves_structure_out(self, splits):
        bundle = build_workloads(splits, queries_per_structure={"2p": 0},
                                 eval_queries_per_structure=2, seed=0)
        assert "2p" not in bundle.train
        assert "3p" in bundle.train
        assert "2p" in bundle.test

    def test_zero_eval_count_gives_empty_eval_workloads(self, splits):
        bundle = build_workloads(splits, queries_per_structure=2,
                                 eval_queries_per_structure=0, seed=0)
        assert bundle.valid.total() == bundle.test.total() == 0
        with_eval = build_workloads(splits, queries_per_structure=2,
                                    eval_queries_per_structure=2, seed=0)
        assert list(bundle.train) == list(with_eval.train)

    def test_batches_partition(self):
        queries = [GroundedQuery("1p", None, frozenset({i}), frozenset())
                   for i in range(10)]
        got = list(batches(queries, 3, shuffle=False))
        assert [len(b) for b in got] == [3, 3, 3, 1]
        flat = [q for batch in got for q in batch]
        assert flat == queries

    def test_batches_shuffle_deterministic_with_rng(self):
        queries = [GroundedQuery("1p", None, frozenset({i}), frozenset())
                   for i in range(10)]
        a = list(batches(queries, 4, rng=np.random.default_rng(0)))
        b = list(batches(queries, 4, rng=np.random.default_rng(0)))
        assert [[q.easy_answers for q in batch] for batch in a] == \
               [[q.easy_answers for q in batch] for batch in b]

    def test_batches_rejects_bad_size(self):
        with pytest.raises(ValueError):
            list(batches([], 0))


class TestGoldenDigest:
    """The sampler's output, draw for draw, pinned by a sha256.

    Every workload, trained model and benchmark query pool is grounded by
    ``QuerySampler``; a change to how it draws (or to the order of the
    adjacency it draws from) would silently re-roll all of them.  The
    first two digests were taken before the per-draw list conversion was
    replaced by indexing memoized tuples, the answer-order digest before
    the per-draw generator call was replaced by the word-block replay;
    none of them may move."""

    WORKLOADS = ("d98b54b29b329a1e53a5e733bae6182c"
                 "b9101e20d4091a09399b30eb2852294a")
    STREAM = ("d68f7d3fc963d008e6c3d720c495ee80"
              "274b616466aea6aae50c00647e67742b")
    ANSWER_ORDER = ("d9277355dbc5566db39e75124b7b4f6f"
                    "4b89b88f26e99171ee3e9e10f2bbc8b0")

    @staticmethod
    def _record(digest, query):
        digest.update(repr((query.structure, query.query,
                            sorted(query.easy_answers),
                            sorted(query.hard_answers))).encode())

    @pytest.fixture(scope="class")
    def fb237(self):
        return load_dataset("FB237", scale=0.4, seed=0)

    def test_workload_digest(self, fb237):
        bundle = build_workloads(fb237, queries_per_structure=80,
                                 eval_queries_per_structure=15, seed=0)
        digest = hashlib.sha256()
        for workload in (bundle.train, bundle.valid, bundle.test):
            for query in workload:
                self._record(digest, query)
        assert digest.hexdigest() == self.WORKLOADS

    def test_answer_order_digest(self, fb237):
        """The answers in iteration order, not sorted: the trainer draws
        a query's positive by index from ``positive_answers``, which reads
        the frozensets' order."""
        bundle = build_workloads(fb237, queries_per_structure=80,
                                 eval_queries_per_structure=15, seed=0)
        digest = hashlib.sha256()
        for workload in (bundle.train, bundle.valid, bundle.test):
            for query in workload:
                digest.update(repr((tuple(query.easy_answers),
                                    tuple(query.hard_answers),
                                    query.positive_answers)).encode())
        assert digest.hexdigest() == self.ANSWER_ORDER

    def test_hard_answer_stream_digest(self, fb237):
        """16 rounds over every structure (the 16 basic ones and the
        large ones) with the default attempt budget (every draw succeeds), then with one attempt per draw (most
        raise ``RuntimeError``, which is part of the stream)."""
        digest = hashlib.sha256()
        for attempts in (200, 1):
            sampler = QuerySampler(fb237.valid, fb237.test, seed=7,
                                   config=SamplerConfig(
                                       max_attempts=attempts,
                                       require_hard_answer=True))
            for _ in range(16):
                for name in sorted(STRUCTURES):
                    try:
                        self._record(digest,
                                     sampler.sample(get_structure(name)))
                    except RuntimeError:
                        digest.update(repr(("RuntimeError", name)).encode())
        assert digest.hexdigest() == self.STREAM
