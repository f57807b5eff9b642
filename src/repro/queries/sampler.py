"""Grounding query structures against a knowledge graph.

Following the Query2Box/BetaE protocol the paper inherits, queries are
grounded *backwards* from a target answer entity: pick an entity that
should be an answer, then instantiate relations and anchors walking down
the template so that the target is reachable.  The grounded query is then
executed exactly (``executor.execute``) and rejected when degenerate
(empty answers, or an answer set larger than a cap — relevant for
negation, whose complements are huge).

Every draw is one bounded integer, and the sampler replays numpy's own
method for it over a block of pre-drawn 32-bit words instead of calling
the generator once per draw (DESIGN.md §16): the values, and the generator
state anyone reads through :attr:`QuerySampler.rng`, are those of one
``Generator.integers(n)`` call per draw.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..kg.graph import KnowledgeGraph
from .computation_graph import (Difference, Entity, Intersection, Negation,
                                Node, Projection, Union)
from .executor import execute
from .structures import QueryStructure

__all__ = ["GroundedQuery", "QuerySampler", "SamplerConfig"]

#: Words drawn from the generator per refill of the sampler's block.
BLOCK_WORDS = 4096
_SPAN = 1 << 32  # one word's range; a bound up to it needs one word
_MASK = _SPAN - 1


@dataclass(frozen=True)
class GroundedQuery:
    """A fully instantiated query with its exact answer sets.

    Attributes
    ----------
    structure:
        Name of the originating structure template.
    query:
        Grounded computation graph.
    easy_answers:
        Answers derivable from the observed (training) graph.
    hard_answers:
        Answers that require the unseen edges of the evaluation graph —
        the filtered protocol ranks exactly these.
    """

    structure: str
    query: Node
    easy_answers: frozenset[int]
    hard_answers: frozenset[int]

    @cached_property
    def positive_answers(self) -> tuple[int, ...]:
        """What training draws a query's positive from: the easy
        answers, or the hard ones when it has no easy answer."""
        return tuple(self.easy_answers) or tuple(self.hard_answers)

    @cached_property
    def all_answers(self) -> frozenset[int]:
        """Easy and hard answers together (computed once per query: the
        trainer asks at every step)."""
        return self.easy_answers | self.hard_answers


@dataclass(frozen=True)
class SamplerConfig:
    """Knobs for the rejection sampler."""

    max_attempts: int = 200
    max_answer_fraction: float = 0.5
    require_hard_answer: bool = False

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be at least 1, got {self.max_attempts}")
        if not 0 < self.max_answer_fraction <= 1:
            raise ValueError("max_answer_fraction must be in (0, 1], got "
                             f"{self.max_answer_fraction}")


class QuerySampler:
    """Samples grounded queries of given structures from graph splits.

    Parameters
    ----------
    observed:
        The graph used to instantiate queries (training graph).
    full:
        The evaluation graph defining the complete answer sets (a superset
        of ``observed``); pass the same graph twice to sample training
        queries.  ``require_hard_answer`` needs a full graph with edges
        the observed one lacks.

    The sampler owns its generator (``default_rng(seed)``) and draws from
    it in blocks of words; :attr:`rng` syncs the generator to the draws
    made so far before handing it out.
    """

    def __init__(self, observed: KnowledgeGraph, full: KnowledgeGraph | None = None,
                 seed: int = 0, config: SamplerConfig | None = None):
        self.observed = observed
        self.full = full if full is not None else observed
        if not observed.is_subgraph_of(self.full):
            raise ValueError("observed graph must be a subgraph of the full graph")
        self.config = config or SamplerConfig()
        if (self.config.require_hard_answer
                and self.full.num_triples == observed.num_triples):
            raise ValueError("require_hard_answer needs a full graph with "
                             "edges the observed graph lacks")
        # The word block: BLOCK_WORDS words drawn from the generator in
        # state ``_block_start``, of which ``_words`` are still unused,
        # last word first (a draw pops it); the generator itself sits
        # after the whole block until ``_sync``.
        self._rng = np.random.default_rng(seed)
        self._block_start: dict = {}
        self._words: list[int] = []
        # Grounding walks the *full* graph so that evaluation queries can
        # use unseen edges (that is what creates hard answers).  An entity
        # is active (degree > 0) when it has an in- or an out-relation.
        self._active_entities = tuple(
            e for e in range(self.full.num_entities)
            if self.full.in_relations(e) or self.full.out_relations(e))
        if not self._active_entities:
            raise ValueError("graph has no connected entities")
        # The full graph's adjacency as tuples, built on first use: the
        # graph does not change after construction, so each tuple has the
        # order of a fresh ``list(...)`` of the same index, and the draws
        # from it are the ones the golden digests in the tests pin.
        self._in_relations: dict[int, tuple[int, ...]] = {}
        self._sources: dict[tuple[int, int], tuple[int, ...]] = {}

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    @property
    def rng(self) -> np.random.Generator:
        """The sampler's generator, in the state one
        ``Generator.integers(n)`` call per draw would have left."""
        return self._sync()

    def sample(self, structure: QueryStructure) -> GroundedQuery:
        """Sample one non-degenerate grounded query of ``structure``."""
        cap = max(1, int(self.config.max_answer_fraction
                         * self.observed.num_entities))
        for _ in range(self.config.max_attempts):
            target = self._draw(self._active_entities)
            grounded = self._ground(structure.template, target)
            if grounded is None:
                continue
            total = execute(grounded, self.full)
            if not total or len(total) > cap:
                continue
            easy = (execute(grounded, self.observed)
                    if self.full is not self.observed else total)
            hard = total - easy
            if self.config.require_hard_answer and not hard:
                continue
            return GroundedQuery(structure.name, grounded,
                                 frozenset(easy), frozenset(hard))
        raise RuntimeError(f"could not ground structure {structure.name!r} "
                           f"after {self.config.max_attempts} attempts")

    def sample_many(self, structure: QueryStructure, count: int,
                    dedupe: bool = True) -> list[GroundedQuery]:
        """Sample up to ``count`` queries (deduplicated by grounded tree).

        A count of 0 draws nothing and returns ``[]``; a positive count
        that yields no query at all raises ``RuntimeError``."""
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        out: list[GroundedQuery] = []
        seen: set[Node] = set()
        failures = 0
        while len(out) < count and failures < self.config.max_attempts:
            try:
                grounded = self.sample(structure)
            except RuntimeError:
                failures += 1
                continue
            if dedupe and grounded.query in seen:
                failures += 1
                continue
            seen.add(grounded.query)
            out.append(grounded)
        if count and not out:
            raise RuntimeError(f"failed to sample any {structure.name!r} query")
        return out

    # ------------------------------------------------------------------
    # backward grounding
    # ------------------------------------------------------------------
    def _ground(self, template: Node, target: int) -> Node | None:
        """Instantiate ``template`` so that ``target`` is (likely) an answer.

        Projection chooses an incoming relation of the target and recurses
        on one of its sources; intersections pass the same target to every
        operand; negation and the subtracted operands of a difference are
        grounded against random *other* entities (their job is to exclude,
        not include, the target).  The result is validated by exact
        execution in :meth:`sample`, so heuristic failures here only cost
        a retry.
        """
        if isinstance(template, Entity):
            return Entity(target)
        if isinstance(template, Projection):
            incoming = self._in_relations.get(target)
            if incoming is None:
                incoming = self._in_relations[target] = tuple(
                    self.full.in_relations(target))
            if not incoming:
                return None
            relation = self._draw(incoming)
            sources = self._sources.get((target, relation))
            if sources is None:
                sources = self._sources[target, relation] = tuple(
                    self.full.sources(target, relation))
            source = self._draw(sources)
            operand = self._ground(template.operand, source)
            if operand is None:
                return None
            return Projection(relation, operand)
        if isinstance(template, Intersection):
            operands = []
            for op_template in template.operands:
                operand = self._ground_branch(op_template, target)
                if operand is None:
                    return None
                operands.append(operand)
            return Intersection(tuple(operands))
        if isinstance(template, Union):
            # One branch must contain the target; others are free.
            operands = []
            hit = self._draw(range(len(template.operands)))
            for i, op_template in enumerate(template.operands):
                branch_target = target if i == hit else self._random_entity()
                operand = self._ground(op_template, branch_target)
                if operand is None:
                    return None
                operands.append(operand)
            return Union(tuple(operands))
        if isinstance(template, Difference):
            first = self._ground(template.operands[0], target)
            if first is None:
                return None
            operands = [first]
            for op_template in template.operands[1:]:
                operand = self._ground(op_template, self._random_entity(exclude=target))
                if operand is None:
                    return None
                operands.append(operand)
            return Difference(tuple(operands))
        if isinstance(template, Negation):
            operand = self._ground(template.operand,
                                   self._random_entity(exclude=target))
            if operand is None:
                return None
            return Negation(operand)
        raise TypeError(f"unknown node type: {type(template).__name__}")

    def _ground_branch(self, template: Node, target: int) -> Node | None:
        """Ground an intersection operand.

        Positive operands must contain the target; negated operands must
        *not* (they are grounded against a different entity).
        """
        if isinstance(template, Negation):
            operand = self._ground(template.operand,
                                   self._random_entity(exclude=target))
            if operand is None:
                return None
            return Negation(operand)
        return self._ground(template, target)

    def _draw(self, seq: Sequence[int]) -> int:
        """A uniform draw from ``seq``: the value and the generator state
        that ``Generator.choice`` gives on ``seq`` — it takes
        ``int(Generator.integers(len(seq)))`` and indexes — replayed over
        the word block instead of calling the generator.

        For 1 < n <= 2**32 numpy takes Lemire's nearly-divisionless
        method over ``next_uint32``: ``m = word * n``, a fresh word while
        the low half of ``m`` is below ``(2**32 - n) % n``, then the high
        half.  ``n == 1`` takes no word; ``n == 0`` is numpy's
        ``ValueError``; a wider bound goes to the generator itself."""
        n = len(seq)
        if n == 1:
            return seq[0]
        if not n:
            raise ValueError("high <= 0: cannot draw from an empty sequence")
        if n > _SPAN:
            return seq[self._refill(wide=n)]
        words = self._words
        if not words:
            self._refill()
            words = self._words
        m = words.pop() * n
        if m & _MASK < n:  # only then can it fall below the threshold
            threshold = (_SPAN - n) % n
            while m & _MASK < threshold:
                if not words:
                    self._refill()
                    words = self._words
                m = words.pop() * n
        return seq[m >> 32]

    def _random_entity(self, exclude: int | None = None) -> int:
        entity = self._draw(self._active_entities)
        if exclude is not None and entity == exclude and len(self._active_entities) > 1:
            while entity == exclude:
                entity = self._draw(self._active_entities)
        return entity

    # ------------------------------------------------------------------
    # the word block
    # ------------------------------------------------------------------
    def _sync(self) -> np.random.Generator:
        """Put the generator where the draws so far would have left it —
        rewind to the block's start and redraw the words consumed — and
        empty the block, so the next draw starts from whatever state the
        generator has then."""
        rng = self._rng
        if self._words:  # (with no word left, the generator is in place)
            rng.bit_generator.state = self._block_start
            rng.integers(0, _SPAN, size=BLOCK_WORDS - len(self._words),
                         dtype=np.uint32)
            self._words = []
        return rng

    def _refill(self, wide: int = 0) -> int:
        """Sync, then draw a fresh block of words; or, for a ``wide``
        bound above 2**32 (beyond one word), hand that draw to the
        generator and return it (the block stays empty)."""
        rng = self._sync()
        if wide:
            return int(rng.integers(wide))
        self._block_start = rng.bit_generator.state
        self._words = rng.integers(0, _SPAN, size=BLOCK_WORDS,
                                   dtype=np.uint32)[::-1].tolist()
        return 0
