"""The sharded ranking facade: drop-in for the single-process pass.

:class:`ShardedRanker` owns an :class:`~repro.dist.plan.EntityShardPlan`
(the entity table in shared memory, and beside it the scorer's prepared
filter table) and a
:class:`~repro.dist.pool.ShardWorkerPool` of persistent workers, one per
contiguous shard.  Per request it ships the model's small
``ranking_payload`` to every worker, each worker asks the model's
:class:`~repro.dist.scorer.ShardScorer` for the local top-k of its row
block (global-id offset applied), and the parent merges the candidates
exactly (:func:`repro.dist.merge.merge_topk`).

Its in-process sibling :class:`LocalRanker` runs the same scorer over the
whole table as one block — no workers, no shared memory — so every
serving tier ranks through one kernel (``ShardScorer.topk``).  Whoever
owns a table also owns what the scorer derives from it once per
publish/refresh — the ``filterable`` verdict and the ``prepare``-d
table — and hands both to every ``topk``.

Callers treat the two interchangeably:

* ``QueryModel.rank_all_entities(queries, ranker=...)``
* ``ServeRuntime`` via ``ServeConfig(num_shards=K)``
* the benchmark harness (``--shards``)

and get bitwise-identical answers (see DESIGN.md §7).

Observability: with ``repro.obs`` tracing enabled each request records
``shard.dispatch`` (payload fan-out), ``shard.gather`` (the wait for
replies), one ``shard.compute`` span per shard (the worker-measured
interval, so per-shard latency skew is visible in traces), and
``shard.merge``.  Each worker's reply carries the interval it spent
scoring and the scorer's counts; from them the pool records a
``worker.handle`` → ``worker.score`` tree per worker under
``shard.dispatch``, stamped with the worker's pid, so
``export_chrome_trace`` renders one swimlane per worker process, and
:meth:`RankWorkerRole.record` writes the per-shard series
(``rank_requests{shard=k}``, ``rank_block_ms{shard=k}``, and for top-k
requests ``rank_refine_rows{shard=k}`` — rows the exact kernel scored
after the float32 filter — and ``rank_filter_fallbacks{shard=k}``) into
:attr:`ShardedRanker.metrics`.  Workers write no telemetry themselves.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from ..obs.metrics import MetricsRegistry, get_registry
from ..obs.trace import Tracer, get_tracer
from .merge import merge_topk
from .plan import EntityShardPlan, SharedArraySpec, ShardRange, \
    dist_available
from .pool import ShardWorkerPool, WorkerCrash, WorkerRole
from .scorer import ShardScorer

__all__ = ["LocalRanker", "RankWorkerRole", "ShardedRanker"]


class LocalRanker:
    """In-process ``topk`` over the model's whole entity table.

    The one-block case of :class:`ShardedRanker`: the same
    ``sharding_spec()`` table and scorer, the same ``ranking_payload``,
    no pool.  The wrapped table and the scorer's prepared (filter)
    table — private here, published beside the slab there — are built
    once and again on :meth:`refresh` (the serving runtime calls it
    under its model write lock).  A batch the filter had to hand to the
    exact all-rows pass is counted as ``rank_filter_fallbacks`` on
    ``metrics`` (the process registry when omitted), like a shard
    worker's.
    """

    def __init__(self, model, metrics: MetricsRegistry | None = None):
        self.model = model
        self.metrics = metrics if metrics is not None else get_registry()
        self.refresh()

    def refresh(self) -> None:
        """Rebuild the table from the model's current weights."""
        spec = self.model.sharding_spec()
        if spec is None:
            raise TypeError(f"model {type(self.model).__name__} has no "
                            "sharding_spec(): nothing to rank over")
        self._points, self._scorer = spec
        self._filterable = self._scorer.filterable(self._points)
        self._prepared = self._scorer.prepare(self._points)

    def memory_inventory(self) -> dict:
        """Bytes of the private tables, for ``/debug/mem``."""
        prepared = 0 if self._prepared is None else self._prepared.nbytes
        return {"num_entities": int(self._points.shape[0]),
                "dim": int(self._points.shape[1]),
                "total_bytes": int(self._points.nbytes + prepared),
                "prepared_bytes": int(prepared)}

    def topk(self, embedding, k: int, ctx=None
             ) -> tuple[np.ndarray, np.ndarray]:
        """``(ids, vals)`` exactly as :meth:`ShardedRanker.topk`."""
        stats: dict = {}
        out = self._scorer.topk(self._points,
                                self.model.ranking_payload(embedding),
                                k, stats, self._filterable, self._prepared)
        if stats.get("fallbacks"):
            self.metrics.counter("rank_filter_fallbacks").inc(
                stats["fallbacks"])
        return out


class RankWorkerRole(WorkerRole):
    """Worker role: score one contiguous shard and return local top-k."""

    def __init__(self, spec: SharedArraySpec, shard: ShardRange,
                 scorer: ShardScorer, index: int = 0,
                 prepared: SharedArraySpec | None = None):
        self.spec = spec
        self.shard = shard
        self.scorer = scorer
        self.index = index
        self.prepared = prepared

    def setup(self):
        # a segment is this worker's row block, nothing to slice
        table = self.spec.attach()
        companion = None if self.prepared is None else self.prepared.attach()
        return (table, companion), (
            table.ndarray, None if companion is None else companion.ndarray)

    def handle(self, state, payload):
        _, (points, prepared) = state
        request = payload.get("crash")
        if request == "before":  # crash injection (tests)
            raise WorkerCrash("injected crash before compute")
        started = time.perf_counter()
        stats: dict = {}
        if payload["mode"] == "all":
            reply = {"distances": self.scorer.score(points,
                                                    payload["payload"])}
        else:
            # ``filterable`` is the table owner's verdict (absent: the
            # scorer checks the block itself): a worker cannot see a
            # refresh, the parent can
            local, vals = self.scorer.topk(points, payload["payload"],
                                           payload["k"], stats,
                                           payload.get("filterable"),
                                           prepared)
            reply = {"ids": local + self.shard.start, "vals": vals}
        ended = time.perf_counter()
        if request == "after":  # crash after compute, before reply
            raise WorkerCrash("injected crash after compute")
        return reply, (started, ended, stats)

    def record(self, metrics, payload, measured) -> list:
        started, ended, stats = measured
        index = self.index
        requests, block_ms = metrics.handles(
            ("rank_shard", index),
            lambda m: (m.counter("rank_requests", shard=index),
                       m.histogram("rank_block_ms", shard=index)))
        requests.inc()
        block_ms.observe(1000.0 * (ended - started))
        # what scorer.topk counted (nothing in mode "all"); a series
        # appears with its first nonzero count, never as a zero
        for key, name in (("refine_rows", "rank_refine_rows"),
                          ("fallbacks", "rank_filter_fallbacks")):
            if stats.get(key):
                metrics.handles(
                    (name, index),
                    lambda m: m.counter(name, shard=index)).inc(stats[key])
        return [("worker.score", started, ended,
                 {"shard": index, "rows": self.shard.stop - self.shard.start,
                  "mode": payload["mode"]})]

    def teardown(self, state) -> None:
        for segment in state[0]:
            if segment is not None:
                segment.close()


class ShardedRanker:
    """Sharded ``distance_to_all`` + top-k over a worker pool.

    Build via :meth:`for_model` (returns None when the model or the
    platform does not support sharding); close with :meth:`close` or use
    as a context manager.  Thread-safety: :meth:`topk` and
    :meth:`distances` may be called from several threads (the serving
    runtime's batch workers hold only a shared *read* lock on the
    model); the pool's dispatch/gather pair is one-caller-at-a-time —
    a second caller's collect would discard the first's replies as
    stale — so the ranker serialises each round trip on its own lock.
    """

    def __init__(self, model, num_shards: int,
                 tracer: Tracer | None = None,
                 metrics: MetricsRegistry | None = None,
                 profile_hz: float = 0.0):
        if num_shards < 2:
            raise ValueError("sharded execution needs >= 2 shards")
        spec = model.sharding_spec()
        if spec is None:
            raise ValueError(f"model {type(model).__name__} does not "
                             f"support sharding (no sharding_spec)")
        points, scorer = spec
        self.model = model
        self._scorer = scorer
        #: the table is inside the scorer's filter domain; decided here
        #: and on refresh, shipped with every top-k request
        self._filterable = scorer.filterable(points)
        self.tracer = tracer if tracer is not None else get_tracer()
        self.plan = EntityShardPlan(points, num_shards,
                                    prepare=scorer.prepare)
        roles = [RankWorkerRole(
                     *self.plan.shard_spec(i), scorer, index=i,
                     prepared=self.plan.shard_spec(i, prepared=True)[0])
                 for i in range(self.plan.num_shards)]
        for i, role in enumerate(roles):
            # each worker samples itself continuously and piggybacks
            # profile deltas on replies (pool.profiles); 0 disables
            role.profile_hz = profile_hz
            role.profile_role = f"shard{i}"
        try:
            self.pool = ShardWorkerPool(roles, tracer=self.tracer,
                                        metrics=metrics)
        except BaseException:
            self.plan.close()  # the segments exist; no caller can reach them
            raise
        #: one dispatch+gather round trip on the pool at a time
        self._round_trip = threading.Lock()
        self._closed = False

    @property
    def metrics(self) -> MetricsRegistry:
        """Registry holding the per-shard worker series."""
        return self.pool.metrics

    # ------------------------------------------------------------------
    @classmethod
    def for_model(cls, model, num_shards: int,
                  tracer: Tracer | None = None,
                  metrics: MetricsRegistry | None = None,
                  profile_hz: float = 0.0
                  ) -> "ShardedRanker | None":
        """Ranker, or None when sharding is unsupported here.

        None (rather than an exception) lets callers fall back to the
        single-process path with one ``if``: models without a
        ``sharding_spec`` (symbolic baselines), platforms without working
        shared memory, or fewer than 2 shards requested.
        """
        if num_shards < 2 or not dist_available():
            return None
        if model.sharding_spec() is None:
            return None
        return cls(model, num_shards, tracer=tracer, metrics=metrics,
                   profile_hz=profile_hz)

    @property
    def num_shards(self) -> int:
        return self.plan.num_shards

    @property
    def respawns(self) -> int:
        """Workers transparently restarted after dying (diagnostics)."""
        return self.pool.respawns

    # ------------------------------------------------------------------
    def topk(self, embedding, k: int, ctx=None
             ) -> tuple[np.ndarray, np.ndarray]:
        """Global ``(ids, vals)`` top-k of a query-batch embedding.

        Bitwise identical to ``topk_rows(distance_to_all(embedding), k)``
        plus the matching distances — both paths order by
        ``(distance, entity id)``.

        ``ctx`` (the dispatching request's
        :class:`~repro.obs.diag.RequestContext`) rides to the worker
        pool: its id is stamped on the worker spans, and the gather's
        ``shards`` fan-out is noted on its flight record.
        """
        replies, timings = self._run(
            {"mode": "topk", "k": int(k), "filterable": self._filterable},
            embedding, ctx)
        with self.tracer.span("shard.merge", shards=self.num_shards):
            return merge_topk([r["ids"] for r in replies],
                              [r["vals"] for r in replies], k)

    def distances(self, embedding) -> np.ndarray:
        """Full ``(B, N)`` distance matrix, concatenated from shards.

        Exact equivalent of ``distance_to_all(embedding).data`` — used by
        the evaluation protocol, which needs every entity's rank, not
        just the top-k.
        """
        replies, _ = self._run({"mode": "all"}, embedding)
        return np.concatenate([r["distances"] for r in replies], axis=-1)

    def _run(self, request: dict, embedding, ctx=None):
        tracer = self.tracer
        payload = self.model.ranking_payload(embedding)
        if payload is None:
            raise ValueError("model returned no ranking payload")
        request = dict(request, payload=payload)
        payloads = [request] * self.num_shards
        with self._round_trip:
            with tracer.span("shard.dispatch", shards=self.num_shards):
                seq = self.pool.dispatch(payloads, ctx)
            with tracer.span("shard.gather", shards=self.num_shards):
                replies, timings = self.pool.gather(seq, payloads)
        parent = tracer.current()
        for index, interval in enumerate(timings):
            if interval is not None:
                tracer.record("shard.compute", interval[0], interval[1],
                              parent=parent, shard=index)
        return replies, timings

    # ------------------------------------------------------------------
    def refresh(self) -> None:
        """Republish the entity table after the model's weights changed.

        Write-through into the existing shared segments — the table and
        its prepared companion: attached workers see the new values on
        their next score call.  The caller must quiesce in-flight
        requests (the serving runtime holds its model write lock across
        ``load_state_dict`` + ``refresh``).
        """
        spec = self.model.sharding_spec()
        if spec is None:  # pragma: no cover - spec cannot disappear
            raise ValueError("model no longer provides a sharding spec")
        self.plan.update(spec[0])
        self._filterable = self._scorer.filterable(spec[0])

    def close(self) -> None:
        """Stop workers and destroy the shared segments; idempotent."""
        if self._closed:
            return
        self._closed = True
        self.pool.close()
        self.plan.close()

    def __enter__(self) -> "ShardedRanker":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
