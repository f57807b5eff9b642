"""The in-process serving runtime: batching, caching, fallbacks, metrics.

:class:`ServeRuntime` is the engine every front-end (CLI, SPARQL engine,
benchmarks) sits on.  A request travels::

    submit() ── answer-cache hit? ──────────────▶ resolved future
        │ miss
        ▼
    MicroBatcher (fair lanes; requests coalesce while every worker is busy)
        ▼  pulled by a free worker thread, ≤ max_batch_size at a time
        ├─ a door's request that cannot make its deadline → shed (429)
        ├─ embedding-LRU hits  → a one-row rank group each
        ├─ misses              → one compiled plan (``repro.plan``:
        │                        template cache, cross-query CSE, fused
        │                        stages) → one rank group per branch count
        ├─ every rank group    → one filter-and-refine top-k (in-process
        │                        over the table, or one sharded gather)
        └─ on failure/deadline → bounded retries, then the one fallback
           rung: the exact symbolic executor (``queries.executor``)

Every stage feeds the metrics registry (counters, latency histograms,
queue-depth gauge), exposed via :meth:`ServeRuntime.stats`.

A request is one object from admission to its answer: the
:class:`~repro.serve.batcher.ServeRequest` is its flight record, its
queue entry and the future the caller waits on, and each stage writes
its instants and fields onto it as plain attributes.  The outcomes of a
batch are committed together — one hold each of the answer cache, the
latency histogram and the diagnostics sinks — before its futures
resolve.  While a runtime is open the heap it was built on is frozen
(:mod:`repro.serve.heap`).
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..ckpt import CheckpointError, load_checkpoint
from ..core.model import QueryModel
from ..kg.graph import KnowledgeGraph
from ..obs.diag import DiagConfig, Diagnostics, commit
from ..obs.metrics import MetricsRegistry, StatsSnapshot
from ..obs.trace import Tracer, get_tracer
from ..queries.computation_graph import Node
from ..queries.executor import execute
from . import heap
from .batcher import (DEFAULT_LANE, Lane, MicroBatcher, ServeError,
                      ServeFuture, ServeRequest, ShedError)
from .cache import LruCache, TtlCache
from .canonical import Walk, walk

__all__ = ["ServeConfig", "ServeResult", "ServeRuntime", "ServeError"]

#: model-path attempts per batch beyond the first
MAX_RETRIES = 1
#: sliding-window size of the latency histograms
HISTOGRAM_WINDOW = 4096


@dataclass(frozen=True)
class ServeConfig:
    """Knobs of the serving runtime."""

    #: the most requests a free worker pulls off the queue at once
    max_batch_size: int = 64
    #: worker threads, i.e. batches in execution at once: in-process a
    #: second one only time-slices the first under the interpreter lock;
    #: it pays with sharded ranking, whose gather waits release it
    num_workers: int = 1
    #: per-request deadline in seconds (None = no deadline)
    default_deadline: float | None = None
    embedding_cache_size: int = 1024
    answer_cache_size: int = 4096
    #: seconds an answer-cache entry stays valid
    answer_ttl: float = 300.0
    #: entity-table shards for ranking; < 2 = in-process (``repro.dist``
    #: worker processes; falls back to in-process when the platform
    #: has no working shared memory — ``health()`` says so)
    num_shards: int = 0
    #: mount the telemetry HTTP server (``/metrics`` ``/healthz``
    #: ``/statusz``) on this port; None = no HTTP, 0 = ephemeral port
    #: (the bound port is ``runtime.http_server.port``)
    http_port: int | None = None
    #: bind address of the telemetry HTTP server
    http_host: str = "127.0.0.1"
    #: always-on production diagnostics (flight recorder, tail-based
    #: trace sampling, SLO burn rates — ``repro.obs.diag``); the off
    #: switch exists for the overhead benchmark, not for production
    diagnostics: bool = True
    #: diagnostics knobs; None = DiagConfig() defaults
    diag: DiagConfig | None = None
    #: continuous sampling profiler (``repro.obs.prof``, at its
    #: ``DEFAULT_HZ``) in this process and — at the same rate — in every
    #: shard worker; the off switch exists for the overhead benchmark,
    #: not for production
    profiling: bool = True


@dataclass(frozen=True)
class ServeResult:
    """Answer of one served query."""

    entity_ids: list[int]
    #: which path produced it: model | answer_cache | exact
    source: str
    #: submit-to-resolve latency in seconds
    latency: float = 0.0
    #: diagnostics join key: resolves to a flight-recorder entry
    #: (``/debug/flight?request_id=``) and, when tail-sampled, a
    #: retained trace (``/debug/trace/<request_id>``)
    request_id: str = ""

    def __len__(self) -> int:
        return len(self.entity_ids)


class _RWLock:
    """Many concurrent readers, one exclusive writer, writer-preferring.

    Batch execution holds a read lock while it touches the model, so a
    hot reload (the writer) swaps weights only between batches — an
    in-flight batch can never observe a half-loaded parameter set.
    Waiting writers block *new* readers, so a busy serving loop cannot
    starve a reload indefinitely.
    """

    def __init__(self):
        self._cond = threading.Condition()
        self._readers = 0
        self._writer = False
        self._writers_waiting = 0

    def acquire_read(self) -> None:
        with self._cond:
            while self._writer or self._writers_waiting:
                self._cond.wait()
            self._readers += 1

    def release_read(self) -> None:
        with self._cond:
            self._readers -= 1
            if self._readers == 0:
                self._cond.notify_all()

    def acquire_write(self) -> None:
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writer or self._readers:
                    self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writer = True

    def release_write(self) -> None:
        with self._cond:
            self._writer = False
            self._cond.notify_all()


class ServeRuntime:
    """Batched, cached, observable query serving on top of a QueryModel.

    Parameters
    ----------
    model:
        Trained model answering via ``plan_backend()`` (the stacked
        primitives compiled plans execute) and ``sharding_spec()`` (the
        table and scorer every tier ranks with).  A model without them
        (the baselines, the Table V ablations) is train/evaluate-only:
        the constructor raises ``TypeError`` before anything starts.
    kg:
        Optional observed graph enabling the exact symbolic fallback
        (deadline overruns and failures past the retries); without it
        those requests raise :class:`ServeError`.
    config, clock:
        Runtime knobs and an injectable monotonic clock (tests).
    tracer:
        Optional :class:`repro.obs.Tracer`; defaults to the process-wide
        tracer.  It numbers the spans of every request tree rendered
        from a record's stamps (request → canonicalise / cache_lookup /
        queue / embed / distance / rank, or the fallback stages): a kept
        tree when it is read, and while ``repro.obs`` tracing is enabled
        every tree at completion, which then also lands in the tracer's
        ring so :meth:`stats` folds per-stage timings into the snapshot.
        Compiled plans and the shard plane trace into it directly.
    """

    def __init__(self, model: QueryModel, kg: KnowledgeGraph | None = None,
                 config: ServeConfig | None = None,
                 clock: Callable[[], float] = time.monotonic,
                 tracer: Tracer | None = None):
        self.model = model
        self.kg = kg
        self.config = config or ServeConfig()
        self._clock = clock
        self.tracer = tracer if tracer is not None else get_tracer()
        # Everything that can reject its arguments is built first and
        # starts nothing, so a bad model or config raises before any
        # thread, process or shared-memory segment exists.
        self._plan_backend = model.plan_backend()
        if self._plan_backend is None:
            raise TypeError(
                f"model {model.name!r} has no plan_backend(): serving "
                "executes compiled plans only (train/evaluate it instead)")
        self._answers = TtlCache(self.config.answer_cache_size,
                                 self.config.answer_ttl, clock=clock)
        self._embeddings = LruCache(self.config.embedding_cache_size)
        #: whether the model can slice one query's row out of a batch
        #: embedding (else the embedding tier stays empty)
        self._sliceable = getattr(model.slice_embedding, "__func__",
                                  None) is not QueryModel.slice_embedding
        self.metrics = MetricsRegistry(HISTOGRAM_WINDOW)
        self._latency = self.metrics.histogram("latency_ms")
        self._requests = self.metrics.counter("requests")
        self._answer_hits = self.metrics.counter("answer_cache_hits")
        self._answer_misses = self.metrics.counter("answer_cache_misses")
        self._batch_sizes = self.metrics.histogram("batch_size")
        self._queue_depth = self.metrics.gauge("queue_depth")
        from ..dist import LocalRanker, dist_available
        sharded = self.config.num_shards >= 2 and dist_available()
        #: in-process ranking (None when shard workers rank instead)
        self._local = None if sharded else LocalRanker(model, self.metrics)
        from ..plan import PlanCompiler
        self._planner = PlanCompiler(metrics=self.metrics,
                                     tracer=self.tracer)
        #: the one queue; a door reads its depths and service estimate
        self.batcher = MicroBatcher(
            self._execute_batch, max_batch_size=self.config.max_batch_size,
            num_workers=self.config.num_workers,
            depth_callback=self._queue_depth.set)
        self._started_at = time.monotonic()  # uptime display only
        #: production diagnostics (repro.obs.diag); None only when the
        #: overhead benchmark turns it off explicitly
        self.diag: Diagnostics | None = None
        if self.config.diagnostics:
            self.diag = Diagnostics(self.config.diag,
                                    registry=self.metrics, clock=clock)
        self._closed = False
        self._close_lock = threading.Lock()
        self._model_lock = _RWLock()
        self._model_version = 1
        self.metrics.gauge("model_version").set(self._model_version)
        self._watcher: threading.Thread | None = None
        self._watch_stop = threading.Event()
        #: continuous wall-clock profiler of this process (None when
        #: config.profiling is off); worker processes run their own,
        #: shipped back via the pool (see prof_payload)
        self.prof = None
        self._ranker = None
        self.http_server = None
        #: whether this runtime holds the frozen heap (repro.serve.heap)
        self._heap_held = False
        self._gc_lock = threading.Lock()
        # The starting half.  A late step can still fail — the port is
        # taken, a shard worker does not come up — and by then threads,
        # processes and a shared-memory segment exist that no caller
        # holds a handle to: stop what runs, then let the error through.
        try:
            self._start(sharded)
        except BaseException:
            self.close()
            raise

    def _start(self, sharded: bool) -> None:
        """Profiler thread, shard workers, worker threads, HTTP listener."""
        from ..obs.prof import DEFAULT_HZ, SamplingProfiler
        if self.config.profiling:
            self.prof = SamplingProfiler(
                hz=DEFAULT_HZ, role="serve", registry=self.metrics).start()
        if sharded:
            from ..dist import ShardedRanker
            # the runtime's registry doubles as the pool's merge target,
            # so per-shard worker metrics surface in stats()/ /metrics
            self._ranker = ShardedRanker(
                self.model, self.config.num_shards, tracer=self.tracer,
                metrics=self.metrics,
                profile_hz=DEFAULT_HZ if self.config.profiling else 0.0)
        self.metrics.gauge("shards").set(
            self._ranker.num_shards if self._ranker is not None else 0)
        self.batcher.start()
        if self.config.http_port is not None:
            from .http import TelemetryHTTPServer
            self.http_server = TelemetryHTTPServer(
                snapshot_fn=self.stats, health_fn=self.health,
                host=self.config.http_host, port=self.config.http_port,
                diag=self.diag,
                prof_fn=self.prof_payload if self.prof is not None
                else None,
                mem_fn=self.mem_payload)
        # built: what this runtime serves from is long-lived from here on
        for generation in range(3):
            self.metrics.counter("gc_collections", generation=generation)
            self.metrics.gauge("gc_pause_ms", generation=generation)
        self._gc_seen, self._gc_pause_base = heap.totals()
        heap.hold()
        self._heap_held = True

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def submit(self, query: Node | Walk, top_k: int = 10,
               deadline: float | None = None,
               ctx: ServeRequest | None = None,
               lane: Lane = DEFAULT_LANE) -> ServeFuture:
        """Enqueue one query; returns a future resolving to ServeResult.

        ``query`` is a computation graph or its :func:`walk` (a caller
        that has walked it before — the gateway remembers each SPARQL
        text's walk — hands that in and skips the walk).  ``ctx`` is the
        request's record when a door minted it (the gateway does, at
        admission; else the runtime mints one) and ``lane`` is where it
        queues; the runtime finishes the record either way, and the
        record is the future returned.  A lane whose tenant queue is
        full (``Lane.max_queue``) raises :class:`ShedError`
        (``queue_full``), counted and recorded as a shed.
        """
        return self._admit([query], top_k, deadline, lane, ctx)[0]

    def answer(self, query: Node, top_k: int = 10,
               deadline: float | None = None,
               timeout: float | None = None) -> ServeResult:
        """Synchronous single-query answer."""
        return self.submit(query, top_k, deadline).result(timeout)

    def answer_batch(self, queries: list[Node], top_k: int = 10,
                     deadline: float | None = None,
                     timeout: float | None = None) -> list[ServeResult]:
        """Submit many queries at once; results come back in input order.

        The cache misses among them enter the queue as one arrival, so
        they execute as ⌈misses / max_batch_size⌉ batches in input order
        whatever the workers were doing meanwhile.
        """
        requests = self._admit(queries, top_k, deadline, DEFAULT_LANE)
        # ``timeout`` bounds the whole call, not each future's wait
        ends = None if timeout is None else time.monotonic() + timeout
        return [request.result(None if ends is None
                               else max(0.0, ends - time.monotonic()))
                for request in requests]

    def _admit(self, queries, top_k: int, deadline: float | None,
               lane: Lane, minted: ServeRequest | None = None
               ) -> list[ServeRequest]:
        """Count, canonicalise and look up ``queries`` in order; returns
        their requests (``minted``, a door's record, for the one query
        it brings).  The hits are answered on this thread; the misses
        enter the queue as one arrival.  The one place a graph becomes
        a walk; a walk handed in is taken as it is.

        A query that does not canonicalise is refused and its error
        raised — after the ones before it were answered or queued.
        """
        if deadline is None:
            deadline = self.config.default_deadline
        thread = threading.current_thread().name
        requests: list[ServeRequest] = []
        hits: list[ServeRequest] = []
        cached_ids: list[list[int]] = []
        pending: list[ServeRequest] = []
        clock, perf_counter = self._clock, time.perf_counter
        try:
            for query in queries:
                request = minted if minted is not None else ServeRequest(
                    owner=self, diag=self.diag, tracer=self.tracer)
                requests.append(request)
                now = request.submitted_at = clock()
                request.thread = thread
                request.top_k = top_k
                request.received_at = perf_counter()
                try:
                    walked = query if isinstance(query, Walk) \
                        else walk(query)
                    request.walked_at = perf_counter()
                    cached = self._answers.get((walked.key, top_k))
                    request.looked_at = perf_counter()
                except Exception as exc:
                    # whatever stopped it, a counted request gets its
                    # outcome
                    self._refuse([request], type(exc).__name__)
                    raise
                request.structure = walked.structure
                request.model_version = self._model_version
                if cached is not None:
                    request.cache = "hit"
                    hits.append(request)
                    cached_ids.append(list(cached))
                    continue
                request.cache = "miss"
                request.query = walked.canonical
                request.cache_key = walked.key
                request.walk = walked
                # deadlines become absolute on self._clock (monotonic)
                # exactly once, HERE, and are only compared against that
                # clock (at dequeue); wall-clock time never enters
                # deadline math — an NTP step must not expire (or
                # resurrect) in-flight requests.
                request.deadline = None if deadline is None \
                    else now + deadline
                request.lane = lane
                pending.append(request)
        finally:
            # also when a query did not canonicalise: the ones admitted
            # before it are counted requests and get their outcome
            self._requests.inc(len(requests))
            if hits:
                self._answer_hits.inc(len(hits))
                self._answer(hits, cached_ids, "answer_cache")
            if pending:
                self._answer_misses.inc(len(pending))
                self._enqueue(pending)
        return requests

    def _enqueue(self, requests: list[ServeRequest]) -> None:
        """Put admitted requests on the queue under one lock acquisition."""
        try:
            self.batcher.submit(*requests)
        except ShedError as exc:  # a capped lane is full: nothing got in
            self._shed(requests, exc)
            raise
        except RuntimeError:  # closed: nothing of the arrival got in
            self._refuse(requests, "closed")
            raise

    @property
    def model_version(self) -> int:
        """Monotone counter, bumped on every successful :meth:`reload`."""
        return self._model_version

    def reload(self, path: str | os.PathLike,
               expect: dict | None = None) -> int:
        """Hot-swap the model weights from a checkpoint file.

        The manifest is validated (format version, content checksum,
        optional ``expect`` metadata) and the new state is shape-checked
        *before* the swap; the swap itself happens under the exclusive
        side of the model lock, so concurrent :meth:`answer` calls always
        see either the old weights or the new ones, never a mixture.  On
        success the embedding cache is invalidated (cached embeddings
        belong to the old weights) and the answer cache is left to age
        out through its TTL.  Returns the new model version.
        """
        checkpoint = load_checkpoint(path, expect=expect)
        state = checkpoint.state
        if "model" in state and isinstance(state["model"], dict):
            state = state["model"]  # training checkpoints nest the model
        self._model_lock.acquire_write()
        try:
            self.model.load_state_dict(state)  # all-or-nothing
            self._embeddings.clear()
            # rebuild the ranked entity table (write-through when
            # sharded); nobody ranks while the write lock is held
            (self._ranker or self._local).refresh()
            self._model_version += 1
            version = self._model_version
        finally:
            self._model_lock.release_write()
        self.metrics.counter("model_reloads").inc()
        self.metrics.gauge("model_version").set(version)
        return version

    def watch(self, path: str | os.PathLike, interval: float = 1.0,
              expect: dict | None = None) -> None:
        """Poll ``path``'s mtime and :meth:`reload` when it changes.

        One watcher per runtime; stopped by :meth:`close`.  A reload
        that fails (checkpoint mid-write on a non-atomic filesystem,
        metadata mismatch) is counted and retried on the next change.
        """
        if interval <= 0:
            raise ValueError("interval must be positive")
        if self._watcher is not None:
            raise RuntimeError("already watching a checkpoint path")
        path = str(path)

        def poll() -> None:
            last = self._mtime(path)
            while not self._watch_stop.wait(interval):
                current = self._mtime(path)
                if current is None or current == last:
                    continue
                last = current
                try:
                    self.reload(path, expect=expect)
                except CheckpointError:
                    self.metrics.counter("model_reload_failures").inc()

        self._watcher = threading.Thread(target=poll, daemon=True,
                                         name="serve-model-watcher")
        self._watcher.start()

    @staticmethod
    def _mtime(path: str) -> float | None:
        try:
            return os.stat(path).st_mtime
        except OSError:
            return None

    def health(self) -> tuple[bool, dict]:
        """Liveness verdict + detail (the ``/healthz`` payload).

        Healthy means: the runtime is open, a model is loaded, and —
        when ranking is sharded — every shard worker process is alive.
        A SIGKILLed worker flips this to unhealthy until the pool's
        supervision respawns it on the next ranking request.
        """
        detail: dict = {
            "closed": self._closed,
            "model_loaded": self.model is not None,
            "model_version": self._model_version,
            "workers": self.config.num_workers,
            "shards": 0,
            "shards_requested": self.config.num_shards,
        }
        ok = not self._closed and self.model is not None
        if self._ranker is not None:
            alive = self._ranker.pool.alive()
            detail["shards"] = self._ranker.num_shards
            detail["workers_alive"] = alive
            detail["worker_respawns"] = self._ranker.respawns
            if not all(alive):
                ok = False
        elif self.config.num_shards >= 2:
            # why ranking is in-process although shards were asked for
            detail["sharding_unavailable"] = "no_shared_memory"
        return ok, detail

    def stats(self) -> StatsSnapshot:
        """Current metrics, with cache tiers, span stages and the
        collector's work since this runtime opened folded in."""
        collections, pause = heap.totals()
        with self._gc_lock:
            for generation in range(3):
                self.metrics.counter(
                    "gc_collections", generation=generation).inc(
                    collections[generation] - self._gc_seen[generation])
                self.metrics.gauge("gc_pause_ms", generation=generation).set(
                    1000.0 * (pause[generation]
                              - self._gc_pause_base[generation]))
            self._gc_seen = collections
        for name, cache in (("answer_cache", self._answers),
                            ("embedding_cache", self._embeddings)):
            self.metrics.gauge(f"{name}_size").set(cache.stats()["size"])
        self.metrics.gauge("uptime_seconds").set(
            time.monotonic() - self._started_at)
        if self.diag is not None:
            self.diag.slo.evaluate()  # refresh slo_burn_rate gauges
        snapshot = self.metrics.snapshot()
        emb = self._embeddings.stats()
        snapshot.counters["embedding_cache_hits"] = emb["hits"]
        snapshot.counters["embedding_cache_misses"] = emb["misses"]
        snapshot.counters["answer_cache_expirations"] = \
            self._answers.stats()["expirations"]
        snapshot.stages = {name: stage for name, stage
                           in self.tracer.stage_stats().items()
                           if name.startswith("serve.")}
        return snapshot

    # ------------------------------------------------------------------
    # continuous profiling + memory observability (repro.obs.prof)
    # ------------------------------------------------------------------
    def _profiles(self):
        """This process's profile + accumulated shard-worker profiles."""
        profiles = []
        if self.prof is not None:
            profiles.append(self.prof.snapshot())
        if self._ranker is not None:
            profiles.extend(self._ranker.pool.profiles.snapshot())
        return profiles

    def _plan_op_seconds(self) -> dict[str, float]:
        """Cumulative ``plan_stage_seconds`` per op kind, label-folded."""
        from ..obs.metrics import parse_metric_key
        out: dict[str, float] = {}
        for key, value in self.metrics.snapshot().gauges.items():
            name, labels = parse_metric_key(key)
            if name != "plan_stage_seconds":
                continue
            kind = labels.get("kind", "?")
            out[kind] = out.get(kind, 0.0) + float(value)
        return out

    def prof_payload(self, seconds: float = 0.0,
                     role: str | None = None) -> dict:
        """The ``GET /debug/prof`` payload (also ``cli get prof --out``).

        ``seconds > 0`` returns only samples taken during that window
        (the handler blocks for it); otherwise everything since start.
        ``role`` filters to one process role (``serve``, ``shard0``...).
        Worker profiles are as of their last replies — workers piggyback
        deltas on results, there is no side channel to poll.
        """
        from ..obs.prof import (merge_profiles, to_folded, to_speedscope,
                                window_profiles)
        if seconds > 0:
            base = self._profiles()
            time.sleep(min(float(seconds), 60.0))
            profiles = window_profiles(base, self._profiles())
        else:
            profiles = self._profiles()
        if role:
            profiles = [p for p in profiles if p.role == role]
        merged = merge_profiles(profiles)
        return {
            "pid": os.getpid(),
            "roles": sorted({p.role for p in profiles}),
            "window_seconds": float(seconds),
            "effective_hz": self.prof.effective_hz
            if self.prof is not None else 0.0,
            "overhead_ratio": self.prof.overhead_ratio
            if self.prof is not None else 0.0,
            "profiles": [p.to_dict() for p in profiles],
            "merged": merged.to_dict(),
            "folded": to_folded(merged),
            "speedscope": to_speedscope(merged),
            "plan_ops": self._plan_op_seconds(),
        }

    def mem_payload(self) -> dict:
        """The ``GET /debug/mem`` payload: RSS, caches, ranked tables.

        ``processes`` is this process, each shard worker and — when
        sharded — the fork server the workers were forked from.

        ``shard_plan`` is the published segments (entity table plus the
        filter's prepared companion) when shard workers rank,
        ``local_ranker`` the in-process ranker's private pair otherwise.

        Also refreshes the ``process_rss_bytes{role=}`` /
        ``cache_bytes{cache=}`` / ``shard_slab_bytes{shard=}`` gauges so
        scraping ``/metrics`` alone tracks memory over time.
        """
        from ..obs.prof import process_rss_bytes
        processes = [{"role": "serve", "pid": os.getpid(),
                      "rss_bytes": process_rss_bytes()}]
        if self._ranker is not None:
            pool = self._ranker.pool
            for i, pid in enumerate(pool.pids()):
                processes.append({"role": f"shard{i}", "pid": pid,
                                  "rss_bytes": process_rss_bytes(pid)})
            # the workers' parent: the imports they share live there
            server = pool.server_pid()
            processes.append({"role": "forkserver", "pid": server,
                              "rss_bytes": process_rss_bytes(server)})
        for proc in processes:
            self.metrics.gauge("process_rss_bytes",
                               role=proc["role"]).set(proc["rss_bytes"])
        caches = {}
        for name, cache in (("answer_cache", self._answers),
                            ("embedding_cache", self._embeddings),
                            ("plan_template_cache", self._planner.cache)):
            entry = dict(cache.stats())
            entry["bytes"] = cache.nbytes()
            caches[name] = entry
            self.metrics.gauge("cache_bytes", cache=name).set(
                entry["bytes"])
        shards = None
        if self._ranker is not None:
            shards = self._ranker.plan.memory_inventory()
            for row in shards["shards"]:
                self.metrics.gauge(
                    "shard_slab_bytes",
                    shard=str(row["shard"])).set(row["bytes"])
        return {"processes": processes, "caches": caches,
                "shard_plan": shards,
                "local_ranker": None if self._local is None
                else self._local.memory_inventory()}

    def close(self) -> None:
        """Stop in one order: the queue refuses new work and the workers
        drain it and exit (every accepted request resolves, so no HTTP
        reply is cut), then the listener, then the shard workers the
        drained batches were still ranking on, then the profiler."""
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        self._watch_stop.set()
        if self._watcher is not None:
            self._watcher.join()
            self._watcher = None
        self.batcher.close()
        if self.http_server is not None:
            self.http_server.close()
        if self._ranker is not None:
            self._ranker.close()
        if self.prof is not None:
            self.prof.stop()
        if self._heap_held:
            self._heap_held = False
            heap.release()

    def __enter__(self) -> "ServeRuntime":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # batch execution (the batcher's worker threads)
    # ------------------------------------------------------------------
    def _execute_batch(self, batch: list[ServeRequest]) -> bool:
        self.metrics.counter("batches").inc()
        now = self._clock()
        worker = threading.current_thread().name
        live: list[ServeRequest] = []
        late: list[ServeRequest] = []
        shed: list[ServeRequest] = []
        pulled = batch
        while pulled:
            dequeued = time.perf_counter()  # queue wait ends for these
            sheds = len(shed)
            for request in pulled:
                request.worker = worker
                request.dequeued_at = dequeued
                request.queue_ms = 1000.0 * (dequeued - request.looked_at)
                if request.deadline is None:
                    live.append(request)
                elif request.lane.tenant \
                        and self.batcher.doomed(request.deadline - now):
                    shed.append(request)  # a door's: before any work
                elif now >= request.deadline:
                    late.append(request)
                else:
                    live.append(request)
            # a request shed here gives its row to the next one waiting
            pulled = self.batcher.take(batch, len(shed) - sheds)
        for request in batch:
            request.batch_size = len(batch)
        self._batch_sizes.observe(len(batch))
        if shed:
            self._shed(shed)
        for request in late:
            self.metrics.counter("deadline_overruns").inc()
            self._fallback(request, reason="deadline")
        if not live:
            return False  # no work spent: not a service time
        attempts = 1 + MAX_RETRIES
        for attempt in range(attempts):
            try:
                self._model_lock.acquire_read()
                try:
                    self._model_answer(live)
                finally:
                    self._model_lock.release_read()
                return True
            except Exception:
                self.metrics.counter("model_failures").inc()
                if attempt < attempts - 1:
                    self.metrics.counter("retries").inc()
        for request in live:
            self._fallback(request, reason="failure")
        return True

    def _rank(self, embedding, k: int,
              lead: ServeRequest) -> tuple[np.ndarray, float]:
        """Top-k entity ids of a batch embedding — the one ranking path.

        Returns ``(ids, split)``: ``ids`` is ``(B, k)`` and ``split`` the
        ``perf_counter`` instant the kernel returned (the serve.distance
        / serve.rank boundary: filter, refine and selection are one
        fused call, so serve.rank is only the hand-back).

        Every tier — cache-hit single queries, batched misses,
        in-process or sharded (``config.num_shards``) — ranks with the
        model's ``ShardScorer.topk`` (filter-and-refine, no autograd): a
        :class:`~repro.dist.LocalRanker` over the whole wrapped entity
        table, or shard workers over row blocks.  Answers therefore
        agree bitwise *including on ties* — ascending ``(distance,
        entity id)`` — and equal the ``distance_to_all`` oracle's.  The
        shard pool notes the fan-out on ``lead``'s record.
        """
        ids, _ = (self._ranker or self._local).topk(embedding, k, lead)
        return ids, time.perf_counter()

    def _model_answer(self, batch: list[ServeRequest]) -> None:
        """The happy path: embedding tier, then one ranking per group.

        Embedding-cache misses of the whole (mixed-structure) batch
        compile into one shared DAG and come back as one stacked
        embedding per branch count; a cache hit is a one-row group of
        its own.  Every group takes one pass through :meth:`_rank`, so
        the sharded machinery sees hits and misses alike.

        Batched stages are timed once and the instants written on
        *every* participating request (the attribute dicts and the
        plan-stage map are shared, never written after), so each
        request's flight record and trace tree stay complete.
        """
        sharded = self._ranker is not None
        #: (requests, stacked embedding, came out of the embed stage)
        groups: list[tuple[list[ServeRequest], object, bool]] = []
        misses: list[ServeRequest] = []
        cached = self._embeddings.get_many([r.cache_key for r in batch])
        for request, embedding in zip(batch, cached):
            if embedding is None:
                misses.append(request)
            else:
                groups.append(([request], embedding, False))
        if misses:
            from ..plan import execute_plan
            embed_start = time.perf_counter()
            compiled = self._planner.compile_walks([r.walk for r in misses])
            stage_cost: dict[str, float] = {}  # per op kind, this batch
            ranked = execute_plan(compiled.plan, self._plan_backend,
                                  tracer=self.tracer, registry=self.metrics,
                                  cost=stage_cost)
            embed_end = time.perf_counter()
            embed_ms = 1000.0 * (embed_end - embed_start)
            plan = compiled.plan
            embed_attrs = dict(batch_size=len(misses), ops=len(plan.ops),
                               ops_saved=plan.ops_saved,
                               cache_hits=compiled.cache_hits)
            if self._sliceable:
                # sequential puts, but only the rows the tier keeps are
                # sliced (a one-entry tier keeps the last)
                rows = [(group.embedding, row) for group in ranked
                        for row in range(len(group.positions))]
                self._embeddings.put_many(
                    [misses[p].cache_key for group in ranked
                     for p in group.positions],
                    lambda index: self.model.slice_embedding(*rows[index]))
            for group in ranked:
                groups.append(([misses[p] for p in group.positions],
                               group.embedding, True))
        done: list[ServeRequest] = []
        answers: list[list[int]] = []
        for requests, embedding, embedded in groups:
            # a group shares one gather: the pool notes the fan-out on
            # the first request's record, which is that of the group
            lead = requests[0]
            started = time.perf_counter()
            ids, split = self._rank(embedding,
                                    max(r.top_k for r in requests), lead)
            ended = time.perf_counter()
            distance_ms = 1000.0 * (split - started)
            rank_ms = 1000.0 * (ended - split)
            attrs = dict(batch_size=len(requests),
                         embedding_cached=not embedded, sharded=sharded)
            shards = lead.shards
            for request, top in zip(requests, ids.tolist()):
                if embedded:
                    request.plan_ops_total = plan.ops_total
                    request.plan_ops_executed = len(plan.ops)
                    request.plan_stage_ms = stage_cost
                    request.embed_at = embed_start
                    request.embedded_at = embed_end
                    request.embed_attrs = embed_attrs
                    request.embed_ms = embed_ms
                request.embedding_cached = not embedded
                request.shards = shards
                request.rank_at = started
                request.split_at = split
                request.ranked_at = ended
                request.rank_attrs = attrs
                request.distance_ms = distance_ms
                request.rank_ms = rank_ms
                done.append(request)
                # a request's top_k prefix of the widest selection is
                # exactly its own top-k: the order is total
                answers.append(top[:request.top_k])
        self._answer(done, answers, "model")

    # ------------------------------------------------------------------
    # graceful degradation
    # ------------------------------------------------------------------
    def _fallback(self, request: ServeRequest, reason: str) -> None:
        """The one rung below the model path (deadline overrun at
        dequeue, or failure after the retries): the exact symbolic
        answer when a ``kg`` was given, else an error."""
        request.fallback = reason
        started = time.perf_counter()
        try:
            ids = self._exact_answer(request)
        except Exception:
            ids = None
        if ids is not None:
            request.fallback_at = started
            request.fell_back_at = time.perf_counter()
            self._answer([request], [ids], "exact")
            return
        self._refuse([request], reason)
        request.set_exception(ServeError(
            f"request failed ({reason}) and no fallback path succeeded"))

    def _exact_answer(self, request: ServeRequest) -> list[int] | None:
        if self.kg is None:
            return None
        answers = sorted(execute(request.query, self.kg))
        self.metrics.counter("fallback_exact").inc()
        return answers[:request.top_k]

    def _shed(self, requests: list[ServeRequest],
              error: ShedError | None = None) -> None:
        """A door's requests refused past admission: by default ones
        whose budget cannot cover one more batch, else ``error``'s
        reason."""
        reason = "deadline" if error is None else error.reason
        for request in requests:
            self.metrics.counter("shed", reason=reason,
                                 tenant=request.lane.tenant).inc()
            request.admission = reason
        self._end(requests, "shed", error=reason)
        commit(requests)
        for request in requests:
            request.set_exception(
                error if error is not None
                else ShedError("deadline", tenant=request.lane.tenant))

    def _refuse(self, requests: list[ServeRequest], error: str) -> None:
        """Counted requests that end in an error: their outcome."""
        self.metrics.counter("errors").inc(len(requests))
        self._end(requests, "error", error=error)
        commit(requests)

    # ------------------------------------------------------------------
    def _answer(self, requests: list[ServeRequest],
                answers: list[list[int]], source: str) -> None:
        """Resolve ``requests`` with their answers, ``answers[i]`` the
        ids of ``requests[i]``: their outcomes go in under one hold each
        of the latency histogram, the answer cache (model answers) and
        the diagnostics sinks, before any future resolves."""
        latencies = self._end(requests, source, answers=answers)
        self._latency.observe_many([r.latency_ms for r in requests],
                                   [r.request_id for r in requests])
        if source == "model":
            self._answers.put_many(
                [((request.cache_key, request.top_k), ids)
                 for request, ids in zip(requests, answers)])
        commit(requests)
        for request, ids, latency in zip(requests, answers, latencies):
            request.set_result(ServeResult(ids, source, latency,
                                           request_id=request.request_id))

    def _end(self, requests: list[ServeRequest], source: str,
             error: str = "", answers: list | None = None) -> list[float]:
        """Stamp the outcome of requests that end now — the runtime's
        one exit, taken before they are committed — and return their
        latencies (a door's record also gets its ``total_ms``)."""
        now = self._clock()
        latencies = []
        for index, request in enumerate(requests):
            latency = now - request.submitted_at
            latency_ms = 1000.0 * latency
            request.source = source
            request.error = error
            request.latency_ms = latency_ms
            request.total_ms = 0.0 if request.owner is self else latency_ms
            if answers is not None:
                request.result_count = len(answers[index])
            # the query is answered: a kept record holds only its stamps
            request.query = request.walk = None
            latencies.append(latency)
        return latencies
