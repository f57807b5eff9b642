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
from ..obs.diag import DiagConfig, Diagnostics, RequestContext
from ..obs.metrics import MetricsRegistry, StatsSnapshot
from ..obs.trace import Tracer, get_tracer
from ..queries.computation_graph import Node
from ..queries.executor import execute
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


@dataclass
class _Pending(ServeRequest):
    """ServeRequest plus the runtime bookkeeping fields."""

    walk: Walk | None = None  # the query's one walk (admission)
    submitted_at: float = 0.0
    #: ``perf_counter`` instant its ``serve.queue`` stage starts
    queued_at: float = 0.0
    #: the request's diagnostics; the runtime finishes it
    ctx: RequestContext | None = None


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
        from a context's stamps (request → canonicalise / cache_lookup /
        queue / embed / distance / rank, or the fallback stages): a tree
        the tail sampler keeps, and while ``repro.obs`` tracing is
        enabled every tree, which then also lands in the tracer's ring
        so :meth:`stats` folds per-stage timings into the snapshot.
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

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def submit(self, query: Node | Walk, top_k: int = 10,
               deadline: float | None = None,
               ctx: RequestContext | None = None,
               lane: Lane = DEFAULT_LANE) -> ServeFuture:
        """Enqueue one query; returns a future resolving to ServeResult.

        ``query`` is a computation graph or its :func:`walk` (a caller
        that has walked it before — the gateway remembers each SPARQL
        text's walk — hands that in and skips the walk).  ``ctx`` joins
        the request to upstream diagnostics (the gateway mints one at
        admission; else the runtime does) and ``lane`` is where it
        queues; the runtime finishes the context either way.  A lane
        whose tenant queue is full (``Lane.max_queue``) raises
        :class:`ShedError` (``queue_full``), counted and recorded as a
        shed.
        """
        pending: list[_Pending] = []
        future = self._admit(query, top_k, deadline, ctx, pending, lane)
        self._enqueue(pending)
        return future

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
        pending: list[_Pending] = []
        try:
            futures = [self._admit(query, top_k, deadline, None, pending)
                       for query in queries]
        finally:
            # also when a query did not canonicalise: the ones admitted
            # before it are counted requests and get their outcome
            self._enqueue(pending)
        # ``timeout`` bounds the whole call, not each future's wait
        ends = None if timeout is None else time.monotonic() + timeout
        return [future.result(None if ends is None
                              else max(0.0, ends - time.monotonic()))
                for future in futures]

    def _admit(self, query: Node | Walk, top_k: int,
               deadline: float | None, ctx: RequestContext | None,
               pending: list[_Pending],
               lane: Lane = DEFAULT_LANE) -> ServeFuture:
        """Count, canonicalise and look up one query: its future comes
        back resolved on an answer-cache hit; else its request joins
        ``pending``, for the caller to enqueue.  The one place a graph
        becomes a walk; a walk handed in is taken as it is."""
        self._requests.inc()
        now = self._clock()
        if ctx is None:
            ctx = RequestContext(self, self.diag, self.tracer)
        ctx.enter("serve.request", top_k=top_k)
        try:
            started = time.perf_counter()
            walked = query if isinstance(query, Walk) else walk(query)
            walked_at = time.perf_counter()
            cached = self._answers.get((walked.key, top_k))
            ctx.stage("serve.canonicalise", started, walked_at)
            ctx.stage("serve.cache_lookup", walked_at, time.perf_counter())
            ctx.note(structure=walked.structure,
                     model_version=self._model_version,
                     cache="miss" if cached is None else "hit")
        except Exception as exc:
            # whatever stopped it, a counted request gets its outcome
            self._refuse(ctx, now, type(exc).__name__)
            raise
        if cached is not None:
            self._answer_hits.inc()
            latency = self._clock() - now
            self._leave(ctx, latency, "answer_cache", len(cached))
            future = ServeFuture()
            future.set_result(ServeResult(list(cached), "answer_cache",
                                          latency=latency,
                                          request_id=ctx.request_id))
            self._latency.observe(1000.0 * latency, exemplar=ctx.request_id)
            return future
        self._answer_misses.inc()
        if deadline is None:
            deadline = self.config.default_deadline
        ctx.tag(structure=walked.structure,
                model_version=self._model_version)
        # deadlines become absolute on self._clock (monotonic) exactly
        # once, HERE, and are only compared against that clock (at
        # dequeue); wall-clock time never enters deadline math — an NTP
        # step must not expire (or resurrect) in-flight requests.
        request = _Pending(
            query=walked.canonical, top_k=top_k, cache_key=walked.key,
            deadline=None if deadline is None else now + deadline,
            lane=lane, walk=walked, submitted_at=now,
            queued_at=time.perf_counter(), ctx=ctx)
        pending.append(request)
        return request.future

    def _enqueue(self, requests: list[_Pending]) -> None:
        """Put admitted requests on the queue under one lock acquisition."""
        if not requests:
            return
        try:
            self.batcher.submit(*requests)
        except ShedError as exc:  # a capped lane is full: nothing got in
            now = self._clock()
            for request in requests:
                self._shed(request, now, exc)
            raise
        except RuntimeError:  # closed: nothing of the arrival got in
            for request in requests:
                self._refuse(request.ctx, request.submitted_at, "closed")
            raise

    def _refuse(self, ctx: RequestContext, since: float,
                error: str) -> None:
        """A counted request that ends in an error: its outcome."""
        self.metrics.counter("errors").inc()
        self._leave(ctx, self._clock() - since, "error", error=error)

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
        """Current metrics, with cache tiers and span stages folded in."""
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

    def __enter__(self) -> "ServeRuntime":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # batch execution (the batcher's worker threads)
    # ------------------------------------------------------------------
    def _execute_batch(self, batch: list[_Pending]) -> bool:
        self.metrics.counter("batches").inc()
        self._batch_sizes.observe(len(batch))
        now = self._clock()
        dequeued = time.perf_counter()  # queue wait ends for the batch
        live: list[_Pending] = []
        for request in batch:
            request.ctx.stage("serve.queue", request.queued_at, dequeued)
            request.ctx.note(batch_size=len(batch))
            if request.deadline is not None and request.lane.tenant \
                    and self.batcher.doomed(request.deadline - now):
                self._shed(request, now)  # a door's: before any work
            elif request.deadline is not None and now >= request.deadline:
                self.metrics.counter("deadline_overruns").inc()
                self._fallback(request, reason="deadline")
            else:
                live.append(request)
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
              ctx: RequestContext) -> tuple[np.ndarray, float]:
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
        shard pool notes the fan-out on ``ctx``.
        """
        ids, _ = (self._ranker or self._local).topk(embedding, k, ctx)
        return ids, time.perf_counter()

    def _model_answer(self, batch: list[_Pending]) -> None:
        """The happy path: embedding tier, then one ranking per group.

        Embedding-cache misses of the whole (mixed-structure) batch
        compile into one shared DAG and come back as one stacked
        embedding per branch count; a cache hit is a one-row group of
        its own.  Every group takes one pass through :meth:`_rank`, so
        the sharded machinery sees hits and misses alike.

        Batched stages are timed once and the interval staged on *every*
        participating request's context, so each request's flight record
        and trace tree stay complete.
        """
        sharded = self._ranker is not None
        #: (requests, stacked embedding, came out of the embed stage)
        groups: list[tuple[list[_Pending], object, bool]] = []
        misses: list[_Pending] = []
        for request in batch:
            embedding = self._embeddings.get(request.cache_key)
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
            plan = compiled.plan
            embed_fields = dict(plan_ops_total=plan.ops_total,
                                plan_ops_executed=len(plan.ops),
                                plan_stage_ms=stage_cost)
            embed_attrs = dict(batch_size=len(misses), ops=len(plan.ops),
                               ops_saved=plan.ops_saved,
                               cache_hits=compiled.cache_hits)
            for group in ranked:
                requests = [misses[p] for p in group.positions]
                for row, request in enumerate(requests):
                    sliced = self.model.slice_embedding(group.embedding,
                                                        row)
                    if sliced is not None:
                        self._embeddings.put(request.cache_key, sliced)
                groups.append((requests, group.embedding, True))
        answers: list[tuple[_Pending, list[int]]] = []
        for requests, embedding, embedded in groups:
            # a group shares one gather: the pool stamps the first
            # request's id and notes the fan-out on its record, which
            # is that of the whole group
            lead = requests[0].ctx
            started = time.perf_counter()
            ids, split = self._rank(embedding,
                                    max(r.top_k for r in requests), lead)
            ended = time.perf_counter()
            fields = dict(embed_fields if embedded else (),
                          embedding_cached=not embedded,
                          shards=lead.record.shards)
            attrs = dict(batch_size=len(requests),
                         embedding_cached=not embedded, sharded=sharded)
            for request, top in zip(requests, ids.tolist()):
                ctx = request.ctx
                ctx.note(**fields)
                if embedded:
                    ctx.stage("serve.embed", embed_start, embed_end,
                              embed_attrs)
                ctx.stage("serve.distance", started, split, attrs)
                ctx.stage("serve.rank", split, ended)
                # a request's top_k prefix of the widest selection is
                # exactly its own top-k: the order is total
                answers.append((request, top[:request.top_k]))
        for request, entity_ids in answers:
            self._resolve(request, entity_ids, source="model")

    # ------------------------------------------------------------------
    # graceful degradation
    # ------------------------------------------------------------------
    def _fallback(self, request: _Pending, reason: str) -> None:
        """The one rung below the model path (deadline overrun at
        dequeue, or failure after the retries): the exact symbolic
        answer when a ``kg`` was given, else an error."""
        request.ctx.note(fallback=reason)
        started = time.perf_counter()
        try:
            ids = self._exact_answer(request)
        except Exception:
            ids = None
        if ids is not None:
            request.ctx.stage("serve.fallback", started,
                              time.perf_counter(),
                              {"reason": reason, "path": "exact"})
            self._resolve(request, ids, source="exact")
            return
        self._refuse(request.ctx, request.submitted_at, reason)
        request.future.set_exception(ServeError(
            f"request failed ({reason}) and no fallback path succeeded"))

    def _exact_answer(self, request: _Pending) -> list[int] | None:
        if self.kg is None:
            return None
        answers = sorted(execute(request.query, self.kg))
        self.metrics.counter("fallback_exact").inc()
        return answers[:request.top_k]

    def _shed(self, request: _Pending, now: float,
              error: ShedError | None = None) -> None:
        """A door's request refused past admission: by default one whose
        budget cannot cover one more batch, else ``error``'s reason."""
        tenant = request.lane.tenant
        if error is None:
            error = ShedError("deadline", tenant=tenant)
        reason = error.reason
        self.metrics.counter("shed", reason=reason, tenant=tenant).inc()
        request.ctx.note(admission=reason)
        self._leave(request.ctx, now - request.submitted_at, "shed",
                    error=reason)
        request.future.set_exception(error)

    # ------------------------------------------------------------------
    def _resolve(self, request: _Pending, ids: list[int],
                 source: str) -> None:
        latency = self._clock() - request.submitted_at
        rid = request.ctx.request_id
        self._latency.observe(1000.0 * latency, exemplar=rid)
        if source == "model":
            self._answers.put((request.cache_key, request.top_k), ids)
        self._leave(request.ctx, latency, source, len(ids))
        request.future.set_result(ServeResult(ids, source, latency,
                                              request_id=rid))

    def _leave(self, ctx: RequestContext, latency: float, source: str,
               result_count: int = 0, error: str = "") -> None:
        """The runtime's one exit, taken before the future resolves:
        stamp the outcome, close ``serve.request`` and finish the
        context (a door's context also gets its ``total_ms``)."""
        ctx.note(source=source, result_count=result_count,
                 latency_ms=1000.0 * latency, error=error)
        ctx.leave(source=source, **({"reason": error} if error else {}))
        ctx.finish(total_ms=0.0 if ctx.owner is self else 1000.0 * latency)
