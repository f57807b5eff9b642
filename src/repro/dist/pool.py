"""Persistent shard worker processes: warm, supervised, respawnable.

:class:`ShardWorkerPool` runs one OS process per shard.  Workers are
*persistent* — started once, kept warm across requests — because even a
warm start (a fork, the role's setup, a ready handshake) must never sit
on the per-query path.

Start-up: workers are forked by multiprocessing's ``forkserver``.  The
first pool in a process launches one single-threaded server interpreter
that imports this package (:data:`_PRELOAD`) once; every later worker —
of any pool, and every respawn — is a fork of that server and starts
with ``repro`` already imported (~20 ms instead of a fresh interpreter's
~0.4 s).  The server runs no serving threads, so forking it duplicates
no lock state, which is what rules ``fork`` from the owner out.  The
entry point is the module-level :func:`_worker_main`, and everything a
worker needs arrives as picklable ``Process`` args — a
:class:`WorkerRole` describing what to do and how to attach its
shared-memory views — so a worker whose server lacks the preload
imports what it unpickles itself, as a fresh interpreter would.  A
worker exits when the process that started it does, even when that
process was killed and ran no handler.

Supervision: every request carries a sequence number.  While waiting for
a reply the parent polls worker liveness; a worker that died (OOM-killed,
segfault, crash-injection in tests) is respawned, its shared-memory views
re-attached by the fresh process, and the in-flight request re-sent —
the caller sees a slower answer, never a wrong or missing one.  Replies
with stale sequence numbers (from a worker that died *after* computing)
are discarded.

Telemetry has one writer, the owner.  A worker holds no tracer and no
registry: a reply is the role's result, the worker-measured
``(started, ended)`` interval of its ``handle()``, what the role
measured on the way (phase intervals, counts) and — for a role with
``profile_hz > 0`` — the folded-stack delta of the worker's continuous
sampling profiler (:mod:`repro.obs.prof`), the one thing only the
worker can measure.  For each accepted reply the pool records a
``worker.handle`` span with the worker's pid under the span that was
current at ``dispatch()`` (when tracing was on then), and
:meth:`WorkerRole.record` turns the role's measurements into its phase
spans below that one and its metric series in
:attr:`ShardWorkerPool.metrics`; profile deltas accumulate per worker
in :attr:`ShardWorkerPool.profiles` and set the ``prof_*{role=...}``
series.  A Chrome trace thus shows per-worker swimlanes nested inside
the dispatching request, with no side channel.  A *stale* reply is
discarded before any of this is read — a respawned worker's
re-computation is recorded exactly once, never double-counted.

Shutdown is graceful-then-firm: a stop message, a bounded ``join``, then
``terminate``/``kill`` for stragglers, and queue teardown — tests assert
no orphan processes and no leaked segments after :meth:`close`.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import queue as queue_mod
import sys
import threading
import time
import traceback

from ..obs import trace as obs_trace
from ..obs.metrics import MetricsRegistry
from ..obs.prof import Profile, ProfileStore, SamplingProfiler
from ..obs.trace import Span, Tracer

__all__ = ["WorkerRole", "ShardWorkerPool", "WorkerCrash", "DistError"]

#: how long a worker gets to finish cleanly at close() before terminate()
_STOP_GRACE = 5.0
#: seconds a worker gets to start and run its role's setup (on a
#: process's first pool, including the fork server's launch and imports)
START_TIMEOUT = 60.0
#: whether a dead worker is transparently restarted (crash-injection
#: tests rely on it)
RESPAWN = True
#: poll interval while waiting for a reply (liveness check cadence)
_POLL = 0.05
#: what the fork server imports before its first fork: every module a
#: worker unpickles or runs (the roles, the scorer, ``repro.obs``)
_PRELOAD = [__package__]
#: serialises launching the fork server (it borrows ``PYTHONPATH``)
_SERVER_LOCK = threading.Lock()


def _start_context():
    """The ``forkserver`` context, its server running with the preload.

    CPython 3.11's ``forkserver.main`` accepts the owner's ``sys_path``
    and ignores it, so a server launched as-is could not import a
    ``repro`` the owner found through a path its script inserted.  It is
    launched with the owner's ``sys.path`` as its ``PYTHONPATH`` instead,
    and the owner's environment is put back before this returns.  The
    server keeps the environment it was launched with; a running server
    is left alone (``ensure_running`` only launches a missing one).
    """
    # imported here, not at module level: a process that builds no pool
    # (every unsharded runtime imports this package) skips its imports
    from multiprocessing import forkserver

    ctx = mp.get_context("forkserver")
    ctx.set_forkserver_preload(_PRELOAD)
    with _SERVER_LOCK:
        saved = os.environ.get("PYTHONPATH")
        os.environ["PYTHONPATH"] = os.pathsep.join(
            os.path.abspath(entry) for entry in sys.path)
        try:
            forkserver.ensure_running()
        finally:
            if saved is None:
                del os.environ["PYTHONPATH"]
            else:
                os.environ["PYTHONPATH"] = saved
    return ctx


class DistError(RuntimeError):
    """A shard worker failed in a way a respawn cannot fix."""


class WorkerCrash(RuntimeError):
    """Raised in tests/injection to simulate a hard worker death."""


class WorkerRole:
    """What one worker process does (picklable; shipped at start).

    Subclasses implement :meth:`setup` (runs once in the worker: attach
    shared memory, build state), :meth:`handle` (runs per request, in
    the worker) and :meth:`record` (runs per accepted reply, in the
    owner).  ``teardown`` releases what setup acquired.

    ``profile_hz`` > 0 runs a :class:`repro.obs.prof.SamplingProfiler`
    in the worker for the process's lifetime, tagged ``profile_role``;
    its folded-stack deltas ride back on replies.
    """

    #: continuous-profiler sampling rate in this worker (0 = off)
    profile_hz: float = 0.0
    #: role tag on the worker's profiles (e.g. ``shard3``)
    profile_role: str = "worker"

    def setup(self):
        """Return worker-local state passed to every :meth:`handle`."""
        return None

    def handle(self, state, payload):
        """Compute one reply: ``(result, measured)``, both picklable.

        ``measured`` is what :meth:`record` makes telemetry of in the
        owner; the worker itself records nothing."""
        raise NotImplementedError

    def record(self, metrics: MetricsRegistry, payload, measured) -> list:
        """Owner side of one accepted reply to ``payload``: write the
        role's metric series into ``metrics`` and return its phase
        spans, ``(name, start, end, attrs)`` each, which the pool
        records under that reply's ``worker.handle`` when traced."""
        return []

    def teardown(self, state) -> None:
        """Release worker-local resources (close shm views, ...)."""


def _worker_main(role: WorkerRole, task_q, result_q) -> None:
    """Worker process body: setup, serve requests, teardown.

    The worker writes no telemetry.  An ``ok`` reply carries the role's
    result, the ``(started, ended)`` interval of its ``handle()``, what
    the role measured, and the profiler's delta since the previous
    reply (None when profiling is off or took no sample since).
    """
    threading.Thread(target=_exit_with_owner, daemon=True,
                     name="repro-dist-owner-watch").start()
    sampler = None
    if role.profile_hz > 0:
        sampler = SamplingProfiler(hz=role.profile_hz,
                                   role=role.profile_role).start()
    try:
        state = role.setup()
    except BaseException:
        result_q.put(("boot_error", 0, traceback.format_exc()))
        return
    result_q.put(("ready", 0, os.getppid()))
    try:
        while True:
            message = task_q.get()
            kind = message[0]
            if kind == "stop":
                break
            if kind == "task":
                _, seq, payload = message
                started = time.perf_counter()
                try:
                    result, measured = role.handle(state, payload)
                except WorkerCrash:  # crash injection: die like SIGKILL
                    os._exit(1)
                except BaseException:
                    result_q.put(("error", seq, traceback.format_exc()))
                else:
                    ended = time.perf_counter()
                    prof = None if sampler is None else sampler.drain()
                    result_q.put(("ok", seq, (result, started, ended,
                                              measured, prof)))
    finally:
        if sampler is not None:
            sampler.stop()
        role.teardown(state)


def _exit_with_owner() -> None:
    """End this worker when the process that started it ends.

    A killed owner runs no handler and sends no stop: the worker would
    block on its task queue for good, and its inherited tracker fd would
    keep the resource tracker — and so the segments — alive.  Under the
    fork server the parent process is still the owner (the sentinel is
    the owner's end of the pipe the worker was started through).
    """
    owner = mp.parent_process()
    if owner is not None:
        owner.join()
        os._exit(1)


class _Worker:
    """Parent-side handle of one worker process."""

    def __init__(self, role: WorkerRole):
        self.role = role
        #: pid the worker was forked from (reported with its ready)
        self.parent_pid: int | None = None
        ctx = _start_context()
        self.task_q = ctx.Queue()
        self.result_q = ctx.Queue()
        self.process = ctx.Process(
            target=_worker_main, args=(role, self.task_q, self.result_q),
            daemon=True, name="repro-dist-worker")
        self.process.start()

    def wait_ready(self, timeout: float) -> None:
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise DistError("shard worker did not come up in time")
            try:
                kind, _, detail = self.result_q.get(timeout=min(remaining,
                                                                _POLL * 4))
            except queue_mod.Empty:
                if not self.process.is_alive():
                    raise DistError("shard worker died during start-up")
                continue
            if kind == "boot_error":
                raise DistError(f"shard worker failed to start:\n{detail}")
            if kind == "ready":
                self.parent_pid = detail
                return

    def drain(self) -> None:
        """Discard stale replies left over from a superseded request."""
        while True:
            try:
                self.result_q.get_nowait()
            except (queue_mod.Empty, OSError, ValueError):
                return

    def stop(self) -> None:
        try:
            self.task_q.put(("stop",))
        except (OSError, ValueError):  # queue already torn down
            pass
        self.process.join(timeout=_STOP_GRACE)
        if self.process.is_alive():  # pragma: no cover - stuck worker
            self.process.terminate()
            self.process.join(timeout=1.0)
            if self.process.is_alive():
                self.process.kill()
                self.process.join(timeout=1.0)
        # A worker that exited by itself read "stop", the last thing put:
        # the task queue's feeder thread has nothing left to write, so
        # waiting for it is short and close() leaves no thread behind.
        # After a kill the pipe may be full with nobody reading — then
        # the feeder is abandoned rather than waited for.
        for q in (self.task_q, self.result_q):
            if self.process.exitcode == 0:
                q.close()
                q.join_thread()
            else:
                q.cancel_join_thread()
                q.close()


class ShardWorkerPool:
    """K supervised worker processes executing :class:`WorkerRole` s.

    Parameters
    ----------
    roles:
        One role per worker (e.g. a rank role per entity shard).
    tracer:
        Where the workers' spans are recorded (default: the
        process-wide tracer).
    metrics:
        Registry the workers' series are recorded into.  Pass the
        owner's registry (the serving runtime does) to surface per-shard
        counters next to the serving metrics; defaults to a pool-local
        registry exposed as :attr:`metrics`.
    """

    def __init__(self, roles: list[WorkerRole],
                 tracer: Tracer | None = None,
                 metrics: MetricsRegistry | None = None):
        if not roles:
            raise ValueError("need at least one worker role")
        self._tracer = tracer
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: per-(role, pid) worker profiles accumulated from reply deltas
        self.profiles = ProfileStore()
        self.respawns = 0
        self._seq = 0
        # telemetry context of the newest fan-out (replies to an older
        # one are stale and dropped whole, so it is the only one read):
        # the dispatching request's context, whether tracing was on, and
        # the span each worker.handle hangs under
        self._request = None
        self._traced = False
        self._handle_parent: Span | None = None
        self._closed = False
        self._workers = [_Worker(role) for role in roles]
        try:
            for worker in self._workers:
                worker.wait_ready(START_TIMEOUT)
        except BaseException:
            self.close()
            raise

    @property
    def tracer(self) -> Tracer:
        return self._tracer if self._tracer is not None \
            else obs_trace.get_tracer()

    # ------------------------------------------------------------------
    @property
    def num_workers(self) -> int:
        return len(self._workers)

    def alive(self) -> list[bool]:
        """Liveness of each worker (diagnostics/tests)."""
        return [w.process.is_alive() for w in self._workers]

    def pids(self) -> list[int]:
        return [w.process.pid for w in self._workers]

    def server_pid(self) -> int | None:
        """Pid of the fork server the first worker was forked from."""
        return self._workers[0].parent_pid

    # ------------------------------------------------------------------
    def broadcast(self, payloads, timeout: float | None = None):
        """Send one payload per worker; gather one reply per worker.

        Returns ``(replies, timings)`` where ``timings[i]`` is worker
        *i*'s measured ``(start, end)`` ``perf_counter`` interval for
        per-shard latency attribution.  A worker found dead is respawned
        (re-running its role's setup, so it re-attaches shared memory)
        and its payload re-sent; a worker that *raises* is not retried —
        the same input would fail again — and the pool raises
        :class:`DistError` with the worker traceback.
        """
        seq = self.dispatch(payloads)
        return self.gather(seq, payloads, timeout=timeout)

    def dispatch(self, payloads, ctx=None) -> int:
        """Fan one payload out to each worker; returns the sequence id.

        Pair with :meth:`gather` (or use :meth:`broadcast` for both) —
        split so callers can trace the fan-out separately from the wait.
        ``ctx`` is the dispatching request's
        :class:`~repro.obs.diag.RequestContext`: its id is stamped on
        every worker span recorded for this fan-out, and :meth:`gather`
        notes the fan-out on its flight record.
        """
        if self._closed:
            raise DistError("pool is closed")
        if len(payloads) != len(self._workers):
            raise ValueError(f"{len(payloads)} payloads for "
                             f"{len(self._workers)} workers")
        self._seq += 1
        seq = self._seq
        # capture the telemetry context once per fan-out: worker spans
        # hang under whatever span is current *here* (e.g. the ranker's
        # shard.dispatch), and only a fan-out dispatched with tracing on
        # gets any
        self._request = ctx
        self._traced = obs_trace.is_enabled()
        self._handle_parent = self.tracer.current() if self._traced \
            else None
        for worker, payload in zip(self._workers, payloads):
            self._send(worker, seq, payload)
        return seq

    def gather(self, seq: int, payloads, timeout: float | None = None):
        """Collect every worker's reply to :meth:`dispatch` call ``seq``."""
        replies = [None] * len(self._workers)
        timings = [None] * len(self._workers)
        deadline = None if timeout is None else time.monotonic() + timeout
        for index in range(len(self._workers)):
            replies[index], timings[index] = self._collect(
                index, seq, payloads[index], deadline)
        if self._request is not None:
            self._request.note(shards=len(self._workers))
            self._request = None  # the pool keeps no request alive
        return replies, timings

    def _send(self, worker: _Worker, seq: int, payload) -> None:
        if not worker.process.is_alive():
            worker = self._respawn(self._workers.index(worker))
        worker.task_q.put(("task", seq, payload))

    def _collect(self, index: int, seq: int, payload, deadline):
        """Wait for worker ``index``'s reply to ``seq``; heal crashes.

        Returns ``(reply, (start, end))``.
        """
        while True:
            worker = self._workers[index]
            try:
                kind, got_seq, detail = worker.result_q.get(timeout=_POLL)
            except queue_mod.Empty:
                if not worker.process.is_alive():
                    # died mid-request: respawn and re-send the same work
                    worker = self._respawn(index)
                    worker.task_q.put(("task", seq, payload))
                elif deadline is not None and time.monotonic() > deadline:
                    raise DistError(f"shard worker {index} timed out")
                continue
            if got_seq != seq:
                # stale reply from before a respawn: dropped before
                # anything in it is read, so a superseded computation is
                # never recorded (no double counts, no phantom spans)
                continue
            if kind == "error":
                raise DistError(f"shard worker {index} failed:\n{detail}")
            reply, started, ended, measured, prof = detail
            self._record(worker, seq, payload, started, ended, measured)
            if prof is not None:
                self._record_profile(prof)
            return reply, (started, ended)

    def _request_id(self) -> str:
        return self._request.request_id if self._request is not None else ""

    def _record(self, worker: _Worker, seq: int, payload, started: float,
                ended: float, measured) -> None:
        """Write the spans and series of one accepted reply: the only
        place a worker's telemetry is written."""
        phases = worker.role.record(self.metrics, payload, measured)
        if not self._traced:
            return
        pid = worker.process.pid
        request_id = self._request_id()
        stamp = {"request_id": request_id} if request_id else {}
        handle = self.tracer.record("worker.handle", started, ended,
                                    parent=self._handle_parent, pid=pid,
                                    seq=seq, **stamp)
        if handle is None:  # tracing switched off since the dispatch
            return
        for name, start, end, attrs in phases:
            self.tracer.record(name, start, end, parent=handle, pid=pid,
                               **attrs, **stamp)

    def _record_profile(self, prof: Profile) -> None:
        """Fold one reply's profile delta into :attr:`profiles` and the
        worker's ``prof_*{role=...}`` series."""
        self.profiles.merge_delta(prof)
        role = prof.role
        samples, hz, ratio = self.metrics.handles(
            ("prof", role),
            lambda m: (m.counter("prof_samples", role=role),
                       m.gauge("prof_effective_hz", role=role),
                       m.gauge("prof_overhead_ratio", role=role)))
        samples.inc(prof.samples)
        hz.set(prof.hz)
        ratio.set(prof.overhead_ratio)
        if prof.downsamples:
            self.metrics.counter("prof_downsamples", role=role).inc(
                prof.downsamples)

    def _respawn(self, index: int) -> _Worker:
        if not RESPAWN:
            raise DistError(f"shard worker {index} died "
                            f"(respawn disabled)")
        old = self._workers[index]
        old.stop()
        fresh = _Worker(old.role)
        fresh.wait_ready(START_TIMEOUT)
        self._workers[index] = fresh
        self.respawns += 1
        self.metrics.counter("worker_respawns", worker=index).inc()
        return fresh

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop every worker; idempotent; leaves no orphan processes."""
        if self._closed:
            return
        self._closed = True
        for worker in self._workers:
            worker.drain()
            worker.stop()

    def __enter__(self) -> "ShardWorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
