"""Measurement plumbing shared by the workloads: spans, the closed-loop
HTTP client, percentiles, RSS, and the hang and leak guards.

Nothing here knows about a particular workload, and nothing here is
imported by the program under test: spans are recorded by the benchmark
around its own calls into the program's public functions.
"""

from __future__ import annotations

import ctypes
import http.client
import json
import math
import multiprocessing
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from contextlib import contextmanager

import numpy as np

#: a request with no reply after this many seconds is a failed operation
CLIENT_TIMEOUT_S = 10.0
#: consecutive timeouts after which the workload is abandoned
MAX_CONSECUTIVE_TIMEOUTS = 3
#: closed-loop client threads, one connection each; fixed so numbers are
#: comparable across machines (the sandbox has 2 cores)
CONNECTIONS = 2


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def median(values) -> float:
    return percentile(values, 50.0)


# ----------------------------------------------------------------------
# the reference clock
# ----------------------------------------------------------------------
#: windows a timed phase is cut into, a calibration burst between each
N_WINDOWS = 6


class Calibration:
    """A fixed CPU kernel that tells how fast the machine runs right now.

    The sandbox this benchmark is gated on is a two-core virtual machine
    whose effective speed changes by 20-30 % for seconds to minutes at a
    time (the same single-threaded loop takes 205 ms or 300 ms depending
    on what the host's other tenants do; every workload here slows by
    the same factor in the same minute).  Wall-clock numbers taken
    minutes apart therefore differ by more than any bound worth having.

    So every timed phase is cut into windows with a burst of this kernel
    before and after each, and every time is reported on the **reference
    clock**: wall-clock time divided by the slowdown the two neighbouring
    bursts measured (1.0 = the burst took :attr:`NOMINAL_S`, which is
    what it takes on this sandbox when nothing disturbs it).  The kernel
    is half numpy (``sin`` over a 100x1000 table, as the model's
    distance kernels are) and half interpreter (a bytecode loop, as the
    serving layers are).  ``bench.slowdown`` reports the factor, so
    wall-clock = reported x slowdown.  Waits that do not scale with CPU
    speed (the batcher's 2 ms flush timeout) are over-corrected by their
    share of the latency; that error is a few percent where the drift
    was 25.
    """

    NOMINAL_S = 0.100

    def __init__(self):
        self._table = np.random.default_rng(0).random((100, 1000))

    def slowdown(self) -> float:
        started = time.perf_counter()
        for _ in range(100):
            float(np.sin(self._table).sum())
        total = 0
        for i in range(600_000):
            total += i * i
        return (time.perf_counter() - started) / self.NOMINAL_S


class PhaseTotals:
    """A timed phase on the reference clock."""

    def __init__(self):
        self.latencies_ms: list[float] = []
        self.correct = 0
        self.sent = 0
        self.wall_s = 0.0
        self.reference_s = 0.0
        self.slowdowns: list[float] = []

    @property
    def slowdown(self) -> float:
        return sum(self.slowdowns) / len(self.slowdowns)


def run_windows(calibration: Calibration, run_window,
                count: int = N_WINDOWS) -> PhaseTotals:
    """Run ``count`` windows, a calibration burst around each.

    ``run_window(index)`` returns ``(latencies_ms, correct, sent,
    elapsed_s)`` in wall-clock terms, or None to stop early.
    """
    totals = PhaseTotals()
    before = calibration.slowdown()
    for index in range(count):
        window = run_window(index)
        after = calibration.slowdown()
        if window is None:
            break
        latencies_ms, correct, sent, elapsed_s = window
        slowdown = (before + after) / 2.0
        totals.latencies_ms += [ms / slowdown for ms in latencies_ms]
        totals.correct += correct
        totals.sent += sent
        totals.wall_s += elapsed_s
        totals.reference_s += elapsed_s / slowdown
        totals.slowdowns.append(slowdown)
        before = after
    return totals


# ----------------------------------------------------------------------
# spans (traced pass only; single-threaded by construction)
# ----------------------------------------------------------------------
class SpanLog:
    """In-memory span list: name, start, end, parent, request index.

    The traced pass is sequential, so the open-span stack is the parent
    chain.  A span opened without a request index inherits its parent's,
    which is how wrapped inner calls (``nn.backward`` inside
    ``core.trainer.step``) get attributed to the step that caused them.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, request: int | None = None):
        parent = self._stack[-1] if self._stack else None
        if request is None and parent is not None:
            request = self.spans[parent][4]
        record = [name, time.perf_counter(), None, parent, request]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def by_request(self, name: str) -> dict[int, float]:
        """Milliseconds spent in ``name`` per request index (summed)."""
        out: dict[int, float] = {}
        for span_name, start, end, _parent, request in self.spans:
            if span_name == name and end is not None:
                out[request] = out.get(request, 0.0) + 1000.0 * (end - start)
        return out

    def p50(self, name: str) -> float:
        """Median per-request milliseconds of ``name``; 0.0 if never seen."""
        values = list(self.by_request(name).values())
        return median(values) if values else 0.0

    def residual_p50(self, outer: str, *inner: str) -> float:
        """Median over requests of ``outer`` minus the ``inner`` spans.

        Paired by request index, so a slow request's outer and inner
        readings cancel instead of landing in different medians.  Only
        requests that have every span contribute.
        """
        outer_ms = self.by_request(outer)
        inner_ms = [self.by_request(name) for name in inner]
        values = [ms - sum(part[request] for part in inner_ms)
                  for request, ms in outer_ms.items()
                  if all(request in part for part in inner_ms)]
        # the doors are timed by separate calls, so a residual smaller
        # than their noise can come out negative: it reads as 0
        return max(0.0, median(values)) if values else 0.0

    def write_chrome(self, path, process_name: str) -> None:
        """Chrome trace-event JSON (``chrome://tracing``, Perfetto)."""
        origin = self.spans[0][1] if self.spans else 0.0
        events = [{"ph": "M", "name": "process_name", "pid": os.getpid(),
                   "tid": 0, "args": {"name": process_name}}]
        for index, (name, start, end, parent, request) in \
                enumerate(self.spans):
            events.append({
                "ph": "X", "name": name, "cat": name.split(".")[0],
                "pid": os.getpid(), "tid": 0,
                "ts": 1e6 * (start - origin),
                "dur": 1e6 * ((end if end is not None else start) - start),
                "args": {"id": index, "parent": parent, "request": request},
            })
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events}))


# ----------------------------------------------------------------------
# memory
# ----------------------------------------------------------------------
def _rss_bytes(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    return 0


def rss_mb() -> float:
    """Resident megabytes of this process plus its live children."""
    pids = [os.getpid()] + [child.pid for child
                            in multiprocessing.active_children()]
    return sum(_rss_bytes(pid) for pid in pids) / 2 ** 20


# ----------------------------------------------------------------------
# leak guard
# ----------------------------------------------------------------------
def shm_segments() -> set[str]:
    """Names under /dev/shm, less multiprocessing's named semaphores
    (``sem.mp-*`` back its queues and locks and are unlinked by its
    resource tracker when the interpreter exits, not when a pool closes).
    """
    try:
        return {name for name in os.listdir("/dev/shm")
                if not name.startswith("sem.")}
    except OSError:
        return set()


def leaks(shm_before: set[str]) -> list[str]:
    """What a finished workload left behind (empty list = clean)."""
    # a worker that has exited but not been reaped is not a leak: give
    # the pool's own close() a moment to finish joining
    deadline = time.monotonic() + 5.0
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.05)
    found = [f"live child process {child.pid} ({child.name})"
             for child in multiprocessing.active_children()]
    found += [f"shared-memory segment {name}"
              for name in sorted(shm_segments() - shm_before)]
    return found


def child_pids(parent: int) -> list[int]:
    """Direct children of ``parent`` that still exist, zombies included."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii",
                      errors="replace") as handle:
                # "pid (comm) state ppid ..."; comm may hold blanks
                fields = handle.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[1]) == parent:
            found.append(int(entry))
    return found


def supervise(command, timeout_s: float, grace_s: float = 5.0) -> int:
    """Run ``command``; return only when every process it started has ended.

    A measured run starts processes of its own (shard workers,
    multiprocessing's resource tracker) and the tracker, for one, outlives
    the interpreter that started it by the moment it takes to notice; a
    run that is killed orphans its workers, which block on their task
    queue for good.  So a run is made by a child of this function, which
    declares itself the *subreaper* of its descendants: whatever the
    child leaves behind is re-parented to this process instead of init,
    and can be waited for.  Leftovers get ``grace_s`` to end by
    themselves, then are killed and reported.

    Returns the child's exit code; 3 if it overran ``timeout_s`` and was
    killed; 4 if it exited 0 but something had to be killed after it.
    """
    try:  # PR_SET_CHILD_SUBREAPER = 36 (Linux >= 3.4)
        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass  # orphans then go to init and cannot be waited for from here

    def on_term(_signum, _frame):
        raise SystemExit(143)

    previous = signal.signal(signal.SIGTERM, on_term)
    child = subprocess.Popen(command)
    code = 3
    try:
        code = child.wait(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        print(f"bench_e2e: no result in {timeout_s:.0f}s, killing the run",
              file=sys.stderr)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
        killed = _reap_descendants(grace_s)
        signal.signal(signal.SIGTERM, previous)
    if killed:
        print(f"bench_e2e: killed {len(killed)} process(es) the run left "
              f"behind: {', '.join(killed)}", file=sys.stderr)
        code = code or 4
    return code


def _reap_descendants(grace_s: float) -> list[str]:
    """Wait until this process has no child left; kill those that are
    still there after ``grace_s``.  Returns what was killed."""
    deadline = time.monotonic() + grace_s
    killed = []
    spare_tracker = True
    while True:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return killed
        if pid:
            continue
        if time.monotonic() >= deadline:
            for pid in child_pids(os.getpid()):
                try:
                    with open(f"/proc/{pid}/cmdline", "rb") as handle:
                        what = handle.read().replace(b"\0", b" ").decode(
                            errors="replace").strip()
                    # the resource tracker ends by itself once the workers
                    # that hold its pipe are gone, and unlinks the dead
                    # run's shared memory first: it gets one more round
                    if spare_tracker and "resource_tracker" in what:
                        continue
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    continue
                if what:  # a zombie has no command line and needs no kill
                    killed.append(f"{pid} ({what[:80]})")
            spare_tracker = False
            deadline = time.monotonic() + 1.0
        time.sleep(0.005)


# ----------------------------------------------------------------------
# closed-loop HTTP client
# ----------------------------------------------------------------------
class LoadResult:
    """Outcome of one closed-loop phase."""

    def __init__(self):
        self.latencies_ms: list[float] = []
        self.sent = 0
        self.succeeded = 0
        self.failed = 0
        self.elapsed_s = 0.0
        self.aborted = False
        #: first stream position no client thread reached
        self.next_position = 0
        #: answered pool indexes with the ids served, for quality scoring
        self.served: dict[int, list[int]] = {}


class HttpLoad:
    """``CONNECTIONS`` client threads posting to ``/v1/query``.

    Each thread owns one persistent ``HTTPConnection`` object and sends
    its next request when the previous reply is fully read.  (The server
    answers HTTP/1.0, so the object reconnects per request; that cost is
    the program's.)  Latency runs from just before the request is
    written to just after the body is read; building the body and
    checking the reply are outside it.

    ``texts[i]`` is the SPARQL of pool entry ``i`` and ``references[i]``
    the entity ids it must return (None = unchecked, for warm-up).
    """

    def __init__(self, port: int, texts, references=None, top_k: int = 10):
        self.port = port
        self.bodies = [json.dumps({"sparql": text, "top_k": top_k})
                       for text in texts]
        self.references = references
        self._lock = threading.Lock()
        self._consecutive_timeouts = 0

    def post(self, conn, pool_index: int):
        """One round trip: ``(status or None on timeout, body, ms)``."""
        started = time.perf_counter()
        try:
            conn.request("POST", "/v1/query", self.bodies[pool_index],
                         {"Content-Type": "application/json"})
            response = conn.getresponse()
            body = response.read()
            status = response.status
        except (socket.timeout, TimeoutError):
            conn.close()
            return None, b"", 1000.0 * (time.perf_counter() - started)
        except (http.client.HTTPException, OSError):
            conn.close()
            return 0, b"", 1000.0 * (time.perf_counter() - started)
        return status, body, 1000.0 * (time.perf_counter() - started)

    def check(self, pool_index: int, status, body: bytes):
        """Served ids when the reply is a correct 200, else None."""
        if status != 200:
            return None
        try:
            ids = json.loads(body)["entity_ids"]
        except (ValueError, KeyError, TypeError):
            return None
        if self.references is not None \
                and ids != self.references[pool_index]:
            return None
        return ids

    def run(self, stream, seconds: float | None = None,
            count: int | None = None) -> LoadResult:
        """Drive ``stream`` (position -> pool index) for a time or a count.

        Thread ``c`` sends stream positions ``c, c + CONNECTIONS, ...``,
        so the request sequence is a function of the seed alone.
        ``count`` bounds the positions, not the requests per thread.
        """
        result = LoadResult()
        stop = threading.Event()
        deadline = None if seconds is None else time.perf_counter() + seconds

        def client(offset: int) -> None:
            conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                              timeout=CLIENT_TIMEOUT_S)
            position = offset
            latencies, served = [], {}
            sent = succeeded = 0
            try:
                while not stop.is_set():
                    if count is not None and position >= count:
                        break
                    if deadline is not None \
                            and time.perf_counter() >= deadline:
                        break
                    pool_index = stream(position)
                    status, body, ms = self.post(conn, pool_index)
                    sent += 1
                    with self._lock:
                        if status is None:
                            self._consecutive_timeouts += 1
                            if self._consecutive_timeouts \
                                    >= MAX_CONSECUTIVE_TIMEOUTS:
                                result.aborted = True
                                stop.set()
                        else:
                            self._consecutive_timeouts = 0
                    ids = self.check(pool_index, status, body)
                    if ids is not None:
                        succeeded += 1
                        latencies.append(ms)
                        served[pool_index] = ids
                    position += CONNECTIONS
            finally:
                conn.close()
                with self._lock:
                    result.latencies_ms.extend(latencies)
                    result.served.update(served)
                    result.sent += sent
                    result.succeeded += succeeded
                    result.next_position = max(result.next_position,
                                               position - offset)

        threads = [threading.Thread(target=client, args=(offset,),
                                    name=f"bench-client-{offset}")
                   for offset in range(CONNECTIONS)]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        result.elapsed_s = time.perf_counter() - started
        result.failed = result.sent - result.succeeded
        return result
