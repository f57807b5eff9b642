"""``repro.obs.prof`` — the continuous sampling profiler + cost tools.

The always-on half of the observability stack: a wall-clock sampling
profiler cheap enough to leave running in production, plus the
folded-stack / flame-graph exporters and the profile-diff attribution
used by the benchmark regression gate.

* :class:`SamplingProfiler` — a daemon thread walks
  ``sys._current_frames()`` at a configurable rate and folds every
  thread's stack into ``frame;frame;frame -> count`` counters.  The
  sampler measures its *own* per-pass cost (its thread's CPU time,
  EWMA) against a strict overhead budget and halves its rate whenever
  a pass costs more than ``overhead_budget`` of the sampling interval —
  the rate adapts to the machine instead of the budget being a hope.
* :class:`Profile` — one process's folded samples, picklable, so worker
  processes ship deltas piggybacked on :class:`repro.dist` replies (the
  one thing a worker measures that its owner cannot: its own stacks);
  :class:`ProfileStore` accumulates them per ``(role, pid)`` in the
  parent and :func:`merge_profiles` joins parent + workers into one
  pid/role-tagged flame graph.
* :func:`to_folded` / :func:`to_speedscope` — the two standard flame
  graph interchange formats (``flamegraph.pl`` input and
  https://speedscope.app JSON).
* :func:`diff_profiles` / :func:`diff_plan_ops` — regression
  attribution by **self-time share deltas**: the frames (or plan op
  kinds) whose share of leaf samples moved most between a baseline and
  a latest profile.  Shares, not absolute times, so a uniformly slower
  machine does not drown the one frame that actually regressed
  (DESIGN.md §13).
* :func:`process_rss_bytes` / :func:`estimate_nbytes` — the memory
  observability helpers behind ``/debug/mem``.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from dataclasses import dataclass, field

from .metrics import MetricsRegistry

__all__ = [
    "DEFAULT_HZ", "Profile", "ProfileStore", "SamplingProfiler",
    "merge_profiles", "window_profiles", "to_folded", "to_speedscope",
    "self_time_shares", "diff_profiles", "diff_plan_ops", "format_diff",
    "format_top", "load_profile_payload", "process_rss_bytes",
    "estimate_nbytes",
]

#: default sampling rate — 67 Hz keeps sample timestamps incommensurate
#: with common 10/100 Hz periodic work (the classic anti-aliasing trick)
DEFAULT_HZ = 67.0

#: frame-label cache bound (code objects are long-lived; this only
#: guards pathological dynamic-code workloads)
_LABEL_CACHE_MAX = 8192

_label_cache: dict[object, str] = {}


def _frame_label(code) -> str:
    """``dir/file.py:funcname`` — compact, stable frame identity."""
    label = _label_cache.get(code)
    if label is None:
        filename = code.co_filename.replace("\\", "/")
        short = "/".join(filename.rsplit("/", 2)[-2:])
        label = f"{short}:{code.co_name}"
        if len(_label_cache) < _LABEL_CACHE_MAX:
            _label_cache[code] = label
    return label


# ----------------------------------------------------------------------
# profiles
# ----------------------------------------------------------------------

@dataclass
class Profile:
    """One process's folded wall-clock samples (picklable, mergeable).

    ``stacks`` maps a folded stack (``root;...;leaf``, frames joined by
    ``;``, thread name as the root frame) to its sample count;
    ``downsamples`` counts the budget-driven rate halvings in the
    profile's window.
    """

    stacks: dict[str, int] = field(default_factory=dict)
    samples: int = 0
    duration_s: float = 0.0
    hz: float = 0.0
    pid: int = 0
    role: str = ""
    overhead_ratio: float = 0.0
    downsamples: int = 0

    def copy(self) -> "Profile":
        return Profile(dict(self.stacks), self.samples, self.duration_s,
                       self.hz, self.pid, self.role, self.overhead_ratio,
                       self.downsamples)

    def subtract(self, earlier: "Profile") -> "Profile":
        """Samples taken since ``earlier`` (the ``seconds=N`` window)."""
        stacks = {}
        for stack, count in self.stacks.items():
            delta = count - earlier.stacks.get(stack, 0)
            if delta > 0:
                stacks[stack] = delta
        return Profile(stacks, max(self.samples - earlier.samples, 0),
                       max(self.duration_s - earlier.duration_s, 0.0),
                       self.hz, self.pid, self.role, self.overhead_ratio,
                       max(self.downsamples - earlier.downsamples, 0))

    def to_dict(self) -> dict:
        return {"stacks": dict(self.stacks), "samples": self.samples,
                "duration_s": self.duration_s, "hz": self.hz,
                "pid": self.pid, "role": self.role,
                "overhead_ratio": self.overhead_ratio}

    @classmethod
    def from_dict(cls, data: dict) -> "Profile":
        return cls(stacks={str(k): int(v)
                           for k, v in dict(data.get("stacks", {})).items()},
                   samples=int(data.get("samples", 0)),
                   duration_s=float(data.get("duration_s", 0.0)),
                   hz=float(data.get("hz", 0.0)),
                   pid=int(data.get("pid", 0)),
                   role=str(data.get("role", "")),
                   overhead_ratio=float(data.get("overhead_ratio", 0.0)))


def merge_profiles(profiles, tag: bool = True) -> Profile:
    """Join per-process profiles into one cross-process profile.

    With ``tag`` (the default) every stack gains a ``role@pid`` root
    frame, so a merged flame graph shows one tree per process.  The
    merge is order-independent and count-conserving: the merged sample
    total equals the sum of the inputs' (property-tested).
    """
    merged = Profile(role="merged", pid=os.getpid())
    for profile in profiles:
        if profile is None:
            continue
        prefix = f"{profile.role}@{profile.pid}" if tag else None
        for stack, count in profile.stacks.items():
            key = f"{prefix};{stack}" if prefix else stack
            merged.stacks[key] = merged.stacks.get(key, 0) + count
        merged.samples += profile.samples
        merged.duration_s = max(merged.duration_s, profile.duration_s)
        merged.hz = max(merged.hz, profile.hz)
        merged.overhead_ratio = max(merged.overhead_ratio,
                                    profile.overhead_ratio)
    return merged


def window_profiles(base, current) -> list[Profile]:
    """Per-process deltas ``current - base``, matched by (role, pid).

    A process present only in ``current`` (spawned mid-window) is kept
    whole; one present only in ``base`` (died mid-window) is dropped.
    """
    by_key = {(p.role, p.pid): p for p in base}
    out = []
    for profile in current:
        earlier = by_key.get((profile.role, profile.pid))
        out.append(profile.subtract(earlier) if earlier is not None
                   else profile.copy())
    return out


class ProfileStore:
    """Parent-side accumulator of worker profile deltas.

    One entry per ``(role, pid)``; a respawned worker (fresh pid) gets
    its own entry rather than polluting its predecessor's counts.
    Thread-safe — gathers and scrapes overlap.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._profiles: dict[tuple[str, int], Profile] = {}

    def merge_delta(self, delta: Profile) -> None:
        with self._lock:
            current = self._profiles.get((delta.role, delta.pid))
            if current is None:
                self._profiles[(delta.role, delta.pid)] = delta.copy()
                return
            for stack, count in delta.stacks.items():
                current.stacks[stack] = current.stacks.get(stack, 0) + count
            current.samples += delta.samples
            current.duration_s += delta.duration_s
            current.downsamples += delta.downsamples
            current.hz = delta.hz
            current.overhead_ratio = delta.overhead_ratio

    def snapshot(self) -> list[Profile]:
        with self._lock:
            return [p.copy() for p in self._profiles.values()]

    def __len__(self) -> int:
        with self._lock:
            return len(self._profiles)


# ----------------------------------------------------------------------
# the sampler
# ----------------------------------------------------------------------

class SamplingProfiler:
    """Continuous wall-clock profiler over ``sys._current_frames()``.

    A daemon thread takes one pass per interval: every live thread's
    stack (except the sampler's own) folds into ``stacks``.  Each pass
    is timed in the sampler thread's CPU time — a pass that waits for
    the interpreter lock, or for a core, mid-walk costs the threads it
    samples nothing while it waits, and wall time would bill it the
    whole wait — and folded into an EWMA; when the per-pass cost exceeds
    ``overhead_budget`` × interval, the interval doubles (down to
    ``min_hz``) and ``downsamples`` counts the event — the profiler can
    never eat more than its budget no matter how many threads run or
    how deep their stacks go.

    Parameters
    ----------
    hz:
        Target sampling rate (passes per second).
    role:
        Tag on the emitted profiles (``serve``, ``shard3``, ...).
    overhead_budget:
        Max fraction of the interval one sample pass may cost before
        the rate halves (default 2% — the serving overhead budget).
    registry:
        Optional metrics registry receiving ``prof_samples`` /
        ``prof_downsamples`` counters and ``prof_effective_hz`` /
        ``prof_overhead_ratio`` gauges, labelled by role.
    min_hz, max_stack_depth, clock:
        Down-sampling floor, stack walk bound, injectable time source.
    """

    def __init__(self, hz: float = DEFAULT_HZ, role: str = "main",
                 overhead_budget: float = 0.02,
                 registry: MetricsRegistry | None = None,
                 min_hz: float = 1.0, max_stack_depth: int = 64,
                 clock=time.perf_counter):
        if hz <= 0:
            raise ValueError("hz must be positive")
        if overhead_budget <= 0:
            raise ValueError("overhead_budget must be positive")
        self.role = role
        self.pid = os.getpid()
        self.overhead_budget = float(overhead_budget)
        self.min_hz = float(min_hz)
        self.max_stack_depth = int(max_stack_depth)
        self._clock = clock
        self._interval = 1.0 / float(hz)
        self._lock = threading.Lock()
        self._stacks: dict[str, int] = {}
        self._pending: dict[str, int] = {}
        self._samples = 0
        self._pending_samples = 0
        self._pending_since: float | None = None
        self._pending_downsamples = 0
        self._started_at: float | None = None
        self._duration = 0.0
        self._cost_ewma = 0.0
        self.downsamples = 0
        self._thread_names: dict[int, str] = {}
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._c_samples = self._c_down = None
        self._g_hz = self._g_ratio = None
        if registry is not None:
            self._c_samples = registry.counter("prof_samples", role=role)
            self._c_down = registry.counter("prof_downsamples", role=role)
            self._g_hz = registry.gauge("prof_effective_hz", role=role)
            self._g_ratio = registry.gauge("prof_overhead_ratio", role=role)

    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    @property
    def effective_hz(self) -> float:
        """Current rate after any budget-driven down-sampling."""
        return 1.0 / self._interval

    @property
    def overhead_ratio(self) -> float:
        """EWMA sample-pass cost as a fraction of the interval."""
        return self._cost_ewma / self._interval

    def start(self) -> "SamplingProfiler":
        """Begin sampling; idempotent.  Returns self for chaining."""
        if self.running:
            return self
        self._stop.clear()
        now = self._clock()
        self._started_at = now
        if self._pending_since is None:
            self._pending_since = now
        self._thread = threading.Thread(
            target=self._run, daemon=True,
            name=f"prof-sampler-{self.role}")
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the sampling thread; counts survive for snapshots."""
        thread = self._thread
        if thread is None:
            return
        self._stop.set()
        thread.join(timeout=2.0)
        self._thread = None
        if self._started_at is not None:
            self._duration += self._clock() - self._started_at
            self._started_at = None

    def __enter__(self) -> "SamplingProfiler":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    def _run(self) -> None:
        cpu = time.thread_time
        while not self._stop.wait(self._interval):
            t0 = cpu()
            self.sample_once()
            self._account(cpu() - t0)

    def sample_once(self) -> int:
        """One sampling pass over every live thread; returns count.

        Public so tests (and ad-hoc tooling) can take deterministic
        samples without the timing thread.
        """
        own = threading.get_ident()
        folded: list[str] = []
        for tid, frame in sys._current_frames().items():
            if tid == own:
                continue
            parts: list[str] = []
            depth = 0
            while frame is not None and depth < self.max_stack_depth:
                parts.append(_frame_label(frame.f_code))
                frame = frame.f_back
                depth += 1
            parts.reverse()
            name = self._thread_names.get(tid)
            if name is None:
                self._thread_names = {t.ident: t.name
                                      for t in threading.enumerate()}
                name = self._thread_names.get(tid, f"thread-{tid}")
            folded.append(name + ";" + ";".join(parts))
        with self._lock:
            for stack in folded:
                self._stacks[stack] = self._stacks.get(stack, 0) + 1
                self._pending[stack] = self._pending.get(stack, 0) + 1
            self._samples += len(folded)
            self._pending_samples += len(folded)
            if self._pending_since is None:
                self._pending_since = self._clock()
        if self._c_samples is not None:
            self._c_samples.inc(len(folded))
        return len(folded)

    def _account(self, cost: float) -> None:
        """Fold one pass's cost into the EWMA; down-sample over budget."""
        self._cost_ewma = cost if self._cost_ewma == 0.0 \
            else 0.8 * self._cost_ewma + 0.2 * cost
        ratio = self._cost_ewma / self._interval
        if ratio > self.overhead_budget \
                and 0.5 / self._interval >= self.min_hz:
            self._interval *= 2.0
            self.downsamples += 1
            with self._lock:  # drain() swaps it out under the lock
                self._pending_downsamples += 1
            if self._c_down is not None:
                self._c_down.inc()
        if self._g_hz is not None:
            self._g_hz.set(1.0 / self._interval)
            self._g_ratio.set(self._cost_ewma / self._interval)

    # ------------------------------------------------------------------
    def duration_s(self) -> float:
        if self._started_at is None:
            return self._duration
        return self._duration + (self._clock() - self._started_at)

    def snapshot(self) -> Profile:
        """Cumulative profile since construction (copy; safe to keep)."""
        with self._lock:
            stacks = dict(self._stacks)
            samples = self._samples
        return Profile(stacks, samples, self.duration_s(),
                       self.effective_hz, self.pid, self.role,
                       self.overhead_ratio, self.downsamples)

    def drain(self) -> Profile | None:
        """Samples since the previous drain; None when there are none.

        The piggyback primitive: shard workers call this per reply and
        ship the (usually tiny, often None) delta alongside the result;
        the pool's owner turns it into the ``prof_*{role=...}`` series.
        """
        now = self._clock()
        with self._lock:
            if not self._pending_samples:
                return None
            stacks, self._pending = self._pending, {}
            samples, self._pending_samples = self._pending_samples, 0
            since, self._pending_since = self._pending_since, now
            downsamples, self._pending_downsamples = \
                self._pending_downsamples, 0
        duration = max(now - since, 0.0) if since is not None else 0.0
        return Profile(stacks, samples, duration, self.effective_hz,
                       self.pid, self.role, self.overhead_ratio,
                       downsamples)


# ----------------------------------------------------------------------
# exporters
# ----------------------------------------------------------------------

def to_folded(profile: Profile) -> str:
    """Brendan-Gregg folded-stack text (``flamegraph.pl`` input)."""
    return "\n".join(f"{stack} {count}" for stack, count
                     in sorted(profile.stacks.items()))


def to_speedscope(profile: Profile, name: str | None = None) -> dict:
    """Speedscope sampled-profile JSON (https://speedscope.app)."""
    frames: list[dict] = []
    frame_index: dict[str, int] = {}
    samples: list[list[int]] = []
    weights: list[int] = []
    for stack, count in sorted(profile.stacks.items()):
        row = []
        for frame_name in stack.split(";"):
            index = frame_index.get(frame_name)
            if index is None:
                index = len(frames)
                frame_index[frame_name] = index
                frames.append({"name": frame_name})
            row.append(index)
        samples.append(row)
        weights.append(count)
    return {
        "$schema": "https://www.speedscope.app/file-format-schema.json",
        "exporter": "repro.obs.prof",
        "shared": {"frames": frames},
        "profiles": [{
            "type": "sampled",
            "name": name or f"{profile.role}@{profile.pid}",
            "unit": "none",
            "startValue": 0,
            "endValue": sum(weights),
            "samples": samples,
            "weights": weights,
        }],
    }


def load_profile_payload(path) -> tuple[Profile, dict]:
    """Read a recorded profile file: ``(profile, plan_op_seconds)``.

    Accepts either a full ``/debug/prof`` payload (``cli get prof --out``)
    or a bare :meth:`Profile.to_dict` dump.
    """
    data = json.loads(
        __import__("pathlib").Path(path).read_text(encoding="utf-8"))
    if isinstance(data, dict) and "merged" in data:
        return (Profile.from_dict(data["merged"]),
                dict(data.get("plan_ops") or {}))
    if isinstance(data, dict) and "stacks" in data:
        return Profile.from_dict(data), {}
    raise ValueError(f"{path}: not a recorded profile "
                     f"(expected a /debug/prof payload or Profile dump)")


# ----------------------------------------------------------------------
# self-time attribution
# ----------------------------------------------------------------------

def self_time_shares(profile: Profile) -> dict[str, float]:
    """Each leaf frame's share (0..1) of the profile's samples.

    Self time in a sampled profile is simply how often a frame was the
    *leaf* — on CPU (or at the head of a wait) when the sample hit.
    """
    leaf: dict[str, int] = {}
    for stack, count in profile.stacks.items():
        frame = stack.rsplit(";", 1)[-1]
        leaf[frame] = leaf.get(frame, 0) + count
    total = sum(leaf.values())
    if total <= 0:
        return {}
    return {frame: count / total for frame, count in leaf.items()}


def _share_diff(base: dict[str, float], latest: dict[str, float],
                key: str, limit: int) -> list[dict]:
    rows = []
    for name in set(base) | set(latest):
        a = base.get(name, 0.0)
        b = latest.get(name, 0.0)
        rows.append({key: name, "baseline_share": a, "latest_share": b,
                     "delta_share": b - a})
    rows.sort(key=lambda r: (-abs(r["delta_share"]), r[key]))
    return rows[:limit]


def diff_profiles(baseline: Profile, latest: Profile,
                  limit: int = 20) -> list[dict]:
    """Frames whose self-time *share* moved most, largest move first.

    Shares rather than absolute seconds: a uniformly slower run keeps
    every share flat, while a genuine regression concentrates the delta
    on the frames that got slower — exactly the attribution the
    regression gate needs (DESIGN.md §13).
    """
    return _share_diff(self_time_shares(baseline),
                       self_time_shares(latest), "frame", limit)


def diff_plan_ops(baseline: dict[str, float], latest: dict[str, float],
                  limit: int = 20) -> list[dict]:
    """Plan op kinds whose share of plan wall time moved most."""
    def shares(seconds: dict[str, float]) -> dict[str, float]:
        total = sum(seconds.values())
        if total <= 0:
            return {}
        return {op: value / total for op, value in seconds.items()}
    return _share_diff(shares(dict(baseline)), shares(dict(latest)),
                       "plan_op", limit)


def format_diff(rows: list[dict], key: str | None = None,
                title: str | None = None) -> str:
    """Fixed-width attribution table of :func:`diff_profiles` rows."""
    if not rows:
        return "(no samples on either side)"
    key = key or ("plan_op" if "plan_op" in rows[0] else "frame")
    width = max(len(key), max(len(str(r[key])) for r in rows))
    lines = []
    if title:
        lines.append(title)
    lines.append(f"{key:<{width}}  {'baseline':>9} {'latest':>9} "
                 f"{'delta':>8}")
    for row in rows:
        lines.append(
            f"{str(row[key]):<{width}}  "
            f"{100.0 * row['baseline_share']:>8.1f}% "
            f"{100.0 * row['latest_share']:>8.1f}% "
            f"{100.0 * row['delta_share']:>+7.1f}pp")
    return "\n".join(lines)


def format_top(profile: Profile, limit: int = 15) -> str:
    """Top self-time frames of one profile, hottest first."""
    shares = self_time_shares(profile)
    if not shares:
        return "(no samples yet)"
    top = sorted(shares.items(), key=lambda kv: (-kv[1], kv[0]))[:limit]
    width = max(len("frame"), max(len(f) for f, _ in top))
    lines = [f"{'frame':<{width}}  {'self':>7}"]
    for frame, share in top:
        lines.append(f"{frame:<{width}}  {100.0 * share:>6.1f}%")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# memory observability helpers
# ----------------------------------------------------------------------

def process_rss_bytes(pid: int | None = None) -> int:
    """Resident set size of ``pid`` (default: this process) in bytes.

    Reads ``/proc/<pid>/status``; falls back to ``resource`` for the
    current process; 0 where neither is available — callers treat 0 as
    "unknown", never as "no memory".
    """
    target = pid or os.getpid()
    try:
        with open(f"/proc/{target}/status", encoding="ascii",
                  errors="replace") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    if pid is None or target == os.getpid():
        try:
            import resource
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            return int(peak) * (1 if sys.platform == "darwin" else 1024)
        except (ImportError, OSError, ValueError):
            pass
    return 0


def estimate_nbytes(value, depth: int = 3) -> int:
    """Rough resident bytes of a cached value (ndarray-aware).

    Arrays report ``.nbytes`` exactly; Tensors via their ``.data``
    array; containers recurse a few levels; everything else falls back
    to ``sys.getsizeof``.  An estimate for capacity planning, not an
    allocator audit.
    """
    nbytes = getattr(value, "nbytes", None)
    if nbytes is not None:
        try:
            return int(nbytes)
        except (TypeError, ValueError):
            pass
    inner = getattr(value, "data", None)
    if inner is not None and hasattr(inner, "nbytes"):
        try:
            return int(inner.nbytes)
        except (TypeError, ValueError):
            pass
    try:
        size = sys.getsizeof(value)
    except TypeError:
        return 0
    if depth > 0:
        if isinstance(value, (list, tuple, set, frozenset)):
            size += sum(estimate_nbytes(item, depth - 1) for item in value)
        elif isinstance(value, dict):
            size += sum(estimate_nbytes(k, depth - 1)
                        + estimate_nbytes(v, depth - 1)
                        for k, v in value.items())
    return size
