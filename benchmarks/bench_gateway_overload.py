"""Gateway overload behaviour: offered load vs goodput vs tail latency.

An **open-loop** trace-replay load generator drives
:class:`repro.gateway.Gateway` in front of a live
:class:`~repro.serve.ServeRuntime`: arrivals are pre-generated
timestamps (Poisson or bursty on/off) replayed against the wall clock,
so the offered rate does not slow down when the server does — the
defining property of an overload test (a closed loop self-throttles and
can never overload anything).

The measurement:

1. **capacity** — closed-loop batched throughput of the runtime itself,
   the denominator every offered rate is expressed in: the median of
   :data:`CAPACITY_PROBES` probes, since one probe swings by 2× from run
   to run on a small shared machine and "0.6× capacity" must mean the
   same load every time;
2. **unloaded p99** — latency through the gateway at 0.6× capacity
   (the rate the overload buckets will admit) with admission wide
   open; nothing sheds, and the baseline forms the same batch sizes
   the admitted traffic will see, so the 2× criterion compares
   like-for-like micro-batching latency, not an empty-system floor;
3. **overload curve** — bursty arrivals at 1× / 2× / 4× capacity
   against a gateway with per-tenant token buckets (~0.6× capacity
   aggregate), two tenants (``web`` interactive / ``analytics`` batch,
   60/40 mix, weights 3:1) and a deadline on every request.

Under the 4× burst the gateway must keep the p99 of *admitted* requests
within 2× of the unloaded p99 and shed the remainder as explicit 429s
(``GatewayRejected``), with queue depth bounded throughout — overload
turns into rejections, not latency collapse.  ``--bench-record``
appends ``gateway_goodput_qps`` (higher is better) and
``gateway_overload_p99_ms`` (lower is better) to ``BENCH_serve.json``
so ``benchmarks/record.py --check-regression`` gates both directions.

Run::

    pytest benchmarks/bench_gateway_overload.py --benchmark-only -s
"""

import threading
import time
from collections import Counter

import numpy as np
import pytest

from repro.gateway import (Gateway, GatewayConfig, GatewayRejected,
                           TenantConfig)
from repro.serve import ServeConfig, ServeError, ServeRuntime

import record

BENCH_FILE = record.BENCH_DIR / "BENCH_serve.json"

#: tenant mix replayed by every trace: (name, traffic share, priority)
MIX = (("web", 0.6, "interactive"), ("analytics", 0.4, "batch"))

P99_FLOOR = 0.025  # seconds; keeps the 2x assertion off microsecond noise
#: closed-loop ``answer_batch`` probes whose median is the capacity, and
#: the queries each one answers
CAPACITY_PROBES = 5
PROBE_QUERIES = 256


def _synthetic_model(num_entities=5_000, dim=32, num_queries=2048,
                     seed=0):
    """A KG sized so one ranking pass costs real milliseconds.

    ~25 ms per single-query pass, near-linear in batch size — big
    enough that overload is about scheduling, small enough that the
    ``(batch, entities, dim)`` distance temporaries stay in cache.
    """
    from repro.config import ModelConfig
    from repro.core import HalkModel
    from repro.kg import KnowledgeGraph
    from repro.queries import Entity, Projection

    rng = np.random.default_rng(seed)
    triples = [(int(rng.integers(num_entities)), int(rng.integers(8)),
                int(rng.integers(num_entities))) for _ in range(4096)]
    kg = KnowledgeGraph(num_entities, 8, triples)
    model = HalkModel(kg, ModelConfig(embedding_dim=dim, seed=seed))
    # distinct queries so the answer cache cannot shortcut the workload
    heads = rng.choice(num_entities, size=num_queries, replace=False)
    queries = [Projection(int(rng.integers(8)), Entity(int(h)))
               for h in heads]
    return model, queries


def make_trace(rate, duration, mix=MIX, mode="poisson", seed=0):
    """Arrival trace: sorted ``(t, tenant, priority)`` tuples.

    ``poisson`` draws exponential inter-arrivals at ``rate``; ``bursty``
    alternates 100 ms on (1.9× rate) / 100 ms off (0.1× rate) phases so
    the *mean* offered rate stays ``rate`` while the instantaneous rate
    whipsaws — the shape that actually stresses admission control.
    """
    rng = np.random.default_rng(seed)
    names = [name for name, _, _ in mix]
    shares = np.array([share for _, share, _ in mix], dtype=float)
    shares /= shares.sum()
    priority = {name: prio for name, _, prio in mix}
    events, t = [], 0.0
    while True:
        if mode == "bursty":
            local = 1.9 * rate if (t % 0.2) < 0.1 else 0.1 * rate
        else:
            local = rate
        t += rng.exponential(1.0 / local)
        if t >= duration:
            return events
        tenant = names[int(rng.choice(len(names), p=shares))]
        events.append((t, tenant, priority[tenant]))


def replay(gateway, trace, queries, top_k=10, deadline=None):
    """Open-loop replay of one trace; returns the outcome tally.

    Arrivals behind schedule are submitted immediately (never skipped):
    the offered load is the trace, not what the server kept up with.
    A sampler thread records the worst queue depth the runtime's one
    queue reached.
    """
    futures = []
    sheds: Counter = Counter()
    peak_queue = [0]
    stop = threading.Event()

    def watch():
        while not stop.is_set():
            peak_queue[0] = max(peak_queue[0], gateway.stats()["queued"])
            time.sleep(0.005)

    watcher = threading.Thread(target=watch, daemon=True)
    watcher.start()
    start = time.perf_counter()
    for index, (at, tenant, priority) in enumerate(trace):
        delay = start + at - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        try:
            futures.append(gateway.submit(
                queries[index % len(queries)], top_k, tenant=tenant,
                priority=priority, deadline=deadline))
        except GatewayRejected as exc:
            assert exc.status == 429
            sheds[exc.reason] += 1
    elapsed_offered = time.perf_counter() - start

    latencies, errors = [], 0
    for future in futures:
        try:
            latencies.append(future.result(timeout=60.0).latency)
        except GatewayRejected as exc:  # shed when popped (deadline)
            assert exc.status == 429
            sheds[exc.reason] += 1
        except ServeError:
            errors += 1
    elapsed_total = time.perf_counter() - start
    stop.set()
    watcher.join(timeout=1.0)
    return {"offered": len(trace), "completed": len(latencies),
            "shed": sheds, "errors": errors, "latencies": latencies,
            "peak_queue": peak_queue[0], "wall_offered": elapsed_offered,
            "wall_total": elapsed_total}


def _p99(latencies):
    return float(np.percentile(np.asarray(latencies), 99.0))


def _capacity(runtime, queries) -> tuple[float, list[float]]:
    """Closed-loop batched throughput of the bare runtime: the median of
    :data:`CAPACITY_PROBES` probes over distinct queries, and every
    probe's reading."""
    runtime.answer_batch(queries[:32], top_k=10)  # warm-up
    readings = []
    for index in range(CAPACITY_PROBES):
        probe = queries[index * PROBE_QUERIES:(index + 1) * PROBE_QUERIES]
        start = time.perf_counter()
        runtime.answer_batch(probe, top_k=10)
        readings.append(len(probe) / (time.perf_counter() - start))
    return float(np.median(readings)), readings


def _measure():
    model, queries = _synthetic_model()
    config = ServeConfig(max_batch_size=4, num_workers=2,
                         answer_cache_size=1, embedding_cache_size=1)
    out = {}
    with ServeRuntime(model, config=config) as runtime:
        # 1) closed-loop capacity of the bare runtime
        capacity, out["probes"] = _capacity(runtime, queries)
        out["capacity"] = capacity

        # 2) unloaded tail latency: admission wide open, 0.6x capacity
        #    (the aggregate rate the overload buckets admit below)
        with Gateway(runtime) as gateway:
            trace = make_trace(0.6 * capacity, duration=6.0, seed=1)
            unloaded = replay(gateway, trace, queries)
        assert not unloaded["shed"], \
            f"nothing sheds at 0.6x capacity: {unloaded['shed']}"
        p99_unloaded = max(_p99(unloaded["latencies"]), P99_FLOOR)
        out["unloaded"] = unloaded
        out["p99_unloaded"] = p99_unloaded

        # 3) overload curve: bursty arrivals vs admission control.
        #    Buckets admit ~0.6x capacity; every request carries a
        #    deadline so queue-time blowups shed when a worker pops them.
        deadline = 1.25 * p99_unloaded
        tenants = (
            TenantConfig("web", rate=0.35 * capacity,
                         burst=max(8, int(0.035 * capacity)), weight=3.0),
            TenantConfig("analytics", rate=0.25 * capacity,
                         burst=max(8, int(0.025 * capacity)), weight=1.0),
        )
        out["curve"] = {}
        for multiple in (1, 2, 4):
            gw_config = GatewayConfig(tenants=tenants, default_tenant=None)
            with Gateway(runtime, gw_config) as gateway:
                for query in queries[:24]:  # seed the service-time EWMA
                    gateway.answer(query, tenant="web")
                    time.sleep(1.0 / tenants[0].rate)  # stay in budget
                trace = make_trace(multiple * capacity, duration=4.0,
                                   mode="bursty", seed=multiple)
                out["curve"][multiple] = replay(gateway, trace, queries,
                                                deadline=deadline)
                out["curve"][multiple]["final_queued"] = \
                    gateway.stats()["queued"]
        out["max_queue_bound"] = sum(t.max_queue for t in tenants)
        out["deadline"] = deadline
    return out


def test_bench_gateway_overload(benchmark, bench_record):
    """4x overload: p99 of admitted requests ≤ 2x unloaded, rest 429s."""
    from repro.gateway import gateway as _gw  # noqa: F401  (import check)

    out = benchmark.pedantic(_measure, args=(), rounds=1, iterations=1)
    p99_unloaded = out["p99_unloaded"]
    overload = out["curve"][4]
    goodput = overload["completed"] / overload["wall_total"]
    p99_over = max(_p99(overload["latencies"]), 1e-9) \
        if overload["latencies"] else float("inf")

    if bench_record:
        record.record(BENCH_FILE,
                      {"gateway_goodput_qps": goodput,
                       "gateway_overload_p99_ms": 1000.0 * p99_over},
                      higher_is_better={"gateway_goodput_qps": True,
                                        "gateway_overload_p99_ms": False})
        print(f"\nrecorded to {BENCH_FILE.name}")

    print()
    print(f"gateway overload, synthetic KG (5k entities): "
          f"capacity {out['capacity']:,.0f} q/s (median of "
          f"{', '.join(f'{p:,.0f}' for p in out['probes'])}), "
          f"unloaded p99 {1000 * p99_unloaded:.1f} ms, "
          f"deadline {1000 * out['deadline']:.1f} ms")
    print(f"  {'offered':>8} {'admitted':>9} {'goodput':>9} "
          f"{'p99 ms':>8} {'shed':>6}  peak queue")
    for multiple, run in sorted(out["curve"].items()):
        shed = sum(run["shed"].values())
        qps = run["completed"] / run["wall_total"]
        p99 = 1000 * _p99(run["latencies"]) if run["latencies"] else 0.0
        reasons = ", ".join(f"{k}={v}" for k, v in
                            sorted(run["shed"].items()))
        print(f"  {multiple:>7}x {run['completed']:>9} {qps:>8.0f}/s "
              f"{p99:>8.1f} {shed:>6}  {run['peak_queue']} "
              f"[{reasons}]")

    # overload became rejections, not latency or memory
    assert overload["completed"] > 0, "overload starved every request"
    assert sum(overload["shed"].values()) > 0, \
        "a 4x burst past 0.6x-capacity buckets must shed"
    assert overload["errors"] == 0
    assert p99_over <= 2.0 * p99_unloaded, \
        f"admitted p99 {1000 * p99_over:.1f} ms exceeds 2x unloaded " \
        f"p99 {1000 * p99_unloaded:.1f} ms — shedding is not protecting " \
        f"the admitted traffic"
    for multiple, run in out["curve"].items():
        assert run["peak_queue"] <= out["max_queue_bound"], \
            f"{multiple}x: queue grew past the configured bound"
        assert run["final_queued"] == 0, \
            f"{multiple}x: requests stuck in the queue after the run"
