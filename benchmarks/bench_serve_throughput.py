"""Serving throughput: sequential vs micro-batched vs cached.

Measures queries/sec on the FB237 quick workload through three paths:

* **sequential** — the pre-serving baseline, one ``QueryModel.answer``
  call per query (embed + rank-all per query);
* **batched** — the same queries through :class:`repro.serve.ServeRuntime`,
  which coalesces them into compiled-plan/``distance_to_all`` passes;
* **cached** — a second pass over the same workload, served from the
  answer cache;
* **traced** — the batched path again with ``repro.obs`` tracing enabled
  on a fresh runtime, so the span bookkeeping cost is visible next to
  the throughput it annotates.

The batched path must clear 3× the sequential throughput (the number the
serving subsystem exists to deliver); the cached pass must beat batched.

The workload mixes shallow chains with the multi-hop/intersection
structures HaLk targets.  Batching amortises the per-query *embedding*
cost (the operator-tree walk), not the element-wise ranking pass, so the
win grows with query depth: ~1.5× on bare ``2p`` chains, 7–8× on ``3i``
and ``3ippd``.

Run::

    pytest benchmarks/bench_serve_throughput.py --benchmark-only -s
"""

import json
import time

import numpy as np
import pytest

from repro import obs
from repro.queries import QuerySampler, get_structure
from repro.serve import ServeConfig, ServeRuntime, format_snapshot

import record
from common import shared_context

STRUCTURES = ("2p", "2i", "3i", "pi", "2ipp", "3ippd")
QUERIES_PER_STRUCTURE = 20
BENCH_FILE = record.BENCH_DIR / "BENCH_serve.json"


def _workload(context):
    splits = context.splits("FB237")
    sampler = QuerySampler(splits.train, splits.test, seed=7)
    return [sampler.sample(get_structure(name)).query
            for name in STRUCTURES for _ in range(QUERIES_PER_STRUCTURE)]


def _measure(context):
    model = context.model("FB237", "HaLk")
    queries = _workload(context)
    top_k = 10

    start = time.perf_counter()
    for query in queries:
        model.answer(query, top_k=top_k)
    sequential = len(queries) / (time.perf_counter() - start)

    config = ServeConfig(max_batch_size=64, num_workers=2)
    with ServeRuntime(model, kg=context.splits("FB237").train,
                      config=config) as runtime:
        start = time.perf_counter()
        runtime.answer_batch(queries, top_k=top_k)
        batched = len(queries) / (time.perf_counter() - start)

        start = time.perf_counter()
        results = runtime.answer_batch(queries, top_k=top_k)
        cached = len(queries) / (time.perf_counter() - start)
        snapshot = runtime.stats()

    # fourth pass: batched again, tracing on, fresh runtime (cold caches)
    with obs.enabled():
        tracer = obs.Tracer()
        with ServeRuntime(model, kg=context.splits("FB237").train,
                          config=config, tracer=tracer) as runtime:
            start = time.perf_counter()
            runtime.answer_batch(queries, top_k=top_k)
            traced = len(queries) / (time.perf_counter() - start)
            stages = runtime.stats().stages

    assert all(r.source == "answer_cache" for r in results)
    return {"sequential": sequential, "batched": batched,
            "cached": cached, "traced": traced, "snapshot": snapshot,
            "stages": stages, "queries": len(queries)}


def test_bench_serve_throughput(benchmark, bench_record):
    """Batched serving must be ≥ 3× the sequential answer loop."""
    context = shared_context()
    out = benchmark.pedantic(_measure, args=(context,),
                             rounds=1, iterations=1)
    if bench_record:
        record.record(BENCH_FILE,
                      {"sequential_qps": out["sequential"],
                       "batched_qps": out["batched"],
                       "cached_qps": out["cached"]},
                      higher_is_better=True)
        print(f"\nrecorded to {BENCH_FILE.name}")
    print()
    print(f"serving throughput, FB237 quick workload "
          f"({out['queries']} queries):")
    for path in ("sequential", "batched", "cached", "traced"):
        speedup = out[path] / out["sequential"]
        print(f"  {path:<10} {out[path]:>10,.0f} q/s  ({speedup:>6.1f}x)")
    tracing_cost = 100.0 * (1.0 - out["traced"] / out["batched"])
    print(f"  tracing overhead vs batched: {tracing_cost:.1f}%")
    for name, stage in sorted(out["stages"].items()):
        print(f"    {name:<20} mean {stage.mean_ms:>8.3f} ms "
              f"x{stage.count}")
    print(format_snapshot(out["snapshot"], title="serve stats"))
    assert out["batched"] >= 3.0 * out["sequential"], \
        "micro-batching should amortise the per-query embed/rank cost"
    assert out["cached"] >= out["batched"], \
        "the answer cache should beat recomputation"


# ----------------------------------------------------------------------
# compiled plans vs the interpretive oracle
# ----------------------------------------------------------------------

PLAN_PREFIX_COUNT = 30
PLAN_FANOUT = 8      # queries per shared prefix
PLAN_PREFIX_HOPS = 8  # projection depth of each shared prefix


def _plan_workload(num_entities=64, num_relations=8, dim=32, hidden=2048,
                   seed=0):
    """A shared-prefix-heavy 2i/3p mix in the compiler's target regime.

    240 distinct queries fan out of 30 unique 5-hop prefixes — the shape
    front-ends produce when they expand related questions from the same
    seed entities.  The synthetic model is operator-bound (wide operator
    MLPs, deep chains, small vocabulary), the regime the plan compiler
    exists for: CSE removes the re-embedded prefixes and fusion turns
    the remaining per-node kernel calls into a few large stacked gemms.
    When ranking over a huge vocabulary dominates instead, the compiled
    path is neutral — same rank cost, identical answers.
    """
    from repro.config import ModelConfig
    from repro.core import HalkModel
    from repro.kg import KnowledgeGraph
    from repro.queries import Entity, Intersection, Projection

    rng = np.random.default_rng(seed)
    triples = sorted({(int(rng.integers(num_entities)),
                       int(rng.integers(num_relations)),
                       int(rng.integers(num_entities)))
                      for _ in range(4 * num_entities)})
    kg = KnowledgeGraph(num_entities, num_relations, triples)
    model = HalkModel(kg, ModelConfig(embedding_dim=dim, hidden_dim=hidden,
                                      seed=seed))
    queries = []
    for index in range(PLAN_PREFIX_COUNT):
        prefix = Entity(index % num_entities)
        for hop in range(PLAN_PREFIX_HOPS):
            prefix = Projection((index + hop) % num_relations, prefix)
        for spread in range(PLAN_FANOUT):
            outer = (index + spread + 1) % num_relations
            if spread % 2:
                # deep 3p-style tail atop the shared prefix
                queries.append(Projection((outer + 1) % num_relations,
                                          Projection(outer, prefix)))
            else:
                other = (index + spread + 1) % num_entities
                queries.append(Intersection(
                    (prefix, Projection(outer, Entity(other)))))
    return kg, model, queries


def _measure_plan_exec(reps=9):
    """Whole-batch wall time, interpretive oracle vs compiled, interleaved.

    The oracle is ``model.answer_batch`` — the ``_embed`` tree walk kept
    as training forward and test reference; the compiled side is
    ``plan_answer_batch`` with a warm ``PlanCompiler`` (what serving runs
    per micro-batch, minus the runtime around it).  A warm-up pass per
    side warms numpy and the template cache, not results.  Passes
    alternate between the two sides so clock drift and thermal noise hit
    both equally (the diag-overhead bench's protocol), and each side
    reports the median of its ``reps`` passes (nine: three left the ratio
    anywhere between 1.25 and 1.6 on a shared machine).

    This row replaced one that compared two *runtimes* by per-request
    p50.  That number (1.6–1.9×) was not a batch-time ratio: with
    ``max_batch_size=128`` the compiled side's p50 was the completion of
    its first 128-query batch, the interpretive side's fell on its second
    of two sequential 120-query structure batches.  Whole batch against
    whole batch, ranking included on both sides, the ratio is ~1.3×.
    """
    from repro.obs.metrics import MetricsRegistry, get_registry
    from repro.plan import PlanCompiler, plan_answer_batch
    from repro.serve import canonicalize

    _, model, queries = _plan_workload()
    queries = [canonicalize(query) for query in queries]
    top_k = 10
    registry = MetricsRegistry()
    compiler = PlanCompiler(metrics=registry)
    sides = {
        "interpretive": lambda: model.answer_batch(queries, top_k=top_k,
                                                   batch_size=128),
        "compiled": lambda: plan_answer_batch(queries, model, top_k=top_k,
                                              compiler=compiler),
    }

    def stage_seconds():
        # cumulative plan-op wall seconds (the repro.obs.prof cost
        # accounter's plan_stage_seconds gauges, process registry)
        return sum(value for key, value
                   in get_registry().snapshot().gauges.items()
                   if key.startswith("plan_stage_seconds"))

    seconds = {label: [] for label in sides}
    answers = {}
    stage_start = stage_seconds()
    for run in sides.values():
        run()  # warm-up
    for _ in range(reps):
        for label, run in sides.items():
            start = time.perf_counter()
            answers[label] = run()
            seconds[label].append(time.perf_counter() - start)
    # the speedup only counts if the rankings are identical
    assert answers["compiled"] == answers["interpretive"]
    p50 = {label: 1000.0 * float(np.median(values))
           for label, values in seconds.items()}
    counters = {name: value for name, value
                in registry.snapshot().counters.items()
                if name.startswith("plan_")}
    return {"interpretive_p50_ms": p50["interpretive"],
            "compiled_p50_ms": p50["compiled"],
            "speedup": p50["interpretive"] / p50["compiled"],
            "counters": counters, "queries": len(queries),
            # scaled to 4 executions (warm-up + 3 passes), the count
            # behind the recorded plan_stage_seconds_total points
            "stage_seconds": (stage_seconds() - stage_start)
            * 4.0 / (reps + 1)}


def test_bench_plan_exec_speedup(benchmark, bench_record):
    """Compiled plans must clear 1.2× the interpretive oracle's batch
    time on a shared-prefix 2i/3p mix (the CSE + fusion payoff)."""
    out = benchmark.pedantic(_measure_plan_exec,
                             rounds=1, iterations=1)
    if bench_record:
        # a new name, not the retired plan_batch_speedup (runtime vs
        # runtime request p50): the two are not comparable points
        record.record(BENCH_FILE,
                      {"plan_exec_speedup": out["speedup"]},
                      higher_is_better=True)
        record.record(BENCH_FILE,
                      {"plan_stage_seconds_total": out["stage_seconds"]},
                      higher_is_better=None)
        print(f"\nrecorded to {BENCH_FILE.name}")
    print()
    print(f"plan compiler, shared-prefix 2i/3p mix "
          f"({out['queries']} queries, {PLAN_PREFIX_COUNT} unique "
          f"prefixes):")
    print(f"  {'interpretive':<14} p50 {out['interpretive_p50_ms']:>8.3f} ms"
          f"  (  1.0x)")
    print(f"  {'compiled':<14} p50 {out['compiled_p50_ms']:>8.3f} ms"
          f"  ({out['speedup']:>5.1f}x)")
    saved = out["counters"].get("plan_cse_ops_saved", 0)
    total = out["counters"].get("plan_ops_total", 0)
    hits = out["counters"].get("plan_cache_hits", 0)
    misses = out["counters"].get("plan_cache_misses", 0)
    print(f"  CSE saved {saved}/{total} ops; template cache "
          f"{hits} hits / {misses} misses")
    print(f"  plan-op wall time: {out['stage_seconds']:.3f}s total")
    assert out["speedup"] >= 1.2, \
        "compiled plans should beat the interpretive oracle by 1.2x " \
        "on a shared-prefix-heavy mix (CSE + projection fusion)"


# ----------------------------------------------------------------------
# always-on diagnostics overhead (flight recorder + SLO engine)
# ----------------------------------------------------------------------

def _diag_workload(num_entities=2000, dim=16, num_queries=64, seed=0):
    from repro.config import ModelConfig
    from repro.core import HalkModel
    from repro.kg import KnowledgeGraph
    from repro.queries import Entity, Projection

    rng = np.random.default_rng(seed)
    triples = [(int(rng.integers(num_entities)), int(rng.integers(8)),
                int(rng.integers(num_entities))) for _ in range(2048)]
    kg = KnowledgeGraph(num_entities, 8, triples)
    model = HalkModel(kg, ModelConfig(embedding_dim=dim, seed=seed))
    queries = [Projection(rel, Entity(head))
               for head, rel, _ in list(kg)[:num_queries]]
    return kg, model, queries


def _measure_diag_overhead(rounds=400, block=50, top_k=10):
    """p50 request latency with diagnostics on vs off, interleaved.

    Two identical runtimes differing only in ``diagnostics=``; blocks of
    requests alternate between them so clock drift and thermal noise hit
    both sides equally.  ``answer_cache_size=1`` keeps every request on
    the model path (a cache hit would measure the dict, not the layer).
    """
    kg, model, queries = _diag_workload()
    config = dict(max_batch_size=1, num_workers=1, answer_cache_size=1)
    latencies = {"on": [], "off": []}
    with ServeRuntime(model, kg=kg,
                      config=ServeConfig(diagnostics=False,
                                         **config)) as off_runtime, \
            ServeRuntime(model, kg=kg,
                         config=ServeConfig(diagnostics=True,
                                            **config)) as on_runtime:
        runtimes = {"on": on_runtime, "off": off_runtime}
        for runtime in runtimes.values():  # warm threads + embed cache
            for query in queries:
                runtime.answer(query, top_k=top_k)
        done = 0
        while done < rounds:
            for label, runtime in runtimes.items():
                for index in range(done, min(done + block, rounds)):
                    result = runtime.answer(queries[index % len(queries)],
                                            top_k=top_k)
                    latencies[label].append(result.latency * 1000.0)
            done += block
        flights = on_runtime.diag.flight.total
    on_p50 = float(np.percentile(latencies["on"], 50))
    off_p50 = float(np.percentile(latencies["off"], 50))
    return {"on_p50_ms": on_p50, "off_p50_ms": off_p50,
            "ratio": on_p50 / off_p50, "rounds": rounds,
            "flights": flights}


def test_bench_diagnostics_overhead(benchmark, bench_record):
    """Always-on diagnostics must cost < 5% p50 latency (the layer is
    not worth having if it cannot be left on in production)."""
    out = benchmark.pedantic(_measure_diag_overhead, rounds=1,
                             iterations=1)
    if bench_record:
        record.record(BENCH_FILE,
                      {"diag_p50_overhead_ratio": out["ratio"]},
                      higher_is_better=False)
        print(f"\nrecorded to {BENCH_FILE.name}")
    print()
    print(f"diagnostics overhead, synthetic workload "
          f"({out['rounds']} requests per side, "
          f"{out['flights']} flight records):")
    print(f"  {'diagnostics off':<18} p50 {out['off_p50_ms']:>8.3f} ms")
    print(f"  {'diagnostics on':<18} p50 {out['on_p50_ms']:>8.3f} ms "
          f"({100.0 * (out['ratio'] - 1.0):+.1f}%)")
    # 5% relative, with a small absolute floor so sub-millisecond p50s
    # don't fail on scheduler noise alone
    assert out["on_p50_ms"] <= max(1.05 * out["off_p50_ms"],
                                   out["off_p50_ms"] + 0.25), \
        "always-on diagnostics regressed p50 latency by more than 5%"


# ----------------------------------------------------------------------
# continuous sampling-profiler overhead (repro.obs.prof)
# ----------------------------------------------------------------------

def _measure_prof_overhead(rounds=400, block=50, top_k=10):
    """p50 request latency with the sampling profiler on vs off.

    Same interleaved-blocks protocol as the diagnostics overhead bench:
    two runtimes differing only in ``profiling=``, alternating request
    blocks, ``answer_cache_size=1`` so every request takes the model
    path.  Diagnostics stay ON on both sides — the profiler's cost is
    measured on top of the production configuration it ships in.
    """
    kg, model, queries = _diag_workload()
    config = dict(max_batch_size=1, num_workers=1, answer_cache_size=1)
    latencies = {"on": [], "off": []}
    with ServeRuntime(model, kg=kg,
                      config=ServeConfig(profiling=False,
                                         **config)) as off_runtime, \
            ServeRuntime(model, kg=kg,
                         config=ServeConfig(profiling=True,
                                            **config)) as on_runtime:
        runtimes = {"on": on_runtime, "off": off_runtime}
        for runtime in runtimes.values():  # warm threads + embed cache
            for query in queries:
                runtime.answer(query, top_k=top_k)
        done = 0
        while done < rounds:
            for label, runtime in runtimes.items():
                for index in range(done, min(done + block, rounds)):
                    result = runtime.answer(queries[index % len(queries)],
                                            top_k=top_k)
                    latencies[label].append(result.latency * 1000.0)
            done += block
        payload = on_runtime.prof_payload()
        overhead_ratio = on_runtime.prof.overhead_ratio
        effective_hz = on_runtime.prof.effective_hz
        downsamples = on_runtime.prof.downsamples
    on_p50 = float(np.percentile(latencies["on"], 50))
    off_p50 = float(np.percentile(latencies["off"], 50))
    return {"on_p50_ms": on_p50, "off_p50_ms": off_p50,
            "ratio": on_p50 / off_p50, "rounds": rounds,
            "payload": payload, "overhead_ratio": overhead_ratio,
            "effective_hz": effective_hz, "downsamples": downsamples}


def test_bench_prof_overhead(benchmark, bench_record):
    """The continuous profiler must cost < 2% p50 latency (ISSUE 10's
    budget: always-on means *always* on, including under load)."""
    out = benchmark.pedantic(_measure_prof_overhead, rounds=1,
                             iterations=1)
    if bench_record:
        record.record(BENCH_FILE,
                      {"prof_overhead_ratio": out["ratio"]},
                      higher_is_better=None)
        # rotate the recorded profile pair used for regression
        # attribution: this run becomes latest, the previous latest
        # becomes the baseline it will be diffed against
        prof_dir = record.PROFILE_DIR
        prof_dir.mkdir(parents=True, exist_ok=True)
        latest = prof_dir / "serve_profile.latest.json"
        baseline = prof_dir / "serve_profile.baseline.json"
        if latest.exists():
            latest.replace(baseline)
        latest.write_text(json.dumps(out["payload"]), encoding="utf-8")
        if not baseline.exists():
            baseline.write_text(json.dumps(out["payload"]),
                                encoding="utf-8")
        print(f"\nrecorded to {BENCH_FILE.name}; profile pair under "
              f"{prof_dir}")
    print()
    samples = out["payload"]["merged"]["samples"]
    print(f"sampling-profiler overhead, synthetic workload "
          f"({out['rounds']} requests per side, {samples} samples, "
          f"{out['effective_hz']:.0f}Hz effective, "
          f"{out['downsamples']} downsamples):")
    print(f"  {'profiling off':<18} p50 {out['off_p50_ms']:>8.3f} ms")
    print(f"  {'profiling on':<18} p50 {out['on_p50_ms']:>8.3f} ms "
          f"({100.0 * (out['ratio'] - 1.0):+.1f}%)")
    print(f"  self-measured pass cost: "
          f"{100.0 * out['overhead_ratio']:.2f}% of the interval")
    # 2% relative, with a small absolute floor so sub-millisecond p50s
    # don't fail on scheduler noise alone (the diag bench's pattern)
    assert out["on_p50_ms"] <= max(1.02 * out["off_p50_ms"],
                                   out["off_p50_ms"] + 0.25), \
        "continuous profiling regressed p50 latency by more than 2%"


# ----------------------------------------------------------------------
# sharded ranking (--shards N)
# ----------------------------------------------------------------------

def _synthetic_model(num_entities=30_000, dim=32, num_queries=64, seed=0):
    """A synthetic KG big enough that ranking dominates serving cost."""
    from repro.config import ModelConfig
    from repro.core import HalkModel
    from repro.kg import KnowledgeGraph
    from repro.queries import Entity, Projection

    rng = np.random.default_rng(seed)
    triples = [(int(rng.integers(num_entities)), int(rng.integers(8)),
                int(rng.integers(num_entities))) for _ in range(4096)]
    kg = KnowledgeGraph(num_entities, 8, triples)
    model = HalkModel(kg, ModelConfig(embedding_dim=dim, seed=seed))
    queries = [Projection(rel, Entity(head))
               for head, rel, _ in list(kg)[:num_queries]]
    return model, queries


def _measure_sharded(num_shards, rounds=1, top_k=10):
    from repro.core.topk import topk_rows
    from repro.dist import ShardedRanker

    model, queries = _synthetic_model()
    embedding = model.embed_batch(queries)

    def single_pass():
        distances = model.distance_to_all(embedding).data
        ids = topk_rows(distances, top_k)
        return ids, np.take_along_axis(distances, ids, axis=-1)

    single_ids, single_vals = single_pass()  # warm-up + reference
    start = time.perf_counter()
    for _ in range(rounds):
        single_pass()
    single = rounds * len(queries) / (time.perf_counter() - start)

    with ShardedRanker.for_model(model, num_shards) as ranker:
        sharded_ids, sharded_vals = ranker.topk(embedding, top_k)  # warm
        start = time.perf_counter()
        for _ in range(rounds):
            ranker.topk(embedding, top_k)
        sharded = rounds * len(queries) / (time.perf_counter() - start)

    # correctness is part of the benchmark: the sharded path must return
    # the *identical* ranking, bit for bit, ties included
    assert np.array_equal(sharded_ids, single_ids)
    assert np.array_equal(sharded_vals, single_vals)
    return {"single": single, "sharded": sharded,
            "queries": len(queries)}


def test_bench_sharded_ranking_throughput(benchmark, num_shards,
                                          bench_record):
    """--shards N ranking must be ≥ 2× the single-process pass."""
    from repro.dist import dist_available

    if num_shards < 2:
        pytest.skip("sharded rows disabled (--shards < 2)")
    if not dist_available():
        pytest.skip("shared memory unavailable on this platform")
    out = benchmark.pedantic(_measure_sharded, args=(num_shards,),
                             rounds=1, iterations=1)
    if bench_record:
        record.record(BENCH_FILE,
                      {f"sharded{num_shards}_qps": out["sharded"]},
                      higher_is_better=True)
        print(f"\nrecorded to {BENCH_FILE.name}")
    print()
    print(f"ranking throughput, synthetic KG (30k entities, "
          f"{out['queries']}-query batch):")
    speedup = out["sharded"] / out["single"]
    print(f"  {'single':<18} {out['single']:>10,.0f} q/s  (  1.0x)")
    print(f"  {f'sharded@{num_shards}':<18} {out['sharded']:>10,.0f} q/s  "
          f"({speedup:>5.1f}x)")
    assert out["sharded"] >= 2.0 * out["single"], \
        "sharded ranking should clear 2x the single-process pass " \
        "(blocked per-shard kernels + process parallelism)"
