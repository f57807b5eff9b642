"""Tier-1 guarantee: always-on sampling costs <2% of served p50 latency.

Same interleaved-blocks protocol as the benchmark-suite version
(``benchmarks/bench_serve_throughput.py::test_bench_prof_overhead``)
with a shrunk round count so it fits tier-1 time: two identical
runtimes, one with ``profiling=True`` and one without, alternate blocks
of requests so machine drift hits both sides equally, and the p50s are
compared with the 2%-relative / 0.25ms-absolute bound.  The absolute
floor keeps a sub-millisecond p50 from failing on scheduler noise that
has nothing to do with the sampler.
"""

import numpy as np
import pytest

from repro.config import ModelConfig
from repro.core import HalkModel
from repro.kg import KnowledgeGraph
from repro.queries import Entity, Projection
from repro.serve import ServeConfig, ServeRuntime

pytestmark = [pytest.mark.obs, pytest.mark.prof]


def _workload():
    rng = np.random.default_rng(5)
    n = 60
    kg = KnowledgeGraph(n, 4, sorted({
        (int(rng.integers(n)), int(rng.integers(4)), int(rng.integers(n)))
        for _ in range(240)}))
    model = HalkModel(kg, ModelConfig(embedding_dim=8, hidden_dim=16,
                                      seed=0))
    seen, queries = set(), []
    for head, rel, _ in kg:
        if (head, rel) not in seen:
            seen.add((head, rel))
            queries.append(Projection(rel, Entity(head)))
        if len(queries) == 8:
            break
    return kg, model, queries


def test_sampler_overhead_under_2_percent_p50():
    kg, model, queries = _workload()
    # answer_cache_size=1 forces the model path: a cache hit costs
    # microseconds and would hide any profiler overhead entirely
    config = dict(max_batch_size=1, num_workers=1, answer_cache_size=1)
    rounds, block = 120, 30
    latencies = {"on": [], "off": []}
    with ServeRuntime(model, kg=kg,
                      config=ServeConfig(profiling=False,
                                         **config)) as off_runtime, \
            ServeRuntime(model, kg=kg,
                         config=ServeConfig(profiling=True,
                                            **config)) as on_runtime:
        assert on_runtime.prof is not None and on_runtime.prof.running
        assert off_runtime.prof is None
        runtimes = {"on": on_runtime, "off": off_runtime}
        for runtime in runtimes.values():  # warm threads + embed cache
            for query in queries:
                runtime.answer(query, top_k=5)
        done = 0
        while done < rounds:
            for label, runtime in runtimes.items():
                for index in range(done, min(done + block, rounds)):
                    result = runtime.answer(queries[index % len(queries)],
                                            top_k=5)
                    latencies[label].append(result.latency * 1000.0)
            done += block
        # the sampler measured its own cost and stayed inside budget
        # (or halved its rate until it did)
        ratio = on_runtime.prof.overhead_ratio
        budget = on_runtime.prof.overhead_budget
        assert ratio <= 2.0 * budget, (
            f"sampler self-cost {ratio:.3f} of interval never converged "
            f"under budget {budget}")
        assert on_runtime.prof.snapshot().samples > 0
    on_p50 = float(np.percentile(latencies["on"], 50))
    off_p50 = float(np.percentile(latencies["off"], 50))
    assert on_p50 <= max(1.02 * off_p50, off_p50 + 0.25), (
        f"profiling-on p50 {on_p50:.3f}ms vs off {off_p50:.3f}ms "
        f"breaks the 2% overhead budget")
