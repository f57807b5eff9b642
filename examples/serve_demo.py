"""Serving HaLk: micro-batching, multi-tier caching, graceful fallbacks.

Drives a :class:`repro.serve.ServeRuntime` against a trained model on the
FB237 analogue and shows the three serving wins in order:

1. **batching** — a concurrent workload coalesced into a handful of
   compiled-plan/``distance_to_all`` passes beats the sequential
   ``model.answer`` loop;
2. **caching** — repeating the workload is served from the answer cache
   (isomorphic queries share entries via canonicalisation);
3. **degradation** — an impossible deadline falls back to the exact
   symbolic executor over the observed graph, and the runtime keeps
   answering.

Run with::

    python examples/serve_demo.py
"""

import time

from repro.config import ModelConfig, TrainConfig
from repro.core import HalkModel, Trainer
from repro.kg import fb237_mini
from repro.queries import QuerySampler, build_workloads, get_structure
from repro.serve import ServeConfig, ServeRuntime, format_snapshot
from repro.sparql import SparqlEngine


def main() -> None:
    splits = fb237_mini(scale=0.4)
    kg = splits.train

    # train a small HaLk model to serve
    bundle = build_workloads(splits, queries_per_structure=40,
                             eval_queries_per_structure=5, seed=0)
    model = HalkModel(kg, ModelConfig(embedding_dim=16, hidden_dim=32, seed=0))
    Trainer(model, bundle.train,
            TrainConfig(epochs=40, batch_size=128, num_negatives=16,
                        learning_rate=2e-3,
                        embedding_learning_rate=2e-2)).train()

    engine = SparqlEngine(kg, model=model)
    # the observed graph enables the exact symbolic fallback
    runtime = ServeRuntime(
        model, kg=kg,
        config=ServeConfig(max_batch_size=32, num_workers=2))

    # a mixed workload of the multi-hop structures HaLk targets
    sampler = QuerySampler(kg, splits.test, seed=3)
    queries = [sampler.sample(get_structure(name)).query
               for name in ("2p", "3i", "pi", "2ipp") for _ in range(15)]

    with runtime:
        # 1. batched vs sequential
        start = time.perf_counter()
        for query in queries:
            model.answer(query, top_k=5)
        sequential = time.perf_counter() - start

        start = time.perf_counter()
        results = runtime.answer_batch(queries, top_k=5)
        batched = time.perf_counter() - start
        print(f"--- batching ({len(queries)} queries)")
        print(f"    sequential loop: {sequential * 1000:7.1f} ms")
        print(f"    served, batched: {batched * 1000:7.1f} ms "
              f"({sequential / batched:.1f}x)")

        # 2. the same workload again: answered from the cache
        start = time.perf_counter()
        repeats = runtime.answer_batch(queries, top_k=5)
        cached = time.perf_counter() - start
        hits = sum(r.source == "answer_cache" for r in repeats)
        print(f"--- caching")
        print(f"    repeat pass:     {cached * 1000:7.1f} ms "
              f"({hits}/{len(repeats)} answer-cache hits)")

        # 3. SPARQL front door + name resolution
        head, rel, _ = sorted(kg.triples)[0]
        sparql = (f"SELECT ?x WHERE {{ "
                  f"{kg.entity_names[head]} {kg.relation_names[rel]} ?x . }}")
        result = runtime.answer(engine.compile(sparql), top_k=5)
        names = [kg.entity_names[i] for i in result.entity_ids]
        print(f"--- SPARQL through the engine's compiler")
        print(f"    {' '.join(sparql.split())}")
        print(f"    top-5 [{result.source}]: {names}")

        # 4. graceful degradation under an impossible deadline
        # (a fresh query — anything already served would hit the cache)
        fresh = sampler.sample(get_structure("2ippu")).query
        degraded = runtime.answer(fresh, top_k=5, deadline=0.0)
        print(f"--- degradation")
        print(f"    deadline=0 answered via '{degraded.source}' "
              f"with {len(degraded)} entities")

        print()
        print(format_snapshot(runtime.stats(), title="serve stats"))


if __name__ == "__main__":
    main()
