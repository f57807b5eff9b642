"""Names, units, directions and bounds of every metric the benchmark prints.

Two groups of end-to-end metrics:

* :data:`END_TO_END` — the six every workload reports, which
  ``BENCHMARK.json`` lists and the driver gates.  Their bounds are
  relative (a share of the baseline median) and wide enough to hold
  across *different* seeds on this two-core sandbox.
* :data:`WORKLOAD_END_TO_END` — four that exist on some workloads only
  (``failed_ratio`` is 0 on a healthy run, the three ``train_*``/``eval_*``
  ones belong to ``train_mini``), so the driver's "every workload reports
  every metric, never 0" contract cannot carry them as end-to-end
  metrics.  ``run.py --compare`` gates all ten.

:data:`COMPARE_BOUNDS` is what ``--compare`` uses between two sets of runs
of the *same* seed, where the quality metrics repeat exactly and can be
held to absolute bounds.
"""

from __future__ import annotations

#: (name, unit, better, relative bound) — BENCHMARK.json ``end_to_end``
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("latency_p95_ms", "ms", "lower", 0.25),
    ("throughput_qps", "1/s", "higher", 0.25),
    ("rss_mb", "MB", "lower", 0.10),
    ("mrr_at_10", "ratio", "higher", 0.25),
)

#: (name, unit, better, workloads that report it)
WORKLOAD_END_TO_END = (
    ("failed_ratio", "ratio", "lower",
     ("mini_mixed", "mini_repeat", "mini_batch", "xl100k_sharded")),
    ("train_queries_per_s", "1/s", "higher", ("train_mini",)),
    ("eval_mrr", "ratio", "higher", ("train_mini",)),
    ("train_final_loss", "loss", "lower", ("train_mini",)),
)

#: metric -> ("rel", share) | ("abs", amount) | ("rel_or_abs", share,
#: amount: whichever is larger) by which the median may worsen
COMPARE_BOUNDS = {
    "setup_s": ("rel_or_abs", 0.25, 0.5),
    "latency_p50_ms": ("rel", 0.10),
    "latency_p95_ms": ("rel", 0.15),
    "throughput_qps": ("rel", 0.10),
    "failed_ratio": ("abs", 0.0),
    "mrr_at_10": ("abs", 0.005),
    "train_queries_per_s": ("rel", 0.10),
    "eval_mrr": ("abs", 0.01),
    "train_final_loss": ("rel", 0.02),
    "rss_mb": ("rel", 0.10),
}

BETTER = {name: better for name, _unit, better, _bound in END_TO_END}
BETTER.update({name: better
               for name, _unit, better, _where in WORKLOAD_END_TO_END})

#: (name, unit, better) — BENCHMARK.json ``per_layer``.  A layer that is
#: not on a workload's path reads 0 there.  ``train_final_loss`` and
#: ``eval_mrr`` ride here for the driver's record, since its end-to-end
#: list cannot hold a metric only one workload has.
PER_LAYER = (
    ("sparql.compile_ms", "ms", "lower"),
    ("gateway.self_ms", "ms", "lower"),
    ("gateway.shed", "count", "lower"),
    ("serve.http.self_ms", "ms", "lower"),
    ("serve.http.p99_ms", "ms", "lower"),
    ("serve.canonical_ms", "ms", "lower"),
    ("serve.runtime.self_ms", "ms", "lower"),
    ("serve.cache.hit_ratio", "ratio", "higher"),
    ("serve.cache.hit_ms", "ms", "lower"),
    ("serve.batcher.batch_size_mean", "count", "higher"),
    ("serve.retries", "count", "lower"),
    ("serve.fallbacks", "count", "lower"),
    ("serve.errors", "count", "lower"),
    ("obs.overhead_ms", "ms", "lower"),
    ("core.embed_ms", "ms", "lower"),
    ("core.embed_batch_us", "us", "lower"),
    ("core.distance_ms", "ms", "lower"),
    ("core.topk_ms", "ms", "lower"),
    ("plan.compile_us", "us", "lower"),
    ("plan.execute_us", "us", "lower"),
    ("plan.cse_saved_ratio", "ratio", "higher"),
    ("plan.cache_hit_ratio", "ratio", "higher"),
    ("dist.rank_ms", "ms", "lower"),
    ("dist.kernel_ms", "ms", "lower"),
    ("dist.merge_ms", "ms", "lower"),
    ("dist.ipc_ms", "ms", "lower"),
    ("dist.start_s", "s", "lower"),
    ("dist.slab_mb", "MB", "lower"),
    ("dist.hedges", "count", "lower"),
    ("dist.worker_respawns", "count", "lower"),
    ("nn.forward_ms", "ms", "lower"),
    ("nn.backward_ms", "ms", "lower"),
    ("nn.optim_ms", "ms", "lower"),
    ("core.trainer.self_ms", "ms", "lower"),
    ("core.trainer.steps", "count", "lower"),
    ("core.evaluate_s", "s", "lower"),
    ("train_final_loss", "loss", "lower"),
    ("eval_mrr", "ratio", "higher"),
    ("kg.load_s", "s", "lower"),
    ("queries.build_s", "s", "lower"),
    ("bench.reference_s", "s", "lower"),
    ("bench.slowdown", "ratio", "lower"),
    ("bench.client_overhead_us", "us", "lower"),
    ("bench.traced_post_ms", "ms", "lower"),
)

WORKLOAD_WHY = {
    "mini_mixed": "16-structure distinct queries over HTTP, caches off: "
                  "single-query latency through every layer, where batch "
                  "wait, embed and HTTP do the work",
    "mini_repeat": "Zipf-repeated queries over HTTP, default caches: the "
                   "cache-hit path, where HTTP, SPARQL, cache and "
                   "observability do the work and embed must not matter",
    "mini_batch": "in-process answer_batch of 256 queries, caches off: "
                  "bulk use, where batcher coalescing and embed_batch "
                  "dominate and HTTP and gateway are bypassed",
    "xl100k_sharded": "100k entities over 2 shard workers via HTTP: "
                      "ranking (kernel, IPC, merge) is about 95% of "
                      "service time and embed about 1%",
    "train_mini": "fresh HaLk trained then evaluated: the offline path of "
                  "Fig. 6b and the same operators used with gradients",
}
