"""Observability end to end: telemetry, tracing, continuous profiling.

Walks the whole ``repro.obs`` surface on a small FB237 analogue:

1. **training telemetry** — the trainer publishes per-epoch
   :class:`~repro.obs.EpochStats` (loss, gradient norm, samples/sec,
   per-operator-network time) to callbacks; here a JSONL sink plus the
   console logger;
2. **hierarchical tracing** — a multi-hop query served through
   :class:`~repro.serve.ServeRuntime` produces a span tree covering
   every stage (request → canonicalise / cache lookup / queue / embed /
   distance / rank), rendered as ASCII and exported as a Chrome trace
   you can open at ``chrome://tracing`` or https://ui.perfetto.dev;
3. **continuous profiling** — the same query re-answered in a loop under
   :class:`~repro.obs.SamplingProfiler` (the profiler every serving
   process runs; ``python -m repro.cli get prof host:port`` fetches it
   from a live server) shows the hottest self-time frames — no method is
   wrapped, the sampler just reads the stacks.

Run with::

    python examples/trace_demo.py
"""

import io
import json
import time

from repro import obs
from repro.config import ModelConfig, TrainConfig
from repro.core import HalkModel, Trainer
from repro.kg import fb237_mini
from repro.queries import QuerySampler, build_workloads, get_structure
from repro.serve import ServeConfig, ServeRuntime, format_snapshot


def main() -> None:
    splits = fb237_mini(scale=0.3)
    kg = splits.train
    bundle = build_workloads(splits, queries_per_structure=30,
                             eval_queries_per_structure=5, seed=0)
    model = HalkModel(kg, ModelConfig(embedding_dim=12, hidden_dim=24,
                                      seed=0))

    # 1. training telemetry: console line + JSONL event stream
    telemetry = io.StringIO()
    print("--- training telemetry")
    Trainer(model, bundle.train,
            TrainConfig(epochs=10, batch_size=128, num_negatives=8,
                        learning_rate=2e-3, embedding_learning_rate=2e-2,
                        log_every=5),
            callbacks=[obs.JsonlTelemetry(telemetry)]).train()
    last_epoch = json.loads(telemetry.getvalue().strip().splitlines()[-2])
    print(f"    last epoch event: loss={last_epoch['loss']:.4f} "
          f"grad_norm={last_epoch['grad_norm']:.3f} "
          f"{last_epoch['samples_per_sec']:.0f} samples/s")
    operators = last_epoch["operator_seconds"]
    for name in sorted(operators, key=operators.get, reverse=True)[:3]:
        print(f"    {name:<22} {1000 * operators[name]:7.1f} ms/epoch")

    # 2. serve a 3-hop query with tracing on; export the span tree
    obs.enable()
    tracer = obs.Tracer()
    sampler = QuerySampler(kg, splits.test, seed=3)
    query = sampler.sample(get_structure("3p")).query
    with ServeRuntime(model, kg=kg, tracer=tracer,
                      config=ServeConfig(num_workers=2)) as runtime:
        result = runtime.answer(query, top_k=5, timeout=30.0)
        snapshot = runtime.stats()
    print("--- span tree of one served 3p query "
          f"(source={result.source})")
    print(obs.format_span_tree(tracer.finished()))
    count = obs.write_chrome_trace("trace.json", tracer.finished())
    print(f"    wrote {count} events to trace.json "
          "(open at https://ui.perfetto.dev)")
    print(format_snapshot(snapshot, title="serve stats"))
    obs.disable()

    # 3. sample the model's answer path: hottest self-time frames
    with obs.SamplingProfiler(hz=200, role="demo") as sampler:
        deadline = time.monotonic() + 0.5
        while time.monotonic() < deadline:
            model.answer(query, top_k=5)
    print("--- sampled profile of model.answer "
          f"({sampler.snapshot().samples} samples)")
    print(obs.format_top(sampler.snapshot(), limit=8))


if __name__ == "__main__":
    main()
