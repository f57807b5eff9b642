"""Entity-scaling sweep: where does the sharded data plane pay off?

BENCH_serve.json shows sharding *losing* on the mini datasets — IPC
dominates when a shard's row block is a few hundred entities.  This
sweep grows the entity table (the xl streaming generator's latent recipe
at serving dimension) and measures, at each size, the single-process
serving pass (autograd ``distance_to_all`` + ``topk_rows``, the path
``ServeRuntime`` uses without ``--shards``) against the sharded ranker
(blocked per-shard kernels in worker processes over per-shard slabs,
exact merge).

Two numbers land in BENCH_serve.json under the regression gate:

* ``scaling_crossover_entities`` — the smallest swept entity count where
  sharded throughput beats single-process (lower = the data plane pays
  for itself sooner);
* ``sharded_qps_100k`` — sharded throughput at the 100k-entity point,
  the headline scale of ROADMAP open item 1.

Correctness rides along: at every size the sharded ``(ids, vals)`` must
be bitwise identical to the single-process pass.

Run::

    pytest benchmarks/bench_scaling.py --benchmark-only -s [--shards N]
"""

import time

import numpy as np
import pytest

import record

BENCH_FILE = record.BENCH_DIR / "BENCH_serve.json"

#: entity counts swept, ascending; 100_000 must be present (it anchors
#: the ``sharded_qps_100k`` trajectory key)
SWEEP = (2_000, 10_000, 30_000, 100_000)
DIM = 32
NUM_QUERIES = 16
TOP_K = 10


def _scaled_model(num_entities, dim=DIM, num_queries=NUM_QUERIES, seed=0):
    """A HaLk model over a random KG of the requested entity count."""
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


def _measure_point(num_entities, num_shards, min_seconds=0.5):
    """(single qps, sharded qps) at one entity count, parity-checked."""
    from repro.core.topk import topk_rows
    from repro.dist import ShardedRanker

    model, queries = _scaled_model(num_entities)
    embedding = model.embed_batch(queries)

    def single_pass():
        distances = model.distance_to_all(embedding).data
        ids = topk_rows(distances, TOP_K)
        return ids, np.take_along_axis(distances, ids, axis=-1)

    def timed(fn):
        fn()  # warm-up
        rounds, elapsed = 0, 0.0
        start = time.perf_counter()
        while elapsed < min_seconds:
            fn()
            rounds += 1
            elapsed = time.perf_counter() - start
        return rounds * len(queries) / elapsed

    single_ids, single_vals = single_pass()
    single = timed(single_pass)

    with ShardedRanker.for_model(model, num_shards) as ranker:
        sharded_ids, sharded_vals = ranker.topk(embedding, TOP_K)
        assert np.array_equal(sharded_ids, single_ids), \
            f"sharded ids diverge at {num_entities} entities"
        assert np.array_equal(sharded_vals, single_vals), \
            f"sharded vals diverge at {num_entities} entities"
        sharded = timed(lambda: ranker.topk(embedding, TOP_K))
    return {"single": single, "sharded": sharded}


def _sweep(num_shards):
    points = {}
    for num_entities in SWEEP:
        points[num_entities] = _measure_point(num_entities, num_shards)
    crossover = next((n for n in SWEEP
                      if points[n]["sharded"] >= points[n]["single"]),
                     None)
    return {"points": points, "crossover": crossover,
            "num_shards": num_shards}


def test_bench_scaling_crossover(benchmark, num_shards, bench_record):
    """Sharded ranking must beat single-process by 100k entities."""
    from repro.dist import dist_available

    if num_shards < 2:
        pytest.skip("sharded rows disabled (--shards < 2)")
    if not dist_available():
        pytest.skip("shared memory unavailable on this platform")
    out = benchmark.pedantic(_sweep, args=(num_shards,),
                             rounds=1, iterations=1)
    points = out["points"]
    crossover = out["crossover"]
    if bench_record and crossover is not None:
        record.record(BENCH_FILE,
                      {"scaling_crossover_entities": float(crossover),
                       "sharded_qps_100k": points[100_000]["sharded"]},
                      higher_is_better=None)
        print(f"\nrecorded to {BENCH_FILE.name}")
    print()
    print(f"entity-scaling sweep, {num_shards} shards, "
          f"{NUM_QUERIES}-query batch, dim {DIM}:")
    print(f"  {'entities':>10} {'single q/s':>12} {'sharded q/s':>12} "
          f"{'speedup':>8}")
    for num_entities in SWEEP:
        point = points[num_entities]
        ratio = point["sharded"] / point["single"]
        marker = " <- crossover" if num_entities == crossover else ""
        print(f"  {num_entities:>10,} {point['single']:>12,.1f} "
              f"{point['sharded']:>12,.1f} {ratio:>7.2f}x{marker}")
    assert crossover is not None and crossover <= 100_000, \
        "sharded ranking should overtake the single-process pass at or " \
        "before 100k entities (blocked kernels amortise the IPC)"
