"""Command-line interface for the reproduction.

Usage (after ``pip install -e .``)::

    python -m repro.cli datasets                       # list + stats
    python -m repro.cli train --dataset FB237 --method HaLk --epochs 100
    python -m repro.cli evaluate --dataset FB237 --method HaLk
    python -m repro.cli answer --dataset FB237 --sparql "SELECT ?x WHERE { e12 rotation_0 ?x }"
    python -m repro.cli serve --dataset FB237 --train-if-missing --stats
    python -m repro.cli serve --dataset FB237 --http-port 9105 --hold
    python -m repro.cli get stats 127.0.0.1:9105
    python -m repro.cli get flight 127.0.0.1:9105 n=20 min_ms=50
    python -m repro.cli trace --dataset FB237 --structure 3p --out trace.json
    python -m repro.cli train --dataset FB237 --telemetry train.jsonl

``train`` persists model weights under ``--model-dir`` (default
``./models``); ``evaluate``, ``answer``, ``serve`` and ``trace`` reload
them.  ``serve`` drives the batched/cached runtime in ``repro.serve``
over a workload and reports throughput, cache hit rates, and latency
percentiles; with ``--http-port`` it also exposes ``/metrics``
(Prometheus text format), ``/healthz``, and ``/statusz``, and ``get``
prints one of a running server's JSON endpoints (``/statusz``, the
flight recorder, SLOs, profile, memory) from another terminal.
``trace`` answers one query with ``repro.obs`` tracing
enabled and writes a Chrome trace-event file; ``train --telemetry``
streams per-epoch training telemetry as JSON Lines.
"""

from __future__ import annotations

import argparse
import pathlib
import signal
import sys
import time

import numpy as np

from . import ckpt
from .baselines import (ConEModel, MLPMixModel, NewLookModel, HalkV1, HalkV2,
                        HalkV3, supported_workload)
from .config import ModelConfig, TrainConfig
from .core import HalkModel, Trainer, evaluate
from .kg import DATASET_BUILDERS, load_dataset
from .queries import build_workloads
from .sparql import SparqlEngine

METHODS = {
    "HaLk": HalkModel,
    "ConE": ConEModel,
    "NewLook": NewLookModel,
    "MLPMix": MLPMixModel,
    "HaLk-V1": HalkV1,
    "HaLk-V2": HalkV2,
    "HaLk-V3": HalkV3,
}


def _model_paths(model_dir: pathlib.Path, dataset: str, method: str):
    stem = f"{dataset}_{method}".replace("/", "_")
    return model_dir / f"{stem}.npz", model_dir / f"{stem}.json"


def _run_meta(args) -> dict:
    """Manifest metadata identifying one training configuration."""
    return {"dataset": args.dataset, "method": args.method, "dim": args.dim,
            "seed": args.seed, "scale": args.scale}


def _checkpoint_dir(args) -> pathlib.Path:
    explicit = getattr(args, "checkpoint_dir", None)
    if explicit:
        return pathlib.Path(explicit)
    stem = f"{args.dataset}_{args.method}".replace("/", "_")
    return pathlib.Path(args.model_dir) / "ckpt" / stem


def _build_model(args, train_graph):
    config = ModelConfig(embedding_dim=args.dim, hidden_dim=2 * args.dim,
                         seed=args.seed)
    return METHODS[args.method](train_graph, config)


def cmd_datasets(args) -> int:
    print(f"{'name':>8} {'entities':>9} {'relations':>10} "
          f"{'train':>7} {'valid':>7} {'test':>7}")
    for name in DATASET_BUILDERS:
        splits = load_dataset(name, scale=args.scale, seed=args.seed)
        print(f"{name:>8} {splits.test.num_entities:>9} "
              f"{splits.test.num_relations:>10} "
              f"{splits.train.num_triples:>7} {splits.valid.num_triples:>7} "
              f"{splits.test.num_triples:>7}")
    return 0


def _train_and_save(args, epochs: int, queries: int, lr: float = 2e-3,
                    embedding_lr: float = 2e-2):
    """Train a model with the given budget and persist it under model-dir."""
    splits = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    bundle = build_workloads(splits, queries_per_structure=queries,
                             eval_queries_per_structure=10, seed=args.seed)
    model = _build_model(args, splits.train)
    workload = supported_workload(model, bundle.train)
    callbacks = []
    telemetry = None
    if getattr(args, "telemetry", None):
        from .obs import JsonlTelemetry
        telemetry = JsonlTelemetry(args.telemetry)
        callbacks.append(telemetry)
    run_meta = _run_meta(args)
    checkpoint_every = getattr(args, "checkpoint_every", 0)
    if checkpoint_every:
        callbacks.append(ckpt.CheckpointCallback(
            _checkpoint_dir(args), every=checkpoint_every,
            keep_last=getattr(args, "keep_last", 3), meta=run_meta))
    train_config = TrainConfig(epochs=epochs, batch_size=128,
                               num_negatives=16, learning_rate=lr,
                               embedding_learning_rate=embedding_lr,
                               seed=args.seed,
                               log_every=max(1, epochs // 10))
    num_shards = getattr(args, "shards", 0)
    if num_shards >= 2:
        from .dist import ShardedTrainer, dist_available
        if dist_available():
            trainer = ShardedTrainer(model, workload, train_config,
                                     num_workers=num_shards,
                                     callbacks=callbacks)
            print(f"data-parallel training over {num_shards} workers")
        else:
            print("shared memory unavailable; training single-process")
            trainer = Trainer(model, workload, train_config,
                              callbacks=callbacks)
    else:
        trainer = Trainer(model, workload, train_config,
                          callbacks=callbacks)
    if getattr(args, "resume", False):
        latest = ckpt.CheckpointManager(_checkpoint_dir(args)).latest()
        if latest is None:
            print(f"no checkpoint under {_checkpoint_dir(args)}; "
                  f"starting fresh")
        else:
            try:
                restored = ckpt.restore_training(trainer, latest,
                                                 expect=run_meta)
            except ckpt.CheckpointError as exc:
                raise SystemExit(str(exc)) from exc
            print(f"resumed from {latest} "
                  f"(epoch {restored.manifest.meta.get('epoch')})")
    try:
        history = trainer.train()
    finally:
        if telemetry is not None:
            telemetry.close()
            print(f"telemetry: {args.telemetry}")
    model_dir = pathlib.Path(args.model_dir)
    model_dir.mkdir(parents=True, exist_ok=True)
    weights, meta = _model_paths(model_dir, args.dataset, args.method)
    # weights + metadata travel as ONE manifest-tracked atomic unit: a
    # crash cannot leave new weights beside stale metadata (or vice
    # versa), and a torn write never replaces the previous good model
    save_meta = dict(run_meta, train_seconds=history.seconds,
                     final_loss=history.final_loss)
    manifest = ckpt.save_checkpoint(weights, {"model": model.state_dict()},
                                    meta=save_meta)
    # human-readable sidecar (informational; the npz's embedded manifest
    # is what loading validates)
    ckpt.atomic_write_json(meta, dict(save_meta,
                                      checksum=manifest.checksum,
                                      format_version=manifest.format_version))
    return splits, model, history


def cmd_train(args) -> int:
    _, _, history = _train_and_save(args, epochs=args.epochs,
                                    queries=args.queries, lr=args.lr,
                                    embedding_lr=args.embedding_lr)
    weights, _ = _model_paths(pathlib.Path(args.model_dir), args.dataset,
                              args.method)
    print(f"saved {weights} ({history.seconds:.1f}s, "
          f"loss {history.final_loss:.4f})")
    return 0


def _load_trained(args):
    splits = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    model = _build_model(args, splits.train)
    weights, meta = _model_paths(pathlib.Path(args.model_dir), args.dataset,
                                 args.method)
    if not weights.exists():
        raise SystemExit(f"no trained model at {weights}; run "
                         f"`python -m repro.cli train` first")
    try:
        checkpoint = ckpt.load_checkpoint(
            weights, expect={"dataset": args.dataset,
                             "method": args.method})
    except ckpt.CheckpointError as exc:
        raise SystemExit(str(exc)) from exc
    saved = checkpoint.manifest.meta
    if saved.get("dim") != args.dim or saved.get("scale") != args.scale:
        raise SystemExit("saved model was trained with different "
                         "--dim/--scale; pass matching flags")
    model.load_state_dict(checkpoint.state["model"])
    return splits, model


def cmd_evaluate(args) -> int:
    splits, model = _load_trained(args)
    bundle = build_workloads(splits, queries_per_structure=10,
                             eval_queries_per_structure=args.queries,
                             seed=args.seed)
    workload = supported_workload(model, bundle.test)
    ranker = None
    if getattr(args, "shards", 0) >= 2:
        from .dist import ShardedRanker, dist_available
        ranker = ShardedRanker.for_model(model, args.shards)
        if ranker is not None:
            print(f"sharded ranking over {ranker.num_shards} workers")
        elif not dist_available():
            print("shared memory unavailable; ranking in-process")
        else:
            print(f"{args.method} has no sharding spec; ranking "
                  f"in-process")
    try:
        results = evaluate(model, workload, ranker=ranker)
    finally:
        if ranker is not None:
            ranker.close()
    print(f"{'structure':>10} {'MRR':>7} {'Hits@1':>7} {'Hits@3':>7} "
          f"{'Hits@10':>8}")
    for structure in workload.structures():
        metrics = results[structure]
        print(f"{structure:>10} {metrics.mrr:>7.3f} {metrics.hits[1]:>7.3f} "
              f"{metrics.hits[3]:>7.3f} {metrics.hits[10]:>8.3f}")
    mean = np.mean([m.mrr for m in results.values()])
    print(f"{'average':>10} {mean:>7.3f}")
    return 0


def cmd_answer(args) -> int:
    splits, model = _load_trained(args)
    engine = SparqlEngine(splits.train, model=model)
    result = engine.answer(args.sparql, top_k=args.top_k)
    print(f"computation graph: {result.computation_graph}")
    for entity_id, name in zip(result.entity_ids, result.entity_names):
        print(f"  {entity_id:>6}  {name}")
    return 0


def cmd_explain(args) -> int:
    import json as json_module

    from .plan import PlanCompiler, plan_to_json, render_plan
    from .queries import QuerySampler, get_structure
    from .queries.printing import to_text

    splits = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    if args.sparql:
        engine = SparqlEngine(splits.train)
        queries = [engine.compile(s) for s in args.sparql]
    else:
        sampler = QuerySampler(splits.train, splits.test, seed=args.seed)
        structures = args.structure or ["2i", "2i", "3p"]
        queries = [sampler.sample(get_structure(name)).query
                   for name in structures for _ in range(args.count)]
    compiler = PlanCompiler(dnf=not args.no_dnf)
    compiled = compiler.compile(queries)
    # fresh compiler => a query hits the template cache iff an earlier
    # query in this batch shares its structure key
    seen: set[str] = set()
    hits = []
    for key in compiled.structure_keys:
        hits.append(key in seen)
        seen.add(key)
    kg = splits.train if args.names else None
    if args.json:
        payload = plan_to_json(compiled.plan,
                               structure_keys=compiled.structure_keys,
                               cache_hits=hits)
        payload["queries"] = [to_text(q, kg) for q in queries]
        print(json_module.dumps(payload, indent=2))
        return 0
    print("queries:")
    for position, query in enumerate(queries):
        print(f"  q{position}: {to_text(query, kg)}")
    print()
    print(render_plan(compiled.plan, structure_keys=compiled.structure_keys,
                      cache_hits=hits, kg=kg))
    return 0


def _serve_runtime(model, **kwargs):
    """A ServeRuntime, or a one-line exit for a model serving leaves out
    (no ``plan_backend()``: the ConE / NewLook / MLPMix baselines, which
    train and evaluate only; HaLk and its ablations all have one)."""
    from .serve import ServeRuntime
    try:
        return ServeRuntime(model, **kwargs)
    except TypeError as exc:
        raise SystemExit(str(exc)) from exc


def _interrupt(_signum, _frame):
    raise KeyboardInterrupt


def cmd_serve(args) -> int:
    from .queries import QuerySampler, get_structure
    from .serve import ServeConfig, format_snapshot

    weights, _ = _model_paths(pathlib.Path(args.model_dir), args.dataset,
                              args.method)
    if not weights.exists() and args.train_if_missing:
        print(f"no trained model at {weights}; training a quick one "
              f"({args.train_epochs} epochs)")
        _train_and_save(args, epochs=args.train_epochs,
                        queries=args.train_queries)
    splits, model = _load_trained(args)
    engine = SparqlEngine(splits.train, model=model)
    config = ServeConfig(max_batch_size=args.batch_size,
                         num_workers=args.workers,
                         answer_ttl=args.answer_ttl,
                         default_deadline=args.deadline,
                         num_shards=getattr(args, "shards", 0),
                         http_port=args.http_port,
                         http_host=args.http_host)
    if config.num_shards >= 2:
        from .dist import dist_available
        if not dist_available():
            print("shared memory unavailable; ranking in-process")
    gateway = None
    with _serve_runtime(model, kg=splits.train, config=config) as runtime:
        if args.gateway or args.tenant or args.tenant_file:
            from .gateway import (Gateway, GatewayConfig,
                                  load_tenant_configs, parse_tenant_spec)
            tenants = [parse_tenant_spec(spec)
                       for spec in (args.tenant or [])]
            if args.tenant_file:
                tenants.extend(load_tenant_configs(args.tenant_file))
            # explicit tenants => strict (unknown names are rejected);
            # bare --gateway => one open default tenant, the gateway is
            # a deadline-shedding door (--deadline reaches it through
            # the runtime's default_deadline)
            gw_config = GatewayConfig(tenants=tuple(tenants),
                                      default_tenant=None) \
                if tenants else GatewayConfig()
            gateway = Gateway(runtime, gw_config,
                              compile_fn=engine.compile)
            described = ", ".join(
                f"{t.name} (rate={t.rate}/s weight={t.weight})"
                for t in tenants) or "default (unlimited)"
            print(f"gateway: admission control on — tenants: {described}")
        if runtime.http_server is not None:
            url = runtime.http_server.url
            print(f"telemetry endpoints: {url}/metrics  {url}/healthz  "
                  f"{url}/statusz")
            if gateway is not None:
                print(f"query endpoint: POST {url}/v1/query")
        if args.watch:
            runtime.watch(weights, interval=args.watch_interval,
                          expect={"dataset": args.dataset,
                                  "method": args.method})
            print(f"watching {weights} for hot reloads "
                  f"(every {args.watch_interval}s)")
        if args.sparql:
            queries = [engine.compile(text) for text in args.sparql]
        else:
            sampler = QuerySampler(splits.train, splits.test,
                                   seed=args.seed)
            per_structure = max(1, args.queries // 3)
            queries = [sampler.sample(get_structure(name)).query
                       for name in ("1p", "2p", "2i")
                       for _ in range(per_structure)]
        results = []
        for round_index in range(args.repeat):
            start = time.perf_counter()
            results = runtime.answer_batch(queries, top_k=args.top_k)
            elapsed = max(time.perf_counter() - start, 1e-9)
            sources: dict[str, int] = {}
            for result in results:
                sources[result.source] = sources.get(result.source, 0) + 1
            print(f"pass {round_index + 1}: {len(results)} queries in "
                  f"{elapsed:.3f}s ({len(results) / elapsed:,.0f} q/s) "
                  f"sources={sources}")
        sample = results[0]
        names = [splits.train.entity_names[i]
                 for i in sample.entity_ids[:5]]
        print(f"sample answer [{sample.source}]: {', '.join(names)}")
        if args.stats:
            print(format_snapshot(runtime.stats()))
        if args.hold and runtime.http_server is not None:
            # SIGTERM's default action would skip the runtime's close()
            # and orphan the shard workers and their segments: it ends
            # the hold the way Ctrl-C does
            previous = signal.signal(signal.SIGTERM, _interrupt)
            try:
                print("holding for scrapes; Ctrl-C to exit", flush=True)
                while True:
                    time.sleep(1.0)
            except KeyboardInterrupt:
                print()
            finally:
                signal.signal(signal.SIGTERM, previous)
        if gateway is not None:
            gateway.close()
    return 0


def cmd_genkg(args) -> int:
    """Stream an xl-scale synthetic KG to disk."""
    from .kg.datasets import DEFAULT_CHUNK
    from .kg.xl import fb15k_xl_config, stream_splits

    config = fb15k_xl_config(num_entities=args.entities, seed=args.seed)
    start = time.perf_counter()
    summary = stream_splits(config, args.out, seed=args.seed,
                            chunk=args.chunk or DEFAULT_CHUNK)
    elapsed = time.perf_counter() - start
    print(f"{summary.name}: {summary.num_entities:,} entities, "
          f"{summary.num_relations} relations -> {args.out} "
          f"({elapsed:.1f}s)")
    for split in ("train", "valid", "test"):
        print(f"  {split:>5}: {summary.counts[split]:>12,} triples")
    return 0


def _fetch(url: str, timeout: float) -> bytes:
    """GET one endpoint of a running server: its body; SystemExit on
    failure.

    Every failure is one clean line: a refusal names the server's status
    and its JSON ``error``, an unreachable host reads ``cannot reach``,
    and a body that is not JSON where JSON was due says so (the address
    points at something that is not a repro server).
    """
    from urllib.error import HTTPError, URLError
    from urllib.request import urlopen

    try:
        with urlopen(url, timeout=timeout) as response:
            return response.read()
    except HTTPError as exc:
        status, body = exc.code, exc.read()
    except (URLError, OSError) as exc:
        raise SystemExit(f"cannot reach {url}: {exc}") from exc
    raise SystemExit(f"{url}: {status} {_parse_json(url, body).get('error')}")


def _parse_json(url: str, body: bytes) -> dict:
    import json
    try:
        return json.loads(body.decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise SystemExit(f"{url} did not return JSON "
                         f"(not a repro server?): {exc}") from exc


def _fetch_json(url: str, timeout: float) -> dict:
    """GET a JSON endpoint of a running server (see :func:`_fetch`)."""
    return _parse_json(url, _fetch(url, timeout))


def _render_stats(payload: dict) -> int:
    from .serve import format_snapshot, snapshot_from_json

    health = payload.get("health")
    if health is not None:
        state = "ok" if health.get("ok") else "UNHEALTHY"
        detail = " ".join(f"{k}={v}" for k, v in sorted(health.items())
                          if k != "ok")
        print(f"health: {state}  {detail}")
    version = payload.get("model_version")
    if version is not None:
        print(f"model_version: {version}")
    uptime = payload.get("uptime_seconds")
    if uptime:
        print(f"uptime: {uptime:.0f}s")
    print(format_snapshot(snapshot_from_json(payload)))
    return 0


def _render_flight(payload: dict) -> int:
    records = payload.get("records", [])
    print(f"{len(records)} of {payload.get('total_recorded', 0)} "
          f"recorded requests "
          f"({payload.get('traces_retained', 0)} traces retained)")
    if not records:
        return 0
    header = ("request_id", "tenant", "structure", "source", "lat_ms",
              "total_ms", "queue_ms", "cache", "batch", "shards",
              "trace", "error")
    rows = [header]
    for r in records:
        rows.append((
            r.get("request_id", ""), r.get("tenant", "") or "-",
            r.get("structure", "") or "-", r.get("source", "") or "-",
            f"{r.get('latency_ms', 0.0):.2f}",
            f"{r.get('total_ms', 0.0):.2f}",
            f"{r.get('queue_ms', 0.0):.2f}",
            r.get("cache", "") or "-", str(r.get("batch_size", 0)),
            str(r.get("shards", 0)),
            "y" if r.get("trace_retained") else "-",
            r.get("error", "") or "-"))
    widths = [max(len(row[i]) for row in rows)
              for i in range(len(header))]
    for row in rows:
        print("  ".join(cell.ljust(width)
                        for cell, width in zip(row, widths)).rstrip())
    return 0


def _render_slo(payload: dict) -> int:
    """SLO lines; 1 while any alert fires."""
    fast = payload.get("windows", {}).get("fast", [])
    slow = payload.get("windows", {}).get("slow", [])
    if fast and slow:
        print(f"alert policy: fast burn>{fast[2]} over "
              f"{fast[0]:.0f}s+{fast[1]:.0f}s, slow burn>{slow[2]} "
              f"over {slow[0]:.0f}s+{slow[1]:.0f}s")
    status = 0
    for objective in payload.get("objectives", []):
        alert = objective.get("alert") or "ok"
        if alert != "ok":
            status = 1
        burns = " ".join(
            f"{window}={rate:.2f}" for window, rate
            in objective.get("burn_rates", {}).items())
        threshold = objective.get("threshold_ms")
        kind = objective.get("kind", "")
        if threshold:
            kind += f"<{threshold:g}ms"
        print(f"{objective.get('slo')}  [{kind}]  "
              f"target={objective.get('target')}  burn: {burns}  "
              f"alert: {alert.upper() if alert != 'ok' else 'ok'}")
        for exemplar in objective.get("exemplars", []):
            print(f"    p99 exemplar {exemplar.get('request_id')} "
                  f"{exemplar.get('latency_ms', 0.0):.2f}ms")
    return status


def _render_prof(payload: dict) -> int:
    from .obs.prof import Profile, format_top

    merged = Profile.from_dict(payload.get("merged", {}))
    window = payload.get("window_seconds") or 0.0
    scope = f"{window:g}s window" if window else "since start"
    print(f"roles: {', '.join(payload.get('roles', [])) or '-'}  "
          f"samples: {merged.samples} ({scope})  "
          f"rate: {payload.get('effective_hz', 0.0):.1f}Hz  "
          f"overhead: {100.0 * payload.get('overhead_ratio', 0.0):.2f}%")
    print()
    print(format_top(merged))
    plan_ops = payload.get("plan_ops") or {}
    if plan_ops:
        total = sum(plan_ops.values())
        print()
        print("plan-op seconds (cumulative):")
        for kind, seconds in sorted(plan_ops.items(),
                                    key=lambda kv: -kv[1]):
            share = 100.0 * seconds / total if total else 0.0
            print(f"  {kind:<12} {seconds:>9.4f}s  {share:>5.1f}%")
    return 0


def _human_bytes(n: float) -> str:
    for unit in ("B", "KiB", "MiB", "GiB"):
        if abs(n) < 1024.0 or unit == "GiB":
            return f"{n:.1f}{unit}" if unit != "B" else f"{int(n)}B"
        n /= 1024.0
    return f"{n:.1f}GiB"  # pragma: no cover - loop always returns


def _render_mem(payload: dict) -> int:
    print("process RSS:")
    for proc in payload.get("processes", []):
        print(f"  {proc.get('role', '?'):<10} pid {proc.get('pid', 0):<8} "
              f"{_human_bytes(proc.get('rss_bytes', 0))}")
    caches = payload.get("caches", {})
    if caches:
        print("caches:")
        for name, stats in sorted(caches.items()):
            print(f"  {name:<20} {stats.get('size', 0):>6} entries  "
                  f"{_human_bytes(stats.get('bytes', 0)):>10}  "
                  f"hits={stats.get('hits', 0)} "
                  f"misses={stats.get('misses', 0)}")
    def table(info: dict, where: str) -> str:
        return (f"{info.get('num_entities', 0):,} x {info.get('dim', 0)} "
                f"entities, {_human_bytes(info.get('total_bytes', 0))} "
                f"{where} ({_human_bytes(info.get('prepared_bytes', 0))} "
                f"of it the filter's float32 table)")

    plan = payload.get("shard_plan")
    if plan:
        print(f"shard plan: {table(plan, 'published')}")
        for row in plan.get("shards", []):
            print(f"  shard {row.get('shard')}: {row.get('rows', 0):,} "
                  f"rows  {_human_bytes(row.get('bytes', 0))}")
    local = payload.get("local_ranker")
    if local:
        print(f"in-process ranker: {table(local, 'private')}")
    return 0


#: what ``cli get`` reads: endpoint name -> (server path, renderer); a
#: renderer prints one payload and returns the exit status
ENDPOINTS = {
    "stats": ("/statusz", _render_stats),
    "flight": ("/debug/flight", _render_flight),
    "slo": ("/debug/slo", _render_slo),
    "prof": ("/debug/prof", _render_prof),
    "mem": ("/debug/mem", _render_mem),
}


def _query_word(text: str) -> tuple[str, str]:
    """argparse type of one ``name=value`` query parameter."""
    name, sep, value = text.partition("=")
    if not sep or not name:
        raise argparse.ArgumentTypeError(f"expected name=value, got "
                                         f"{text!r}")
    return name, value


def cmd_get(args) -> int:
    """Fetch one endpoint of a running server and print it."""
    import json
    from urllib.parse import urlencode

    path, render = ENDPOINTS[args.endpoint]
    target = args.target if "://" in args.target \
        else f"http://{args.target}"
    url = f"{target.rstrip('/')}{path}"
    if args.params:
        url += f"?{urlencode(args.params)}"
    # a profile window holds the reply back for its length; a value that
    # is not a number gets the server's 400
    try:
        window = float(dict(args.params).get("seconds", 0.0))
    except ValueError:
        window = 0.0
    if dict(args.params).get("format", "json") != "json":
        # an export (prof's folded stacks or speedscope file): written
        # as the server sent it, to --out or else to stdout
        body = _fetch(url, args.timeout + window)
        if not args.out:
            sys.stdout.write(body.decode("utf-8"))
            return 0
        with open(args.out, "wb") as handle:
            handle.write(body)
        print(f"{args.endpoint} export saved to {args.out}")
        return 0
    payload = _fetch_json(url, args.timeout + window)
    status = render(payload)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        print(f"\n{args.endpoint} payload saved to {args.out}")
    return status


def cmd_diff(args) -> int:
    """Attribute a regression between two recorded profile payloads."""
    from .obs.prof import (diff_plan_ops, diff_profiles, format_diff,
                           load_profile_payload)

    base, base_ops = load_profile_payload(args.baseline)
    latest, latest_ops = load_profile_payload(args.latest)
    print(f"baseline: {args.baseline} ({base.samples} samples)")
    print(f"latest:   {args.latest} ({latest.samples} samples)")
    print()
    print(format_diff(diff_profiles(base, latest, limit=args.top),
                      title="self-time share by frame"))
    if base_ops or latest_ops:
        print()
        print(format_diff(diff_plan_ops(base_ops, latest_ops,
                                        limit=args.top),
                          title="plan-op share of plan wall time"))
    return 0


def cmd_trace(args) -> int:
    from . import obs
    from .queries import QuerySampler, get_structure
    from .serve import ServeConfig

    weights, _ = _model_paths(pathlib.Path(args.model_dir), args.dataset,
                              args.method)
    if not weights.exists() and args.train_if_missing:
        print(f"no trained model at {weights}; training a quick one "
              f"({args.train_epochs} epochs)")
        _train_and_save(args, epochs=args.train_epochs,
                        queries=args.train_queries)
    splits, model = _load_trained(args)
    tracer = obs.get_tracer()
    tracer.reset()
    obs.enable()
    try:
        if args.sparql:
            engine = SparqlEngine(splits.train, model=model)
            result = engine.answer(args.sparql, top_k=args.top_k)
            ids = result.entity_ids
        else:
            sampler = QuerySampler(splits.train, splits.test,
                                   seed=args.seed)
            query = sampler.sample(get_structure(args.structure)).query
            config = ServeConfig(num_workers=args.workers,
                                 num_shards=getattr(args, "shards", 0))
            with _serve_runtime(model, kg=splits.train,
                                config=config) as runtime:
                ids = runtime.answer(query, top_k=args.top_k).entity_ids
    finally:
        obs.disable()
    spans = tracer.finished()
    print(f"answers: {ids}")
    print()
    print(obs.format_span_tree(spans))
    stages = tracer.stage_stats()
    print()
    print(f"{'stage':<24} {'count':>6} {'mean ms':>9} {'total ms':>9}")
    for name, stage in stages.items():
        print(f"{name:<24} {stage.count:>6d} {stage.mean_ms:>9.3f} "
              f"{stage.total_ms:>9.3f}")
    if args.out:
        count = obs.write_chrome_trace(args.out, spans)
        print(f"\nwrote {count} trace events to {args.out} "
              f"(open in chrome://tracing or https://ui.perfetto.dev)")
    return 0


def _positive_int(text: str) -> int:
    """argparse type of a count the runtime needs at least one of."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="HaLk reproduction command line")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--dataset", choices=sorted(DATASET_BUILDERS),
                       default="FB237")
        p.add_argument("--method", choices=sorted(METHODS), default="HaLk")
        p.add_argument("--dim", type=int, default=24)
        p.add_argument("--scale", type=float, default=0.5)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--model-dir", default="models")

    def shards(p):
        p.add_argument("--shards", type=int, default=0, metavar="N",
                       help="sharded multi-process execution over N "
                            "repro.dist workers (0/1 = single-process; "
                            "where shared memory or the model does not "
                            "support it, one line says so and the run "
                            "stays in-process)")

    p = sub.add_parser("datasets", help="list benchmark datasets")
    p.add_argument("--scale", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_datasets)

    p = sub.add_parser("train", help="train a model")
    common(p)
    p.add_argument("--epochs", type=int, default=150)
    p.add_argument("--queries", type=int, default=100,
                   help="training queries per structure")
    p.add_argument("--lr", type=float, default=2e-3)
    p.add_argument("--embedding-lr", type=float, default=2e-2)
    p.add_argument("--telemetry", metavar="OUT.JSONL",
                   help="stream per-epoch telemetry (loss, grad norms, "
                        "per-operator time, samples/sec) to a JSON-Lines "
                        "file")
    p.add_argument("--checkpoint-every", type=int, default=0, metavar="N",
                   help="write a crash-safe resumable checkpoint every N "
                        "epochs (0 = off)")
    p.add_argument("--checkpoint-dir", default=None,
                   help="checkpoint directory (default: "
                        "<model-dir>/ckpt/<dataset>_<method>)")
    p.add_argument("--keep-last", type=int, default=3,
                   help="retention: newest checkpoints to keep (the "
                        "best-loss one is always kept)")
    p.add_argument("--resume", action="store_true",
                   help="resume from the latest checkpoint in the "
                        "checkpoint directory; continues the exact loss "
                        "trajectory of the uninterrupted run")
    shards(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="evaluate a trained model")
    common(p)
    p.add_argument("--queries", type=int, default=30,
                   help="evaluation queries per structure")
    shards(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("answer", help="answer a SPARQL query")
    common(p)
    p.add_argument("--sparql", required=True)
    p.add_argument("--top-k", type=_positive_int, default=10)
    p.set_defaults(func=cmd_answer)

    p = sub.add_parser("explain",
                       help="print the compiled query plan (CSE/fusion "
                            "annotations + structure-cache keys)")
    common(p)
    p.add_argument("sparql", nargs="*",
                   help="SPARQL queries to compile together (default: "
                        "sample --structure queries instead)")
    p.add_argument("--structure", action="append", metavar="NAME",
                   help="query structure to sample (repeatable; default "
                        "2i 2i 3p — repeated structures demonstrate the "
                        "plan cache and cross-query CSE)")
    p.add_argument("--count", type=int, default=1,
                   help="queries to sample per --structure")
    p.add_argument("--json", action="store_true",
                   help="machine-readable plan dump")
    p.add_argument("--no-dnf", action="store_true",
                   help="keep union ops instead of DNF-rewriting them "
                        "(shows the symbolic form, not the serving plan)")
    p.add_argument("--names", action="store_true",
                   help="resolve entity/relation ids against the "
                        "dataset vocabulary")
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("serve",
                       help="drive the batched serving runtime")
    common(p)
    p.add_argument("--queries", type=int, default=120,
                   help="demo workload size (ignored with --sparql)")
    p.add_argument("--sparql", action="append",
                   help="serve this SPARQL query (repeatable) instead of "
                        "the sampled demo workload")
    p.add_argument("--top-k", type=_positive_int, default=10)
    p.add_argument("--repeat", type=_positive_int, default=3,
                   help="passes over the workload; later passes exercise "
                        "the answer cache")
    p.add_argument("--batch-size", type=_positive_int, default=64)
    p.add_argument("--workers", type=_positive_int, default=1,
                   help="batches in execution at once (more than one "
                        "pays only with --shards)")
    p.add_argument("--answer-ttl", type=float, default=300.0)
    p.add_argument("--deadline", type=float, default=None,
                   help="per-request deadline in seconds (an overrun "
                        "gets the exact symbolic answer over the loaded "
                        "graph, or an error when none is loaded)")
    p.add_argument("--stats", action="store_true",
                   help="print cache hit-rate and latency-percentile "
                        "stats after serving")
    p.add_argument("--watch", action="store_true",
                   help="hot-reload the model when the weights file "
                        "changes on disk (e.g. after a retrain)")
    p.add_argument("--watch-interval", type=float, default=1.0,
                   help="mtime poll interval for --watch, in seconds")
    p.add_argument("--train-if-missing", action="store_true",
                   help="train a quick model first when none is saved")
    p.add_argument("--train-epochs", type=int, default=30)
    p.add_argument("--train-queries", type=int, default=50)
    p.add_argument("--http-port", type=int, default=None, metavar="PORT",
                   help="expose /metrics (Prometheus text format), "
                        "/healthz, and /statusz on this port (0 = pick "
                        "an ephemeral port)")
    p.add_argument("--http-host", default="127.0.0.1")
    p.add_argument("--gateway", action="store_true",
                   help="front the runtime with the admission gateway "
                        "(rate limits, fair scheduling, deadline "
                        "shedding; enables POST /v1/query on the HTTP "
                        "port)")
    p.add_argument("--tenant", action="append", metavar="SPEC",
                   help="tenant spec name[:rate[:burst[:weight"
                        "[:max_queue]]]] (repeatable; implies "
                        "--gateway; unknown tenants are then rejected)")
    p.add_argument("--tenant-file", type=pathlib.Path, default=None,
                   help="JSON file with a list of tenant configs "
                        "(implies --gateway)")
    p.add_argument("--hold", action="store_true",
                   help="after the demo workload, keep the runtime (and "
                        "its HTTP endpoints) alive until Ctrl-C")
    shards(p)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("genkg",
                       help="stream a synthetic xl-scale KG to disk "
                            "(never materialises the triple set in RAM)")
    p.add_argument("out", metavar="DIR",
                   help="output directory (entities/relations vocab + "
                        "train/valid/test TSVs + meta.json)")
    p.add_argument("--entities", type=int, default=100_000,
                   help="entity count (default 100000)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--chunk", type=int, default=None,
                   help="entity rows per generation chunk (tails are "
                        "found by exact search up to 20k entities, "
                        "binned above)")
    p.set_defaults(func=cmd_genkg)

    p = sub.add_parser("get",
                       help="fetch one endpoint of a running `serve "
                            "--http-port` process and print it as a "
                            "table (get slo exits 1 while an alert "
                            "fires)")
    p.add_argument("endpoint", choices=list(ENDPOINTS),
                   help="; ".join(f"{name}: {path}" for name, (path, _)
                                  in ENDPOINTS.items()))
    p.add_argument("target", metavar="HOST:PORT",
                   help="address of the telemetry endpoint, e.g. "
                        "127.0.0.1:9105")
    p.add_argument("params", nargs="*", type=_query_word,
                   metavar="NAME=VALUE",
                   help="query parameters passed to the server as they "
                        "are, e.g. n=20 min_ms=50 tenant=a "
                        "request_id=... (flight) or seconds=30 "
                        "role=shard0 (prof)")
    p.add_argument("--timeout", type=float, default=5.0,
                   help="seconds to wait for the reply (a prof seconds= "
                        "window adds its length)")
    p.add_argument("--out", default=None,
                   help="also save the raw JSON payload here (a saved "
                        "prof payload is what `diff` reads); with "
                        "format=folded or format=speedscope (prof) the "
                        "export is written here unrendered, else to "
                        "stdout")
    p.set_defaults(func=cmd_get)

    p = sub.add_parser("diff",
                       help="attribute a regression: print the frames and "
                            "plan ops whose self-time share moved most "
                            "between two recorded profiles")
    p.add_argument("baseline", metavar="BASELINE",
                   help="a saved `get prof --out` payload")
    p.add_argument("latest", metavar="LATEST")
    p.add_argument("--top", type=int, default=15,
                   help="rows in each table (default 15)")
    p.set_defaults(func=cmd_diff)

    p = sub.add_parser("trace",
                       help="trace one query through the stack and export "
                            "a Chrome trace-event file")
    common(p)
    p.add_argument("--structure", default="3p",
                   help="query structure to sample when no --sparql is "
                        "given (default: 3p, a 3-hop chain)")
    p.add_argument("--sparql",
                   help="trace this SPARQL query through the engine "
                        "instead of the serving runtime")
    p.add_argument("--top-k", type=_positive_int, default=10)
    p.add_argument("--workers", type=_positive_int, default=1)
    p.add_argument("--out", default="trace.json",
                   help="Chrome trace-event output path ('' to skip)")
    p.add_argument("--train-if-missing", action="store_true",
                   help="train a quick model first when none is saved")
    p.add_argument("--train-epochs", type=int, default=30)
    p.add_argument("--train-queries", type=int, default=50)
    shards(p)
    p.set_defaults(func=cmd_trace)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
