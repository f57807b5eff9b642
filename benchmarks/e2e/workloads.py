"""The five workloads of the end-to-end benchmark.

Each workload builds its inputs from the seed, brings the system up the
way a user would (set-up, timed several times), computes its reference
answers in-process on the same commit, then runs

* an **untraced timed phase**, which yields every end-to-end metric, and
* optionally a **traced pass**, sequential and on the same inputs, in
  which this file puts spans around calls into each layer's public
  functions and derives the per-layer metrics from them.

README.md has the table of which layer should move which metric where.
"""

from __future__ import annotations

import http.client
import itertools
import pathlib
import time
from contextlib import ExitStack, contextmanager

import numpy as np

from repro import ckpt
from repro.config import ModelConfig, TrainConfig
from repro.core import HalkModel, Trainer, evaluate
from repro.core import trainer as trainer_module
from repro.core.topk import topk_rows
from repro.dist import ShardedRanker, merge_topk
from repro.gateway import Gateway, GatewayConfig
from repro.kg import KnowledgeGraph, load_dataset
from repro.nn import no_grad
from repro.nn.optim import Adam
from repro.nn.tensor import Tensor
from repro.obs.metrics import parse_metric_key
from repro.plan import PlanCompiler, execute_plan
from repro.queries import (EVAL_ONLY_STRUCTURES, TRAIN_STRUCTURES,
                           QuerySampler, SamplerConfig, build_workloads,
                           get_structure, rename)
from repro.serve import ServeConfig, ServeRuntime
from repro.serve.canonical import canonicalize, serialize
from repro.sparql import SparqlEngine

from harness import (CLIENT_TIMEOUT_S, CONNECTIONS, MAX_CONSECUTIVE_TIMEOUTS,
                     N_WINDOWS, Calibration, HttpLoad, SpanLog, leaks, median,
                     percentile, rss_mb, run_windows, shm_segments)
from sparql_text import check_round_trip, render_sparql

HERE = pathlib.Path(__file__).resolve().parent
FIXTURE = HERE / "fixtures" / "fb237_mini_halk.npz"
OUT_DIR = HERE / "out"

#: the 16 structures of the paper's Tables I and III
STRUCTURES = TRAIN_STRUCTURES + EVAL_ONLY_STRUCTURES
TOP_K = 10
#: set-ups per run; ``setup_s`` is their median
SETUP_REPEATS = 3
#: requests a traced round makes between time checks; also how far
#: apart two traced calls for the same query are (>= 2 keeps them from
#: meeting in a one-entry cache)
TRACED_CHUNK = 4
#: in-process passes or epochs a traced pass always makes
MIN_TRACED = 3
#: result caches as good as off: a one-entry answer cache that expires
#: at once and a one-entry embedding LRU (capacities must be positive)
CACHES_OFF = dict(answer_cache_size=1, answer_ttl=1e-9,
                  embedding_cache_size=1)
#: the quick-profile HaLk of benchmarks/common.py, which the fixture holds
MINI_MODEL = ModelConfig(embedding_dim=20, hidden_dim=40, seed=0)
MINI_TRAIN = dict(batch_size=128, num_negatives=16, learning_rate=2e-3,
                  embedding_learning_rate=2e-2)
#: train_mini trains a fixed number of epochs so its loss and MRR are a
#: function of the seed alone; 3 per requested second is about what this
#: sandbox trains when it is slow (100 epochs = 20-33 s)
EPOCHS_PER_SECOND = 3


class BenchmarkFailure(RuntimeError):
    """The run itself is invalid (leak, hang, broken set-up)."""


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
def load_fixture(model, splits, retrained_state=None):
    """Put the trained quick-profile weights into ``model``.

    Returns ``(source, state)``: ``source`` is ``fixture`` or, when the
    shipped checkpoint fails ``ckpt.load_checkpoint``, ``retrained`` with
    the state dict to reuse on the next set-up.
    """
    if retrained_state is not None:
        model.load_state_dict(retrained_state)
        return "retrained", retrained_state
    try:
        state = ckpt.load_checkpoint(FIXTURE).state["model"]
        model.load_state_dict(state)
        return "fixture", None
    except (ckpt.CheckpointError, KeyError, ValueError):
        train_fixture(model, splits)
        return "retrained", model.state_dict()


def train_fixture(model, splits):
    """The quick-profile training run that produced the fixture."""
    bundle = build_workloads(splits, queries_per_structure=80,
                             eval_queries_per_structure=15, seed=0)
    return Trainer(model, bundle.train,
                   TrainConfig(epochs=150, seed=0, **MINI_TRAIN)).train()


def write_fixture() -> None:
    """Regenerate ``fixtures/fb237_mini_halk.npz`` (about 40 s)."""
    splits = load_dataset("FB237", scale=0.4, seed=0)
    model = HalkModel(splits.train, MINI_MODEL)
    history = train_fixture(model, splits)
    ckpt.save_checkpoint(FIXTURE, {"model": model.state_dict()},
                         meta={"dataset": "FB237", "scale": 0.4,
                               "profile": "quick",
                               "final_loss": history.final_loss})


def sample_distinct(splits, seed: int, size: int = 0,
                    per_structure: int = 0):
    """Distinct grounded test queries with hard answers.

    ``size`` draws that many with the structure chosen uniformly per
    draw; ``per_structure`` draws that many of each structure instead.
    The 88-entity graph has only so many distinct ``1p`` queries: a
    uniform draw that finds a structure exhausted draws another one.
    """
    sampler = QuerySampler(splits.valid, splits.test, seed=seed,
                           config=SamplerConfig(require_hard_answer=True))
    rng = np.random.default_rng(seed)
    seen, pool = set(), []

    def draw(name) -> bool:
        for _attempt in range(100):
            try:
                grounded = sampler.sample(get_structure(name))
            except RuntimeError:  # ungroundable draw; the next one differs
                continue
            if grounded.query not in seen:
                seen.add(grounded.query)
                pool.append(grounded)
                return True
        return False

    if per_structure:
        for name in STRUCTURES:
            for _ in range(per_structure):
                if not draw(name):
                    raise BenchmarkFailure(
                        f"cannot draw {per_structure} distinct {name}")
        return pool
    open_names = list(STRUCTURES)
    while len(pool) < size:
        if not open_names:
            raise BenchmarkFailure(f"cannot draw {size} distinct queries")
        name = open_names[int(rng.integers(len(open_names)))]
        if not draw(name):
            open_names.remove(name)
    return pool


def reciprocal_rank_at_k(grounded, ids) -> float:
    """Filtered reciprocal rank of the best hard answer within ``ids``."""
    rank = 0
    for entity in ids:
        if entity in grounded.hard_answers:
            return 1.0 / (rank + 1)
        if entity not in grounded.easy_answers:
            rank += 1
    return 0.0


def counter_sum(counters: dict, base: str, **labels) -> int:
    """Sum of the ``base`` counter over label sets matching ``labels``."""
    total = 0
    for key, value in counters.items():
        name, found = parse_metric_key(key)
        if name == base and all(found.get(k) == v
                                for k, v in labels.items()):
            total += value
    return total


@contextmanager
def wrapped(log: SpanLog, owner, attribute: str, span_name: str,
            numbered: bool = False):
    """Record a span around every call of ``owner.attribute``.

    The traced pass's way of timing a public function that the program
    calls from inside another one (``loss.backward()`` inside
    ``Trainer.step``) without touching ``src/``: the benchmark swaps the
    attribute for the duration of the pass and restores it after.
    ``numbered`` spans open a new request index each call.
    """
    original = getattr(owner, attribute)
    counter = itertools.count()

    def wrapper(*args, **kwargs):
        request = next(counter) if numbered else None
        with log.span(span_name, request):
            return original(*args, **kwargs)

    setattr(owner, attribute, wrapper)
    try:
        yield
    finally:
        setattr(owner, attribute, original)


# ----------------------------------------------------------------------
# base
# ----------------------------------------------------------------------
class Workload:
    """One named workload: set-up, references, timed phase, traced pass."""

    name = ""

    def __init__(self, seed: int, seconds: float, quick: bool = False):
        self.seed = seed
        self.seconds = seconds
        self.quick = quick
        self.log = SpanLog()
        self.calibration = Calibration()
        #: name -> (value, unit); filled by the phases
        self.metrics: dict[str, tuple[float, str]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.model_source = "fresh"
        self._retrained_state = None

    # hooks ------------------------------------------------------------
    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        pass

    def references(self) -> None:
        pass

    def timed(self, seconds: float) -> None:
        raise NotImplementedError

    def traced(self, budget_s: float) -> None:
        raise NotImplementedError

    # driver -----------------------------------------------------------
    def emit(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def run(self, end_to_end: bool, traced: bool) -> None:
        """Set up, measure, tear down, and check nothing was left behind.

        A run that only wants the per-layer metrics still makes a short
        timed phase: the count metrics are ``stats()`` deltas over it.
        """
        shm_before = shm_segments()

        def one_setup(attempt):
            if attempt:
                self.teardown()
            started = time.perf_counter()
            with self.log.span("bench.setup", attempt):
                self.setup()
            elapsed = time.perf_counter() - started
            return [1000.0 * elapsed], 0, 0, elapsed

        try:
            # bracketed by calibration bursts like the windows of a timed
            # phase, so set-up time is on the reference clock too
            setups = run_windows(self.calibration, one_setup,
                                 count=1 if self.quick else SETUP_REPEATS)
            with self.log.span("bench.reference", 0):
                self.references()
            self.timed(self.seconds if end_to_end else self.seconds / 3.0)
            self.emit("rss_mb", rss_mb(), "MB")
            if traced:
                self.traced(2.0 * self.seconds / 3.0)
        finally:
            self.teardown()
        self.emit("setup_s", median(setups.latencies_ms) / 1000.0, "s")
        self.emit("kg.load_s", self.log.p50("kg.load") / 1000.0, "s")
        self.emit("queries.build_s",
                  self.log.p50("queries.build") / 1000.0, "s")
        self.emit("bench.reference_s",
                  self.log.p50("bench.reference") / 1000.0, "s")
        self.problems += leaks(shm_before)
        if traced:
            self.log.write_chrome(OUT_DIR / f"trace-{self.name}.json",
                                  f"bench_e2e {self.name}")

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


# ----------------------------------------------------------------------
# serving workloads
# ----------------------------------------------------------------------
class _Serving(Workload):
    """What the four serving workloads share.

    Subclasses provide ``build_inputs`` (graph, model, query pool),
    ``serve_config`` and, for the HTTP ones, ``stream`` and ``warm_up``.
    """

    http = True

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.runtime = None
        self.gateway = None
        self.pool = []        # GroundedQuery or plain Node per entry
        self.nodes = []       # what the reference and the server answer
        self.texts = []       # SPARQL per entry (HTTP workloads)
        self.refs = []

    def serve_config(self) -> dict:
        raise NotImplementedError

    def build_inputs(self) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        pass

    def quality(self, index: int, ids) -> float:
        """Reciprocal rank at 10 of pool entry ``index`` given ``ids``."""
        return reciprocal_rank_at_k(self.pool[index], ids)

    # ------------------------------------------------------------------
    def load_mini(self) -> None:
        """fb237_mini and the trained quick-profile HaLk."""
        with self.log.span("kg.load"):
            self.splits = load_dataset("FB237", scale=0.4, seed=0)
        self.kg = self.splits.train
        self.model = HalkModel(self.kg, MINI_MODEL)
        self.model_source, self._retrained_state = load_fixture(
            self.model, self.splits, self._retrained_state)
        self.engine = SparqlEngine(self.kg)

    def render_pool(self, query_of=lambda entry: entry.query) -> None:
        """SPARQL for every pool entry, compiled back and checked."""
        self.texts, self.nodes = [], []
        for entry in self.pool:
            node = query_of(entry)
            text = render_sparql(node, self.kg.entity_names,
                                 self.kg.relation_names)
            compiled = self.engine.compile(text)
            check_round_trip(node, compiled, self.kg)
            self.texts.append(text)
            self.nodes.append(compiled)

    def setup(self) -> None:
        self.build_inputs()
        config = dict(self.serve_config())
        if self.http:
            config["http_port"] = 0
        self.runtime = ServeRuntime(self.model, kg=self.kg,
                                    config=ServeConfig(**config))
        if self.http:
            # exactly what `cli serve --gateway --http-port` wires up
            self.gateway = Gateway(self.runtime, GatewayConfig(),
                                   compile_fn=self.engine.compile)
            self.port = self.runtime.http_server.port
        self.warm_up()

    def teardown(self) -> None:
        if self.gateway is not None:
            self.gateway.close()
            self.gateway = None
        if self.runtime is not None:
            self.runtime.close()
            self.runtime = None

    def references(self) -> None:
        self.refs = [self.model.answer(node, TOP_K) for node in self.nodes]

    # ------------------------------------------------------------------
    def counters(self) -> dict:
        return dict(self.runtime.stats().counters)

    def emit_counts(self, before: dict, after: dict) -> None:
        """The *count* per-layer metrics: ``stats()`` deltas of a phase."""
        def delta(base, **labels):
            return counter_sum(after, base, **labels) \
                - counter_sum(before, base, **labels)

        hits = delta("answer_cache_hits")
        misses = delta("answer_cache_misses")
        batches = delta("batches")
        self.emit("serve.cache.hit_ratio",
                  hits / (hits + misses) if hits + misses else 0.0, "ratio")
        self.emit("serve.batcher.batch_size_mean",
                  misses / batches if batches else 0.0, "count")
        self.emit("serve.retries", delta("retries"), "count")
        self.emit("serve.fallbacks",
                  delta("fallback_exact") + delta("fallback_lsh"), "count")
        self.emit("serve.errors", delta("errors"), "count")
        self.emit("gateway.shed", delta("shed"), "count")
        self.emit("dist.hedges", delta("hedges", outcome="launched"),
                  "count")
        self.emit("dist.worker_respawns", delta("worker_respawns"),
                  "count")

    def emit_phase(self, totals, served: dict) -> None:
        """The end-to-end metrics of a finished timed phase."""
        if not totals.latencies_ms:
            raise BenchmarkFailure(f"{self.name}: no request succeeded")
        print(f"# {self.name} timed phase: sent {totals.sent} succeeded "
              f"{totals.correct} failed {totals.sent - totals.correct} in "
              f"{totals.wall_s:.2f}s, {len(totals.latencies_ms)} latency "
              f"samples, machine slowdown {totals.slowdown:.3f}")
        self.attempted = totals.sent
        self.failed = totals.sent - totals.correct
        self.emit("latency_p50_ms", median(totals.latencies_ms), "ms")
        self.emit("latency_p95_ms",
                  percentile(totals.latencies_ms, 95.0), "ms")
        self.emit("throughput_qps", totals.correct / totals.reference_s,
                  "1/s")
        self.emit("failed_ratio", self.failed / totals.sent, "ratio")
        self.emit("bench.slowdown", totals.slowdown, "ratio")
        # over the whole pool, so the value does not depend on how far
        # the phase got: an entry the phase never reached scores by the
        # reference its reply would have been checked against
        self.emit("mrr_at_10", float(np.mean(
            [self.quality(index, served.get(index, self.refs[index]))
             for index in range(len(self.pool))])), "ratio")


class _HttpServing(_Serving):
    """Closed loop through ``POST /v1/query``."""

    def stream(self, position: int) -> int:
        return position % len(self.pool)

    def timed(self, seconds: float) -> None:
        load = HttpLoad(self.port, self.texts, self.refs, TOP_K)
        served: dict = {}
        base = 0

        def window(_index):
            nonlocal base
            first = base
            result = load.run(lambda position: self.stream(first + position),
                              seconds=seconds / N_WINDOWS)
            # the next window goes on where the furthest client stopped
            base += -(-result.next_position // CONNECTIONS) * CONNECTIONS
            served.update(result.served)
            if result.aborted:
                self.problems.append(f"{MAX_CONSECUTIVE_TIMEOUTS} "
                                     f"consecutive client timeouts")
                self.attempted += result.sent
                self.failed += result.failed
                return None
            return (result.latencies_ms, result.succeeded, result.sent,
                    result.elapsed_s)

        before = self.counters()
        totals = run_windows(self.calibration, window)
        self.emit_counts(before, self.counters())
        self.emit_phase(totals, served)
        self.emit("serve.http.p99_ms",
                  percentile(totals.latencies_ms, 99.0), "ms")

    # ------------------------------------------------------------------
    def traced_requests(self) -> list[int]:
        """Pool indexes of the traced pass, no two neighbours equal (the
        one-entry embedding LRU would serve the second from cache)."""
        indexes = []
        for position in range(4 * 400):
            index = self.stream(position)
            if not indexes or indexes[-1] != index:
                indexes.append(index)
            if len(indexes) == 400:
                break
        return indexes

    def run_rounds(self, rounds, requests, budget_s: float) -> None:
        """Chunk by chunk of ``TRACED_CHUNK`` requests, every round makes
        its one kind of call for each request of the chunk, until the
        budget is spent.

        So all rounds see the same requests and residuals pair up, while
        two calls for the same query are never neighbours (the one-entry
        embedding LRU would serve the second one from cache).
        """
        deadline = time.perf_counter() + budget_s
        numbered = list(enumerate(requests))
        for start in range(0, len(numbered), TRACED_CHUNK):
            if start and time.perf_counter() >= deadline:
                break
            for call in rounds:
                for request, index in numbered[start:start + TRACED_CHUNK]:
                    call(request, index)

    def traced(self, budget_s: float) -> None:
        log, model = self.log, self.model
        load = HttpLoad(self.port, self.texts, self.refs, TOP_K)
        conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=CLIENT_TIMEOUT_S)
        sharded = self.serve_config().get("num_shards", 0) >= 2
        failures = []

        def embed(index):
            with no_grad():
                return model.embed_batch([self.nodes[index]])

        def post(request, index):
            with log.span("serve.http.post", request):
                status, body, _ms = load.post(conn, index)
            with log.span("bench.client", request):
                ids = load.check(index, status, body)
            if ids is None:
                failures.append(index)

        def handle_http(request, index):
            payload = {"sparql": self.texts[index], "top_k": TOP_K}
            with log.span("gateway.handle_http", request):
                status, _headers, body = self.gateway.handle_http(payload)
            if status != 200 or body["entity_ids"] != self.refs[index]:
                failures.append(index)

        def compile_(request, index):
            with log.span("sparql.compile", request):
                self.engine.compile(self.texts[index])

        def canonical(request, index):
            with log.span("serve.canonical", request):
                serialize(canonicalize(self.nodes[index]))

        def answer(request, index):
            with log.span("serve.runtime.answer", request):
                result = self.runtime.answer(self.nodes[index], TOP_K,
                                             timeout=CLIENT_TIMEOUT_S)
            if result.entity_ids != self.refs[index]:
                failures.append(index)

        def embed_(request, index):
            with log.span("core.embed", request):
                embed(index)

        def distance(request, index):
            embedding = embed(index)
            with no_grad(), log.span("core.distance", request):
                model.distance_to_all(embedding)

        def topk(request, index):
            with no_grad():
                distances = model.distance_to_all(embed(index)).data
            with log.span("core.topk", request):
                topk_rows(distances, TOP_K)

        rounds = [post, handle_http, compile_, canonical, answer, embed_,
                  distance, topk]
        with ExitStack() as stack:
            stack.callback(conn.close)
            rounds += self.extra_rounds(stack, embed, failures)
            self.run_rounds(rounds, self.traced_requests(), budget_s)
        self.emit_extra()
        if failures:
            self.problems.append(f"traced pass: {len(failures)} wrong "
                                 f"answers, first at pool entry "
                                 f"{failures[0]}")

        self.emit("sparql.compile_ms", log.p50("sparql.compile"), "ms")
        self.emit("serve.canonical_ms", log.p50("serve.canonical"), "ms")
        self.emit("core.embed_ms", log.p50("core.embed"), "ms")
        self.emit("core.distance_ms", log.p50("core.distance"), "ms")
        self.emit("core.topk_ms", log.p50("core.topk"), "ms")
        self.emit("serve.http.self_ms", log.residual_p50(
            "serve.http.post", "gateway.handle_http"), "ms")
        self.emit("gateway.self_ms", log.residual_p50(
            "gateway.handle_http", "sparql.compile",
            "serve.runtime.answer"), "ms")
        rank = ("dist.rank",) if sharded else ("core.distance", "core.topk")
        self.emit("serve.runtime.self_ms", log.residual_p50(
            self.cold_answer_span, "core.embed", *rank), "ms")
        self.emit("bench.client_overhead_us",
                  1000.0 * log.p50("bench.client"), "us")
        self.emit("bench.traced_post_ms", log.p50("serve.http.post"), "ms")

    #: the span that times ``ServeRuntime.answer`` on a cache miss
    cold_answer_span = "serve.runtime.answer"

    def extra_rounds(self, stack, embed, failures) -> list:
        """Workload-specific traced rounds; what they open goes on
        ``stack`` and is closed when the pass ends."""
        return []

    def emit_extra(self) -> None:
        """The per-layer metrics of :meth:`extra_rounds`."""


class MiniMixed(_HttpServing):
    name = "mini_mixed"
    #: 2048 rather than fewer so that `mrr_at_10`, a mean over the pool,
    #: differs by under a tenth between seeds
    pool_size = 2048

    def serve_config(self):
        return CACHES_OFF

    def build_inputs(self):
        self.load_mini()
        with self.log.span("queries.build"):
            self.pool = sample_distinct(self.splits, self.seed,
                                        size=self.pool_size)
            self.render_pool()

    def warm_up(self):
        HttpLoad(self.port, self.texts).run(self.stream, count=200)


class MiniRepeat(_HttpServing):
    name = "mini_repeat"
    pool_size = 2048
    zipf_exponent = 1.1
    cold_answer_span = "serve.runtime.answer_cold"

    def serve_config(self):
        return {}

    def build_inputs(self):
        self.load_mini()
        with self.log.span("queries.build"):
            self.pool = sample_distinct(self.splits, self.seed,
                                        size=self.pool_size)
            self.render_pool()
            weights = 1.0 / np.arange(1, self.pool_size + 1) \
                ** self.zipf_exponent
            self.draws = np.random.default_rng(self.seed).choice(
                self.pool_size, size=1 << 17, p=weights / weights.sum())

    def stream(self, position):
        return int(self.draws[position % len(self.draws)])

    def warm_up(self):
        # fills the head of the Zipf distribution; the tail stays cold,
        # so the timed phase has misses that write beside hits that read
        HttpLoad(self.port, self.texts).run(
            self.stream, count=100 if self.quick else 500)

    def extra_rounds(self, stack, embed, failures):
        """Hits on the main runtime, the same with observability off,
        and misses on a runtime whose caches are off."""
        log = self.log
        quiet = stack.enter_context(ServeRuntime(
            self.model, kg=self.kg,
            config=ServeConfig(diagnostics=False, profiling=False)))
        cold = stack.enter_context(ServeRuntime(
            self.model, kg=self.kg, config=ServeConfig(**CACHES_OFF)))

        def resident(runtime, span):
            def call(request, index):
                node = self.nodes[index]
                runtime.answer(node, TOP_K, timeout=CLIENT_TIMEOUT_S)
                with log.span(span, request):
                    result = runtime.answer(node, TOP_K,
                                            timeout=CLIENT_TIMEOUT_S)
                if result.source != "answer_cache":
                    failures.append(index)
            return call

        def answer_cold(request, index):
            with log.span("serve.runtime.answer_cold", request):
                cold.answer(self.nodes[index], TOP_K,
                            timeout=CLIENT_TIMEOUT_S)

        return [resident(self.runtime, "serve.cache.hit"),
                resident(quiet, "obs.off.hit"), answer_cold]

    def emit_extra(self):
        log = self.log
        self.emit("serve.cache.hit_ms", log.p50("serve.cache.hit"), "ms")
        self.emit("obs.overhead_ms", log.residual_p50(
            "serve.cache.hit", "obs.off.hit"), "ms")


class Xl100kSharded(_HttpServing):
    name = "xl100k_sharded"
    num_entities = 100_000
    num_relations = 8
    #: one query per structure; the in-process reference costs 0.3 s a
    #: query at this size, which is what bounds the pool
    per_structure = 1

    def serve_config(self):
        # num_workers=1: ShardWorkerPool.dispatch/gather is not safe for
        # two callers (README, "Known defect"); lazy slabs switch on by
        # themselves at this entity count
        return dict(CACHES_OFF, num_shards=2, num_workers=1)

    def build_inputs(self):
        """The `bench_scaling._scaled_model` recipe: an untrained HaLk
        over a random graph; graph and model are seed 0 whatever the
        run's seed, the queries are drawn from the run's seed."""
        with self.log.span("kg.load"):
            rng = np.random.default_rng(0)
            n = self.num_entities
            triples = [(int(rng.integers(n)),
                        int(rng.integers(self.num_relations)),
                        int(rng.integers(n))) for _ in range(4096)]
            self.kg = KnowledgeGraph(n, self.num_relations, triples)
        self.model = HalkModel(self.kg, ModelConfig(embedding_dim=32,
                                                    seed=0))
        self.engine = SparqlEngine(self.kg)
        with self.log.span("queries.build"):
            rng = np.random.default_rng(self.seed)
            self.pool = []
            for name in STRUCTURES:
                structure = get_structure(name)
                for _ in range(self.per_structure):
                    entities = rng.integers(n, size=structure.num_anchors)
                    relations = rng.integers(self.num_relations,
                                             size=structure.num_relations)
                    self.pool.append(rename(
                        structure.template,
                        lambda slot: int(entities[slot]),
                        lambda slot: int(relations[slot])))
            self.render_pool(query_of=lambda node: node)

    def stream(self, position):
        """Neighbours in ``STRUCTURES`` are sent three requests apart.

        One shard pool serves the two clients in turn, so a reply's
        latency is its own service time plus its predecessor's.  ``2u``
        and ``up`` (two DNF branches, twice the ranking) are neighbours
        in the pool: sent back to back they make a third latency mode
        that holds 1/16 of the requests, and p95 then flips between that
        mode and the one below it from run to run (205 or 255 ms).
        """
        return (position * 5) % len(self.pool)

    def warm_up(self):
        if self.runtime.health()[1]["shards"] != 2:
            raise BenchmarkFailure("sharded ranking is unavailable here "
                                   "(no shared memory?)")
        HttpLoad(self.port, self.texts).run(self.stream, count=4)

    def quality(self, index, ids):
        """No ground truth exists for an untrained model over a random
        graph: score the in-process reference's best answer instead, so
        the value is 1 unless sharded ranking diverges from it."""
        best = self.refs[index][0]
        return 1.0 / (ids.index(best) + 1) if best in ids else 0.0

    def extra_rounds(self, stack, embed, failures):
        log, model = self.log, self.model
        with log.span("dist.start", 0):
            ranker = stack.enter_context(
                ShardedRanker.for_model(model, 2))
        self.emit("dist.slab_mb", ranker.plan.memory_inventory()
                  ["total_bytes"] / 2 ** 20, "MB")
        points, scorer = model.sharding_spec()
        blocks = [points[r.start:r.stop] for r in ranker.plan.ranges]

        def shard_topk(block, payload, offset):
            distances = scorer.score(block, payload)
            local = topk_rows(distances, TOP_K)
            return (local + offset,
                    np.take_along_axis(distances, local, axis=-1))

        def rank(request, index):
            embedding = embed(index)
            with log.span("dist.rank", request):
                ids, _vals = ranker.topk(embedding, TOP_K)
            if [int(e) for e in ids[0]] != self.refs[index]:
                failures.append(index)

        def kernel_and_merge(request, index):
            payload = model.ranking_payload(embed(index))
            with log.span("dist.kernel", request):
                first = shard_topk(blocks[0], payload, 0)
            rest = [shard_topk(block, payload, r.start) for block, r
                    in zip(blocks[1:], ranker.plan.ranges[1:])]
            parts = [first] + rest
            with log.span("dist.merge", request):
                merge_topk([ids for ids, _ in parts],
                           [vals for _, vals in parts], TOP_K)

        return [rank, kernel_and_merge]

    def emit_extra(self):
        log = self.log
        self.emit("dist.rank_ms", log.p50("dist.rank"), "ms")
        self.emit("dist.kernel_ms", log.p50("dist.kernel"), "ms")
        self.emit("dist.merge_ms", log.p50("dist.merge"), "ms")
        self.emit("dist.ipc_ms", log.residual_p50(
            "dist.rank", "dist.kernel", "dist.merge"), "ms")
        self.emit("dist.start_s", log.p50("dist.start") / 1000.0, "s")


class MiniBatch(_Serving):
    """In-process ``answer_batch`` passes; no HTTP, no gateway."""

    name = "mini_batch"
    http = False
    #: each pass answers one batch of 16 queries per structure; passes
    #: rotate over 4 such batches, so quality is scored over 1024 queries
    per_structure = 16
    num_batches = 4

    def serve_config(self):
        return CACHES_OFF

    def build_inputs(self):
        self.load_mini()
        with self.log.span("queries.build"):
            drawn = sample_distinct(
                self.splits, self.seed,
                per_structure=self.per_structure * self.num_batches)
            # drawn is grouped by structure, num_batches x per_structure
            # of each: batch b takes the b-th run of per_structure from
            # every group, so each batch is grouped by structure too
            per_group = self.per_structure * self.num_batches
            self.pool = [
                drawn[group * per_group + batch * self.per_structure + i]
                for batch in range(self.num_batches)
                for group in range(len(STRUCTURES))
                for i in range(self.per_structure)]
            self.nodes = [grounded.query for grounded in self.pool]
        self.batch_size = self.per_structure * len(STRUCTURES)

    def batch(self, number: int) -> range:
        """Pool indexes of the batch that pass ``number`` answers."""
        start = (number % self.num_batches) * self.batch_size
        return range(start, start + self.batch_size)

    def one_pass(self, number: int):
        """Served ids per query, or None when the pass timed out."""
        nodes = [self.nodes[i] for i in self.batch(number)]
        try:
            results = self.runtime.answer_batch(nodes, TOP_K,
                                                timeout=CLIENT_TIMEOUT_S)
        except TimeoutError:
            return None
        return [result.entity_ids for result in results]

    def warm_up(self):
        for number in range(2):
            self.one_pass(number)

    def timed(self, seconds):
        served: dict = {}
        passes = itertools.count()
        timeouts = 0

        def window(_index):
            nonlocal timeouts
            latencies = []
            sent = correct = 0
            started = time.perf_counter()
            while time.perf_counter() - started < seconds / N_WINDOWS:
                number = next(passes)
                pass_started = time.perf_counter()
                answers = self.one_pass(number)
                elapsed_ms = 1000.0 * (time.perf_counter() - pass_started)
                sent += self.batch_size
                if answers is None:
                    timeouts += 1
                    if timeouts >= MAX_CONSECUTIVE_TIMEOUTS:
                        self.problems.append(f"{timeouts} consecutive "
                                             f"answer_batch timeouts")
                        self.attempted += sent
                        self.failed += sent - correct
                        return None
                    continue
                timeouts = 0
                right = [(i, ids) for i, ids in zip(self.batch(number),
                                                    answers)
                         if ids == self.refs[i]]
                correct += len(right)
                served.update(right)
                if len(right) == len(answers):
                    latencies.append(elapsed_ms)
            return latencies, correct, sent, time.perf_counter() - started

        before = self.counters()
        totals = run_windows(self.calibration, window)
        self.emit_counts(before, self.counters())
        self.emit_phase(totals, served)

    def traced(self, budget_s):
        log, model = self.log, self.model
        deadline = time.perf_counter() + budget_s / 2.0
        for request in itertools.count():
            if request >= MIN_TRACED and time.perf_counter() >= deadline:
                break
            with log.span("serve.runtime.answer_batch", request):
                self.one_pass(request)
        first = [self.nodes[i] for i in self.batch(0)]
        with no_grad():
            for request, node in enumerate(first):
                with log.span("serve.canonical", request):
                    serialize(canonicalize(node))
                with log.span("core.embed", request):
                    embedding = model.embed_batch([node])
                with log.span("core.distance", request):
                    distances = model.distance_to_all(embedding).data
                with log.span("core.topk", request):
                    topk_rows(distances, TOP_K)
            # a batch holds its queries grouped by structure
            size = self.per_structure
            for request in range(len(STRUCTURES)):
                group = first[request * size:(request + 1) * size]
                with log.span("core.embed_batch", request):
                    model.embed_batch(group)
        # what `ServeConfig(plan_compile=True)` would run per micro-batch
        compiler = PlanCompiler()
        compiler.compile(first)  # fills the template cache
        backend = model.plan_backend()
        for request in range(8):
            with log.span("plan.compile", request):
                compiled = compiler.compile(first)
            with log.span("plan.execute", request):
                execute_plan(compiled.plan, backend)
        plan = compiled.plan
        per_query = 1000.0 / len(first)
        self.emit("serve.canonical_ms", log.p50("serve.canonical"), "ms")
        self.emit("core.embed_ms", log.p50("core.embed"), "ms")
        self.emit("core.distance_ms", log.p50("core.distance"), "ms")
        self.emit("core.topk_ms", log.p50("core.topk"), "ms")
        self.emit("core.embed_batch_us",
                  1000.0 * log.p50("core.embed_batch") / size, "us")
        self.emit("plan.compile_us",
                  per_query * log.p50("plan.compile"), "us")
        self.emit("plan.execute_us",
                  per_query * log.p50("plan.execute"), "us")
        self.emit("plan.cse_saved_ratio",
                  plan.ops_saved / plan.ops_total, "ratio")
        self.emit("plan.cache_hit_ratio", compiled.cache_hits
                  / (compiled.cache_hits + compiled.cache_misses), "ratio")


# ----------------------------------------------------------------------
# training workload
# ----------------------------------------------------------------------
class TrainMini(Workload):
    name = "train_mini"

    def epochs(self) -> int:
        return 5 if self.quick else round(EPOCHS_PER_SECOND * self.seconds)

    #: queries the trained model is scored on; 4096 rather than the 2048
    #: the serving workloads have because this model is weaker (45
    #: epochs), so fewer queries have an answer in their top 10
    pool_size = 4096

    def make_trainer(self, epochs: int):
        model = HalkModel(self.splits.train, MINI_MODEL)
        return Trainer(model, self.bundle.train,
                       TrainConfig(epochs=epochs, seed=0, **MINI_TRAIN))

    def setup(self):
        """The training run is seed 0 whatever the run's seed, like the
        graph; the queries the trained model is scored on are drawn from
        the run's seed.  (Training queries and batch order drawn from
        the run's seed gave a different model every time, whose MRR@10
        ranged over 19 % between seeds.)"""
        with self.log.span("kg.load"):
            self.splits = load_dataset("FB237", scale=0.4, seed=0)
        with self.log.span("queries.build"):
            self.bundle = build_workloads(
                self.splits, queries_per_structure=80,
                eval_queries_per_structure=15, seed=0)
            # `bundle.test` is 240 queries, too few for a steady MRR@10
            self.pool = sample_distinct(self.splits, self.seed,
                                        size=self.pool_size)
        self.trainer = self.make_trainer(self.epochs())

    def timed(self, seconds):
        # always the full epoch count, also in a per-layer-only run, so
        # the loss and the MRR are the same number in every kind of run
        epochs = self.epochs()
        trainer, model = self.trainer, self.trainer.model
        history = trainer.history
        per_epoch = self.bundle.train.total()

        def window(index):
            # train() runs up to config.epochs and can be called again
            done = len(history.epoch_seconds)
            upto = epochs * (index + 1) // N_WINDOWS
            if upto > done:  # fewer epochs than windows leaves some empty
                trainer.config = trainer.config.with_(epochs=upto)
                trainer.train()
            seconds_each = history.epoch_seconds[done:]
            return ([1000.0 * s for s in seconds_each],
                    per_epoch * len(seconds_each),
                    per_epoch * len(seconds_each), sum(seconds_each))

        totals = run_windows(self.calibration, window)
        evaluate_started = time.perf_counter()
        per_structure = evaluate(model, self.bundle.test)
        evaluate_s = time.perf_counter() - evaluate_started
        answers = model.answer_batch([g.query for g in self.pool], TOP_K)
        steps = len(history.losses)
        self.attempted = steps + len(self.pool)
        self.failed = sum(not np.isfinite(loss) for loss in history.losses)
        if not history.epoch_losses[-1] < history.epoch_losses[0]:
            self.problems.append(
                f"training did not reduce the loss: "
                f"{history.epoch_losses[0]} -> {history.epoch_losses[-1]}")
        print(f"# {self.name} timed phase: {epochs} epochs, {steps} steps, "
              f"{totals.sent} queries in {history.seconds:.2f}s, machine "
              f"slowdown {totals.slowdown:.3f}; {len(self.pool)} queries "
              f"scored")
        rate = totals.correct / totals.reference_s
        self.emit("latency_p50_ms", median(totals.latencies_ms), "ms")
        self.emit("latency_p95_ms",
                  percentile(totals.latencies_ms, 95.0), "ms")
        self.emit("throughput_qps", rate, "1/s")
        self.emit("train_queries_per_s", rate, "1/s")
        self.emit("bench.slowdown", totals.slowdown, "ratio")
        self.emit("train_final_loss", history.final_loss, "loss")
        self.emit("eval_mrr", float(np.mean(
            [m.mrr for m in per_structure.values()])), "ratio")
        self.emit("mrr_at_10", float(np.mean(
            [reciprocal_rank_at_k(g, ids)
             for g, ids in zip(self.pool, answers)])), "ratio")
        self.emit("core.evaluate_s", evaluate_s, "s")
        self.emit("core.trainer.steps", steps / epochs, "count")

    def traced(self, budget_s):
        log = self.log
        epochs = 2 if self.quick else min(
            10, max(2, int(budget_s * EPOCHS_PER_SECOND / 2)))
        trainer = self.make_trainer(epochs)
        with ExitStack() as stack:
            for owner, attribute, span, numbered in (
                    (Trainer, "step", "core.trainer.step", True),
                    (trainer_module, "batch_loss", "nn.forward", False),
                    (Tensor, "backward", "nn.backward", False),
                    (Adam, "step", "nn.optim", False)):
                stack.enter_context(wrapped(log, owner, attribute, span,
                                            numbered))
            trainer.train()
        self.emit("nn.forward_ms", log.p50("nn.forward"), "ms")
        self.emit("nn.backward_ms", log.p50("nn.backward"), "ms")
        self.emit("nn.optim_ms", log.p50("nn.optim"), "ms")
        self.emit("core.trainer.self_ms", log.residual_p50(
            "core.trainer.step", "nn.forward", "nn.backward", "nn.optim"),
            "ms")


WORKLOADS = {cls.name: cls for cls in (MiniMixed, MiniRepeat, MiniBatch,
                                       Xl100kSharded, TrainMini)}
