"""Source ratchets: seams that were deleted stay deleted.

Each test greps ``src/repro`` for something a past PR removed on purpose
(a second copy of the arithmetic, a wrapper on the answer path, a thread
or a timer on the request path) and names the line where it grew back.
"""

import ast
import os
import pathlib
import re
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"


def hits(pattern: str, *paths: str) -> list[str]:
    """``file:line: text`` of every line under ``paths`` (files or
    directories below ``src/repro``) that matches ``pattern``."""
    regex = re.compile(pattern)
    found = []
    for path in paths:
        root = SRC / path
        files = sorted(root.rglob("*.py")) if root.is_dir() else [root]
        for file in files:
            for number, line in enumerate(
                    file.read_text(encoding="utf-8").splitlines(), 1):
                if regex.search(line):
                    found.append(f"{file.relative_to(SRC)}:{number}: "
                                 f"{line.strip()}")
    return found


def test_one_request_context_seams_stay_closed():
    """The in-progress registry, the request_id/shard_info plumbing and
    the Tensor-patching profiler hooks must not grow back under another
    layer."""
    assert hits(r"_in_progress|diag_owned|shard_info|set_profiler"
                r"|warn_dual_profilers", "") == []


def test_no_autograd_wrapper_on_the_answer_path():
    """No grad switch, Tensor construction or ``distance_to_all`` call in
    the plan backend, the executor or the runtime (they reach repro.nn
    only for the array namespace, ``repro.nn.arrays``)."""
    assert hits(r"no_grad|Tensor\(|distance_to_all\(", "plan/backend.py",
                "plan/executor.py", "serve/runtime.py") == []


def test_no_arithmetic_in_the_plan_backend():
    """The HaLk arithmetic is written once, over a namespace: the plan
    backend holds none of it."""
    assert hits(r"np\.(sin|cos|tanh|exp|arctan2|clip)\(|np\.pi| @ ",
                "plan/backend.py") == []


def test_the_semantic_average_is_written_once():
    """The one ``arctan2`` is called from one place under core/ and
    plan/: a second operator body growing back fails here."""
    mentions = hits(r"arctan2", "core", "plan")
    assert {m.split(":")[0] for m in mentions} == {"core/operators.py"}
    assert len(hits(r"arctan2\(", "core/operators.py")) == 1


def test_the_training_tape_scatters_without_add_at():
    """``np.add.at`` survives once in repro.nn (the advanced-index branch
    of ``Tensor.__getitem__``, where a cell can be selected twice) and
    nowhere in repro.core."""
    assert len(hits(r"np\.add\.at", "nn")) == 1
    assert hits(r"np\.add\.at", "core") == []


def test_no_event_loop_on_the_request_path():
    """A request stays on its connection's thread from socket to queue:
    no event loop, and so no cross-thread hop onto one, in the door or
    the runtime behind it."""
    assert hits(r"asyncio|call_soon_threadsafe", "gateway", "serve") == []


def test_the_entity_table_is_cast_to_float32_in_one_place():
    """The ranking filter reads a float32 table somebody prepared once:
    the float64 → float32 cast lives in ``ArcShardScorer.prepare`` and
    nowhere else in the kernel (a second one is a per-request cast
    growing back)."""
    assert len(hits(r"casting=", "dist/scorer.py")) == 1


def test_requests_wait_for_a_worker_never_for_a_clock():
    """The serving queue is pulled by its workers: no flush window, no
    batcher thread and no executor pool between a request and the worker
    that runs it."""
    assert hits(r"flush_timeout|ThreadPoolExecutor|serve-batcher",
                "serve") == []
    assert hits(r"flush_timeout", "") == []


def test_one_queue_from_the_door_to_the_worker():
    """A request waits in one queue — the runtime's fair lanes — under
    one record: no gateway pump, inflight window or second request
    record, and ``serve.queue`` is the only wait stage."""
    assert hits(r"_pump|_pumping|max_inflight|_release_slot|QueuedRequest"
                r"|gateway\.queue", "") == []


def test_one_fallback_rung_one_slab_layout_one_start_method():
    """A shard's segment is its row block and workers are forked by the
    one fork server: no layout switch, row offset or start-method
    plumbing; and serving has no LSH rung (``repro.ann`` stays the
    paper's retrieval path, reached through ``SparqlEngine.answer``, not
    the runtime or the CLI)."""
    assert hits(r"lazy_slabs|lazy=|\.lazy\b|LAZY_SLAB|row_offset"
                r"|start_method", "") == []
    assert hits(r"_lsh_answer|fallback_lsh|LshIndex", "serve",
                "cli.py") == []


def test_workers_start_from_the_fork_server_only():
    """One multiprocessing context in the package, the fork server's:
    ``spawn`` (an interpreter and every import per worker) is gone, and
    ``fork`` from a process with serving threads would copy their locks
    mid-hold."""
    contexts = hits(r"get_context\(", "")
    assert len(contexts) == 1, contexts
    assert contexts[0].startswith("dist/pool.py:")
    assert 'get_context("forkserver")' in contexts[0]


def test_the_ranking_filter_takes_one_sin_and_one_cos_a_cell():
    """All three chords of a filter cell come from one angle: its body
    calls ``np.sin`` once and ``np.cos`` once, not a ``sin`` per
    chord."""
    source = (SRC / "dist" / "scorer.py").read_text(encoding="utf-8")
    body, = (ast.get_source_segment(source, node)
             for node in ast.walk(ast.parse(source))
             if isinstance(node, ast.FunctionDef)
             and node.name == "_approx_distance")
    assert body.count("np.sin(") == 1
    assert body.count("np.cos(") == 1



def test_one_model_protocol_one_tree_walk():
    """Every method embeds through ``QueryModel``: one ``_embed`` walk,
    defined there, and no second base class for the baselines."""
    walks = hits(r"def _embed\(", "")
    assert len(walks) == 1 and walks[0].startswith("core/model.py:"), walks
    source = (SRC / "core" / "model.py").read_text(encoding="utf-8")
    owner, = (node.name for node in ast.walk(ast.parse(source))
              if isinstance(node, ast.ClassDef)
              and any(isinstance(item, ast.FunctionDef)
                      and item.name == "_embed" for item in node.body))
    assert owner == "QueryModel"
    assert hits(r"BranchEmbeddingModel", "") == []


def test_the_sampler_draws_by_index():
    """A grounding draw indexes a tuple built once, at an index replayed
    from the word block: no ``.choice(`` in the sampler, which converts
    its whole list to an array per draw."""
    assert hits(r"\.choice\(", "queries/sampler.py") == []


def test_the_sampler_calls_its_generator_per_block():
    """Grounding draws replay numpy's bounded-integer method over a block
    of words: only the block's refill and sync call ``.integers(`` — a
    per-draw generator call is ~2 µs of call overhead each."""
    tree = ast.parse((SRC / "queries" / "sampler.py").read_text(
        encoding="utf-8"))
    allowed = [range(node.lineno, node.end_lineno + 1)
               for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef)
               and node.name in ("_refill", "_sync")]
    calls = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute)
             and node.func.attr == "integers"]
    assert calls, "the word block draws through .integers("
    assert [f"queries/sampler.py:{line}" for line in calls
            if not any(line in span for span in allowed)] == []


def test_shard_workers_start_without_networkx():
    """Nothing in the package imports networkx: the ranker a shard worker
    imports must not pull it in at start, through any dependency."""
    code = ("import sys, repro.dist.ranker; "
            "print('networkx' in sys.modules)")
    path = os.pathsep.join(filter(None, [str(SRC.parent),
                                         os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path})
    assert out.stdout.strip() == "False"


def test_one_module_selects_rotation_tails():
    """The KG generator is one stream: tail selection (``argpartition``)
    lives in one module under ``repro.kg`` — a second is a second copy
    of the recipe growing back."""
    selecting = {m.split(":")[0] for m in hits(r"argpartition", "kg")}
    assert len(selecting) == 1, selecting


def test_telemetry_has_one_writer():
    """The owner process writes every span and metric from what a shard
    worker's reply says: no process installs a second tracer or
    registry, no worker span is re-numbered into the owner's tree, and
    no metric increment is flushed or merged across processes."""
    assert hits(r"(?<!def )\b(set_tracer|set_registry)\(|\.adopt\(", "") \
        == []
    assert hits(r"flush_delta|MetricsDelta|track_deltas|drain_pending",
                "") == []


def test_the_package_needs_numpy_only():
    """No module imports scipy or networkx: numpy is the one runtime
    dependency ``pyproject.toml`` declares."""
    assert hits(r"^\s*(import|from)\s+(scipy|networkx)\b", "") == []


def calls(path: str) -> list[str]:
    """``name:line`` of every call in the module at ``path`` (below
    ``src/repro``), named by the function or attribute it calls."""
    tree = ast.parse((SRC / path).read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else \
                func.attr if isinstance(func, ast.Attribute) else None
            if name is not None:
                found.append(f"{name}:{node.lineno}")
    return found


def test_the_serve_path_walks_a_query_once():
    """A served query is walked once, by ``repro.serve.canonical.walk``,
    which yields its canonical tree, keys and ids together: the runtime
    and the compiler call none of the single-purpose walks, and the
    executor reads the stages the compiler recorded instead of taking
    the plan's depths again."""
    walks = {"canonicalize", "serialize", "structure_signature",
             "batch_key", "anchors", "relations"}
    for path in ("serve/runtime.py", "plan/compiler.py"):
        assert [c for c in calls(path)
                if c.split(":")[0] in walks] == [], path
    assert [c for c in calls("plan/executor.py")
            if c.startswith("depths:")] == []


def test_request_heads_are_read_without_email():
    """The door parses request heads itself: ``serve/http.py`` imports
    neither ``email`` nor ``http.client`` and calls no ``parse_headers``,
    and its handler overrides the stdlib ``parse_request`` that would
    (``http.client.parse_headers`` builds an ``email`` message)."""
    assert hits(r"^\s*(import|from)\s+(email|http\.client)\b",
                "serve/http.py", "gateway") == []
    assert [c for c in calls("serve/http.py")
            if c.startswith("parse_headers:")] == []
    tree = ast.parse((SRC / "serve/http.py").read_text(encoding="utf-8"))
    classes = {node.name: node for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)}
    assert "parse_request" in {
        node.name for node in classes["_RequestHandler"].body
        if isinstance(node, ast.FunctionDef)}
    assert [base.id for base in classes["Handler"].bases] == \
        ["_RequestHandler"]


def test_no_straggler_hedging():
    """A shard's reply comes from its worker only: no hedge policy, no
    parent-side duplicate of a worker's computation, no hedge option or
    counter, in any spelling."""
    assert hits(r"(?i)hedge", "") == []


def test_a_request_is_one_record():
    """A request's record keeps its stage stamps and renders them as
    spans when they are read: no cross-thread span API that writes a
    tree while the request runs, no walk of the tracer's ring to find a
    request's spans again, and no second object per request beside the
    record (the context, the queue entry and the future are all it)."""
    assert hits(r"start_span|end_span|\.activate\(|_Activation"
                r"|collect_request_spans", "") == []
    assert hits(r"\.finished\(\)", "obs/diag.py") == []
    assert hits(r"class (RequestContext|_Pending)\b|\.note\(", "") == []


def test_one_reader_for_a_running_server():
    """A running server is read through ``cli get``: one fetch, one
    table of endpoints, no per-endpoint command; and no ``ServeClient``
    wrapper around a runtime whose callers need the runtime anyway."""
    import repro.serve
    assert not hasattr(repro.serve, "ServeClient")
    assert hits(r"ServeClient", "") == []
    assert hits(r"def cmd_(stats|flight|slo|prof|mem)\b", "cli.py") == []
    assert len(hits(r"_fetch_json\(", "cli.py")) == 2  # its def, one call
