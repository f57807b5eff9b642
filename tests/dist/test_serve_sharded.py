"""ServeRuntime with ``num_shards``: identical answers, live reload."""

import multiprocessing
import os
import socket
import threading

import pytest

from repro.config import ModelConfig
from repro.core import HalkModel
from repro.core.topk import topk_rows
from repro.serve import ServeConfig, ServeRuntime

from .conftest import parent_pid, requires_shm
from .conftest import shm_segments as _shm_segments

pytestmark = [pytest.mark.dist, requires_shm]


@pytest.fixture(scope="module")
def runtime(model, kg):
    config = ServeConfig(num_shards=2)
    with ServeRuntime(model, kg=kg, config=config) as runtime:
        yield runtime


def test_sharded_runtime_matches_direct_ranking(model, runtime, queries):
    results = runtime.answer_batch(queries, top_k=8, timeout=30.0)
    embedding = model.embed_batch(queries)
    expect = topk_rows(model.distance_to_all(embedding).data, 8)
    for row, result in zip(expect, results):
        assert result.source == "model"
        assert result.entity_ids == [int(e) for e in row]


def test_cache_hit_path_agrees_with_batched_path(runtime, queries):
    first = runtime.answer(queries[0], top_k=8, timeout=30.0)
    again = runtime.answer(queries[0], top_k=8, timeout=30.0)
    assert again.entity_ids == first.entity_ids


def test_shards_gauge_reports_pool_width(runtime):
    assert runtime.stats().gauges["shards"] == 2


def test_debug_mem_sums_to_what_dev_shm_holds(model, runtime):
    """``/debug/mem`` and the ``shard_slab_bytes`` gauges count the
    table *and* its prepared companion: together, the real segments."""
    if not os.path.isdir("/dev/shm"):
        pytest.skip("no /dev/shm to inspect")
    payload = runtime.mem_payload()
    plan = runtime._ranker.plan
    names = {plan.shard_spec(i, prepared=prepared)[0].name
             for i in range(plan.num_shards) for prepared in (False, True)}
    on_disk = sum(os.stat(f"/dev/shm/{name}").st_size for name in names)
    n, d = model.sharding_spec()[0].shape
    assert payload["shard_plan"]["total_bytes"] == on_disk == n * d * 12
    assert payload["shard_plan"]["prepared_bytes"] == n * d * 4
    assert payload["local_ranker"] is None  # the workers rank
    gauges = runtime.metrics.snapshot().gauges
    assert sum(gauges[f"shard_slab_bytes{{shard={i}}}"]
               for i in range(plan.num_shards)) == on_disk


def test_debug_mem_names_the_fork_server(runtime):
    """The workers' parent — the fork server holding the imports no
    worker pays for any more — is a process row and an RSS gauge."""
    payload = runtime.mem_payload()
    roles = [proc["role"] for proc in payload["processes"]]
    assert roles == ["serve", "shard0", "shard1", "forkserver"]
    rows = {proc["role"]: proc for proc in payload["processes"]}
    server = rows["forkserver"]
    assert server["pid"] not in (os.getpid(), None)
    assert {parent_pid(rows[f"shard{i}"]["pid"]) for i in (0, 1)} \
        == {server["pid"]}
    assert server["rss_bytes"] > 1024 * 1024
    gauges = runtime.metrics.snapshot().gauges
    assert gauges["process_rss_bytes{role=forkserver}"] \
        == server["rss_bytes"]


def test_unsupported_model_falls_back_to_in_process(model, kg, queries,
                                                     monkeypatch):
    """No working shared memory: the same kernel ranks in-process, and
    ``health()`` says why the shards that were asked for are not there."""
    monkeypatch.setattr("repro.dist.dist_available", lambda: False)
    config = ServeConfig(num_shards=2)
    with ServeRuntime(model, kg=kg, config=config) as runtime:
        assert runtime._ranker is None
        assert runtime.stats().gauges["shards"] == 0
        ok, detail = runtime.health()
        assert ok  # in-process ranking is healthy, and says why
        assert detail["shards"] == 0
        assert detail["shards_requested"] == 2
        assert detail["sharding_unavailable"] == "no_shared_memory"
        got = runtime.answer(queries[0], top_k=8, timeout=30.0)
        assert got.entity_ids == model.answer(queries[0], top_k=8)
    with ServeRuntime(model, kg=kg) as runtime:  # nothing asked for
        assert "sharding_unavailable" not in runtime.health()[1]


def test_model_without_a_ranking_table_is_refused(kg):
    """``sharding_spec()`` is what every tier ranks over; a model that
    has none cannot be served, and is told so before anything starts."""
    class TablelessHalk(HalkModel):
        def sharding_spec(self):
            return None

    model = TablelessHalk(kg, ModelConfig(embedding_dim=6, hidden_dim=12,
                                          seed=3))
    threads = set(threading.enumerate())
    with pytest.raises(TypeError, match="sharding_spec"):
        ServeRuntime(model, kg=kg)
    assert set(threading.enumerate()) <= threads


def test_shard_ranker_refusing_the_model_stops_the_profiler(kg):
    """With shards asked for, the table is first missed by
    ``ShardedRanker``, after the profiler thread is up."""
    class TablelessHalk(HalkModel):
        def sharding_spec(self):
            return None

    model = TablelessHalk(kg, ModelConfig(embedding_dim=6, hidden_dim=12,
                                          seed=3))
    threads = set(threading.enumerate())
    with pytest.raises(ValueError, match="sharding_spec"):
        ServeRuntime(model, kg=kg, config=ServeConfig(num_shards=2))
    assert set(threading.enumerate()) <= threads


def test_rejected_config_starts_nothing(model, kg):
    """A config the caches reject must raise before the profiler thread,
    the shard workers or their shared-memory segment exist."""
    if not os.path.isdir("/dev/shm"):
        pytest.skip("no /dev/shm to inspect")
    segments = _shm_segments()
    children = set(multiprocessing.active_children())
    threads = set(threading.enumerate())
    with pytest.raises(ValueError):
        ServeRuntime(model, kg=kg,
                     config=ServeConfig(num_shards=2, answer_cache_size=0))
    assert _shm_segments() <= segments
    assert set(multiprocessing.active_children()) <= children
    assert set(threading.enumerate()) <= threads


@pytest.mark.parametrize("shards", [0, 2])
def test_late_failure_tears_down_what_started(model, kg, shards):
    """The HTTP listener is the last thing ``__init__`` starts; when its
    port is taken, the batcher and profiler threads — and with shards
    the workers and their segment — are already up, and must not
    outlive the constructor's exception."""
    if not os.path.isdir("/dev/shm"):
        pytest.skip("no /dev/shm to inspect")
    taken = socket.socket()
    try:
        try:
            taken.bind(("127.0.0.1", 0))
        except OSError:
            pytest.skip("no loopback port can be bound")
        taken.listen(1)
        segments = _shm_segments()
        children = set(multiprocessing.active_children())
        threads = set(threading.enumerate())
        with pytest.raises(OSError):
            ServeRuntime(model, kg=kg, config=ServeConfig(
                num_shards=shards, http_port=taken.getsockname()[1]))
        assert _shm_segments() <= segments
        assert set(multiprocessing.active_children()) <= children
        assert set(threading.enumerate()) <= threads
    finally:
        taken.close()


def test_reload_republishes_the_filter_table(kg, queries, tmp_path):
    """A hot reload writes the new weights through the slab *and* its
    prepared companion: served answers are the new model's, which a
    filter still reading the old half-angles could not produce."""
    from repro.ckpt import save_checkpoint

    def variant(seed):
        return HalkModel(kg, ModelConfig(embedding_dim=6, hidden_dim=12,
                                         seed=seed))

    served, donor = variant(31), variant(32)
    path = tmp_path / "donor.npz"
    save_checkpoint(path, {"model": donor.state_dict()})
    config = ServeConfig(num_shards=2, answer_ttl=1e-9)
    with ServeRuntime(served, kg=kg, config=config) as runtime:
        old = [r.entity_ids for r in
               runtime.answer_batch(queries, top_k=8, timeout=30.0)]
        runtime.reload(path)
        new = [r.entity_ids for r in
               runtime.answer_batch(queries, top_k=8, timeout=30.0)]
    embedding = donor.embed_batch(queries)
    expect = topk_rows(donor.distance_to_all(embedding).data, 8)
    assert new == expect.tolist()
    assert new != old
