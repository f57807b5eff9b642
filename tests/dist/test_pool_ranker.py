"""Live worker-pool tests: parity, crash healing, clean teardown.

Everything that starts processes lives here, against ONE module-scoped
ranker (worker start-up is the expensive part), with the teardown/no-leak
assertions running last against that same pool.
"""

import os
import signal
import sys
import threading
import time

import numpy as np
import pytest

from repro.core.topk import topk_rows
from repro.dist import ShardedRanker, merge_topk
from repro.queries import Entity, Intersection, Projection, Union

from .conftest import parent_pid, requires_shm

pytestmark = [pytest.mark.dist, requires_shm]


@pytest.fixture(scope="module")
def ranker(model):
    ranker = ShardedRanker.for_model(model, 3)
    assert ranker is not None
    yield ranker
    ranker.close()


@pytest.fixture(scope="module")
def embedding(model, queries):
    return model.embed_batch(queries)


def _expected(model, embedding, k):
    distances = model.distance_to_all(embedding).data
    ids = topk_rows(distances, k)
    return distances, ids, np.take_along_axis(distances, ids, axis=-1)


class TestParity:
    def test_topk_bitwise_equal(self, model, ranker, embedding):
        _, expect_ids, expect_vals = _expected(model, embedding, 10)
        ids, vals = ranker.topk(embedding, 10)
        assert np.array_equal(ids, expect_ids)
        assert np.array_equal(vals, expect_vals)

    def test_distances_bitwise_equal(self, model, ranker, embedding):
        expect, _, _ = _expected(model, embedding, 1)
        assert np.array_equal(ranker.distances(embedding), expect)

    def test_k_wider_than_a_shard(self, model, ranker, embedding):
        k = 60  # 101 entities / 3 shards = 33-34 rows per shard
        _, expect_ids, expect_vals = _expected(model, embedding, k)
        ids, vals = ranker.topk(embedding, k)
        assert np.array_equal(ids, expect_ids)
        assert np.array_equal(vals, expect_vals)

    def test_refresh_publishes_new_weights(self, model, ranker, queries):
        original = model.entity_points.weight.data.copy()
        try:
            model.entity_points.weight.data += 0.05
            ranker.refresh()
            embedding = model.embed_batch(queries)
            _, expect_ids, _ = _expected(model, embedding, 10)
            ids, _ = ranker.topk(embedding, 10)
            assert np.array_equal(ids, expect_ids)
        finally:
            model.entity_points.weight.data[...] = original
            ranker.refresh()


class TestConcurrentCallers:
    def test_two_threads_share_one_ranker(self, model, kg):
        """The pool's dispatch/gather pair serves one caller at a time
        (a second caller's collect drops the first's replies as stale
        and both wait forever); ``ServeRuntime(num_workers=2)`` calls
        ``topk`` from two threads under a shared read lock, so the
        ranker has to serialise its round trips itself."""
        triples = list(kg)[:8]
        (h0, r0, _), (h1, r1, _) = triples[0], triples[1]
        structures = [
            [Projection(r, Entity(h)) for h, r, _ in triples[:3]],
            [Projection(r1, Projection(r0, Entity(h0)))],
            [Intersection((Projection(r0, Entity(h0)),
                           Projection(r1, Entity(h1))))],
            [Union((Projection(r0, Entity(h0)),      # two DNF branches
                    Projection(r1, Entity(h1))))],
        ]
        cases = []
        for index, queries in enumerate(structures):
            embedding = model.embed_batch(queries)
            k = 3 + 2 * index
            _, ids, vals = _expected(model, embedding, k)
            cases.append((embedding, k, ids, vals))

        calls_per_thread, wrong, errors = 160, [], []
        ranker = ShardedRanker.for_model(model, 2)
        assert ranker is not None

        def caller(offset):
            try:
                for i in range(calls_per_thread):
                    embedding, k, ids, vals = \
                        cases[(i + offset) % len(cases)]
                    got_ids, got_vals = ranker.topk(embedding, k)
                    if not (np.array_equal(got_ids, ids)
                            and np.array_equal(got_vals, vals)):
                        wrong.append((offset, i))
            except Exception as exc:  # DistError included
                errors.append(exc)

        threads = [threading.Thread(target=caller, args=(offset,),
                                    daemon=True) for offset in (0, 1)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        started = time.monotonic()
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
            stuck = [t.name for t in threads if t.is_alive()]
        finally:
            sys.setswitchinterval(interval)
            if not any(t.is_alive() for t in threads):
                ranker.close()  # else: leave the daemon threads be
        assert not stuck, f"callers hung on each other's replies: {stuck}"
        assert not errors and not wrong
        assert time.monotonic() - started < 30.0


class TestCrashHealing:
    def test_injected_crash_respawns_and_answers(self, model, ranker,
                                                 embedding):
        """A worker dying mid-request is respawned and the answer is
        still exactly right."""
        _, expect_ids, _ = _expected(model, embedding, 10)
        payload = model.ranking_payload(embedding)
        request = {"mode": "topk", "k": 10, "payload": payload}
        crashing = [dict(request) for _ in range(ranker.num_shards)]
        crashing[1]["crash"] = "before"
        resend = [dict(request) for _ in range(ranker.num_shards)]
        before = ranker.respawns
        seq = ranker.pool.dispatch(crashing)
        replies, _ = ranker.pool.gather(seq, resend)
        ids, _ = merge_topk([r["ids"] for r in replies],
                            [r["vals"] for r in replies], 10)
        assert np.array_equal(ids, expect_ids)
        assert ranker.respawns == before + 1
        assert all(ranker.pool.alive())

    def test_crash_after_compute_discards_stale_reply(self, model, ranker,
                                                      embedding):
        """Dying *after* computing must not leave a stale reply that a
        later request could consume."""
        _, expect_ids, _ = _expected(model, embedding, 5)
        payload = model.ranking_payload(embedding)
        request = {"mode": "topk", "k": 5, "payload": payload}
        crashing = [dict(request) for _ in range(ranker.num_shards)]
        crashing[0]["crash"] = "after"
        resend = [dict(request) for _ in range(ranker.num_shards)]
        seq = ranker.pool.dispatch(crashing)
        replies, _ = ranker.pool.gather(seq, resend)
        ids, _ = merge_topk([r["ids"] for r in replies],
                            [r["vals"] for r in replies], 5)
        assert np.array_equal(ids, expect_ids)
        # the pool must still answer correctly on the *next* request too
        ids2, _ = ranker.topk(embedding, 5)
        assert np.array_equal(ids2, expect_ids)

    def test_sigkill_mid_flight(self, model, ranker, embedding):
        """A real SIGKILL (not injection) heals the same way."""
        _, expect_ids, _ = _expected(model, embedding, 10)
        victim = ranker.pool.pids()[2]
        os.kill(victim, signal.SIGKILL)
        ids, _ = ranker.topk(embedding, 10)
        assert np.array_equal(ids, expect_ids)
        assert all(ranker.pool.alive())

    def test_respawned_worker_is_a_fork_of_the_server(self, ranker,
                                                      embedding):
        """A respawn forks the fork server, not this process: the fresh
        worker's parent is the server its siblings came from, and its
        answers are bit for bit the ones before the kill."""
        ids_before, vals_before = ranker.topk(embedding, 10)
        victim = ranker.pool.pids()[0]
        server = parent_pid(ranker.pool.pids()[1])
        before = ranker.respawns
        os.kill(victim, signal.SIGKILL)
        ids, vals = ranker.topk(embedding, 10)
        assert ranker.respawns == before + 1
        fresh = ranker.pool.pids()[0]
        assert fresh != victim
        assert parent_pid(fresh) == server != os.getpid()
        assert np.array_equal(ids, ids_before)
        assert np.array_equal(vals, vals_before)


class TestExactlyOnceTelemetry:
    def test_crashes_count_each_shard_once(self, model, ranker, embedding):
        """``rank_requests{shard=k}`` grows by exactly the request count
        even when every worker dies before and after computing.

        A crash before compute sends no reply; a crash after compute
        dies before its reply ships.  Either way the respawned worker
        answers the re-sent request, and only that reply is recorded.
        """
        metrics = ranker.pool.metrics
        shards = range(ranker.num_shards)

        def handled():
            counters = metrics.snapshot().counters
            return [counters.get(f"rank_requests{{shard={shard}}}", 0)
                    for shard in shards]

        _, expect_ids, _ = _expected(model, embedding, 5)
        before = handled()
        for _ in range(3):  # plain requests
            ids, _ = ranker.topk(embedding, 5)
            assert np.array_equal(ids, expect_ids)
        payload = model.ranking_payload(embedding)
        request = {"mode": "topk", "k": 5, "payload": payload}
        for mode in ("before", "after"):
            crashing = [dict(request, crash=mode) for _ in shards]
            resend = [dict(request) for _ in shards]
            seq = ranker.pool.dispatch(crashing)
            replies, _ = ranker.pool.gather(seq, resend)
            ids, _ = merge_topk([r["ids"] for r in replies],
                                [r["vals"] for r in replies], 5)
            assert np.array_equal(ids, expect_ids)
        after = handled()
        assert [a - b for a, b in zip(after, before)] == \
            [5] * ranker.num_shards


class TestTeardown:
    def test_close_leaves_no_workers_or_segments(self, model):
        ranker = ShardedRanker.for_model(model, 2)
        assert ranker is not None
        shm_name = ranker.plan.shard_spec(0)[0].name
        companion = ranker.plan.shard_spec(0, prepared=True)[0].name
        pids = ranker.pool.pids()
        ranker.close()
        ranker.close()  # idempotent
        for pid in pids:
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                try:
                    os.kill(pid, 0)
                except ProcessLookupError:
                    break
                time.sleep(0.05)
            else:
                pytest.fail(f"worker {pid} still alive after close()")
        from multiprocessing import shared_memory
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=shm_name)
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=companion)

    def test_unsupported_model_returns_none(self):
        class NoShards:
            def sharding_spec(self):
                return None

        assert ShardedRanker.for_model(NoShards(), 4) is None
