"""repro.obs.prof: the continuous sampling profiler and its tools.

Covers the ISSUE 10 acceptance surface that does not need a serving
runtime: deterministic sampling passes, the overhead-budget
down-sampling loop, delta draining and the parent-side store,
order-independent count-conserving merges (property-tested), the two
flame-graph export formats, self-time-share diff attribution — including
a *real* injected slowdown being attributed to the slowed frame — and
the memory observability helpers.
"""

import json
import threading
import time

import numpy as np
import pytest

from repro.obs.prof import (Profile, ProfileStore, SamplingProfiler,
                            diff_plan_ops, diff_profiles, estimate_nbytes,
                            format_diff, format_top, load_profile_payload,
                            merge_profiles, process_rss_bytes,
                            self_time_shares, to_folded,
                            to_speedscope, window_profiles)

pytestmark = [pytest.mark.obs, pytest.mark.prof]


@pytest.fixture()
def parked_thread():
    """A named thread parked in a recognisable function."""
    release = threading.Event()

    def _parked_in_test_prof(event):
        event.wait(10.0)

    thread = threading.Thread(target=_parked_in_test_prof,
                              args=(release,), name="parked-worker")
    thread.start()
    yield thread
    release.set()
    thread.join()


class TestSampling:
    def test_sample_once_captures_parked_thread(self, parked_thread):
        sampler = SamplingProfiler(hz=50, role="test")
        count = sampler.sample_once()
        assert count >= 1  # at least this thread and the parked one
        profile = sampler.snapshot()
        assert profile.samples == count
        parked = [stack for stack in profile.stacks
                  if stack.startswith("parked-worker;")]
        assert parked, f"parked thread missing from {list(profile.stacks)}"
        # leaf frame is the function the thread is parked in (Event.wait
        # bottoms out in a C call, so the deepest *Python* frame wins)
        assert any("_parked_in_test_prof" in stack or "threading.py" in
                   stack for stack in parked)

    def test_sampler_skips_its_own_stack(self):
        sampler = SamplingProfiler(hz=50, role="test")
        sampler.sample_once()
        own = [stack for stack in sampler.snapshot().stacks
               if "sample_once" in stack]
        assert not own  # calling thread == sampling thread here

    def test_start_stop_thread_lifecycle(self):
        sampler = SamplingProfiler(hz=200, role="test")
        assert not sampler.running
        with sampler:
            assert sampler.running
            time.sleep(0.1)
        assert not sampler.running
        assert sampler.snapshot().samples > 0
        assert sampler.duration_s() > 0.05

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            SamplingProfiler(hz=0)
        with pytest.raises(ValueError):
            SamplingProfiler(hz=10, overhead_budget=0.0)


class TestOverheadBudget:
    def test_expensive_pass_halves_rate(self):
        sampler = SamplingProfiler(hz=100, role="test",
                                   overhead_budget=0.02, min_hz=1.0)
        assert sampler.effective_hz == pytest.approx(100.0)
        # a pass costing a full second blows any budget immediately
        sampler._account(1.0)
        assert sampler.downsamples == 1
        assert sampler.effective_hz == pytest.approx(50.0)
        assert sampler.overhead_ratio > sampler.overhead_budget

    def test_downsampling_floors_at_min_hz(self):
        sampler = SamplingProfiler(hz=8, role="test",
                                   overhead_budget=0.02, min_hz=2.0)
        for _ in range(20):
            sampler._account(1.0)
        # 8 -> 4 -> 2 and no further: halving again would go below min_hz
        assert sampler.effective_hz == pytest.approx(2.0)
        assert sampler.downsamples == 2

    def test_cheap_passes_keep_full_rate(self):
        sampler = SamplingProfiler(hz=100, role="test",
                                   overhead_budget=0.02)
        for _ in range(50):
            sampler._account(0.00001)  # 0.1% of the 10ms interval
        assert sampler.downsamples == 0
        assert sampler.effective_hz == pytest.approx(100.0)

    def test_a_pass_that_waits_off_cpu_costs_only_its_cpu(self,
                                                          monkeypatch):
        """A pass that loses the interpreter lock (or its core) mid-walk
        sits waiting, off the CPU, while the threads it samples run: the
        wait is not its cost.  Timed on the wall clock, one such pass of
        a few milliseconds halved the rate and left the overhead ratio
        above twice the budget for several passes after."""
        sampler = SamplingProfiler(hz=100, role="test",
                                   overhead_budget=0.02)
        passes = threading.Semaphore(0)

        def waiting_pass():
            time.sleep(0.004)  # 40% of the 10 ms interval, off the CPU
            passes.release()
            return 0

        monkeypatch.setattr(sampler, "sample_once", waiting_pass)
        with sampler:
            for _ in range(3):
                assert passes.acquire(timeout=10.0)
        assert sampler.downsamples == 0
        assert sampler.effective_hz == pytest.approx(100.0)
        assert sampler.overhead_ratio < sampler.overhead_budget

    def test_budget_metrics_exported(self, parked_thread):
        from repro.obs.metrics import MetricsRegistry
        registry = MetricsRegistry()
        sampler = SamplingProfiler(hz=100, role="r1", registry=registry)
        sampler.sample_once()  # parked_thread guarantees >=1 sample
        sampler._account(1.0)
        snap = registry.snapshot()
        assert snap.counters.get("prof_samples{role=r1}", 0) >= 1
        assert snap.counters["prof_downsamples{role=r1}"] == 1
        assert snap.gauges["prof_effective_hz{role=r1}"] == \
            pytest.approx(50.0)
        assert snap.gauges["prof_overhead_ratio{role=r1}"] > 0.02


class TestDeltaFlush:
    def test_flush_drains_pending_not_cumulative(self, parked_thread):
        sampler = SamplingProfiler(hz=50, role="w")
        assert sampler.drain() is None  # nothing yet
        sampler.sample_once()
        delta = sampler.drain()
        assert delta is not None
        assert delta.samples == sampler.snapshot().samples
        assert sampler.drain() is None  # drained
        sampler.sample_once()
        second = sampler.drain()
        assert second is not None
        # cumulative snapshot keeps both passes
        assert sampler.snapshot().samples == delta.samples + second.samples

    def test_drain_carries_the_downsamples_of_its_window(
            self, parked_thread):
        """The owner counts ``prof_downsamples`` from the delta alone:
        each halving rides exactly one drain."""
        sampler = SamplingProfiler(hz=100, role="w")
        sampler.sample_once()
        sampler._account(1.0)
        first = sampler.drain()
        assert (first.downsamples, first.hz) == (1, pytest.approx(50.0))
        sampler.sample_once()
        assert sampler.drain().downsamples == 0
        assert sampler.snapshot().downsamples == 1

    def test_store_accumulates_by_role_and_pid(self):
        store = ProfileStore()
        store.merge_delta(Profile({"t;a": 2}, 2, 0.1, 50.0, 111, "shard0"))
        store.merge_delta(Profile({"t;a": 1, "t;b": 3}, 4, 0.1, 50.0,
                                  111, "shard0"))
        # a respawned worker (same role, new pid) gets its own entry
        store.merge_delta(Profile({"t;a": 5}, 5, 0.1, 50.0, 222, "shard0"))
        assert len(store) == 2
        by_pid = {p.pid: p for p in store.snapshot()}
        assert by_pid[111].stacks == {"t;a": 3, "t;b": 3}
        assert by_pid[111].samples == 6
        assert by_pid[222].samples == 5

    def test_store_snapshot_is_a_copy(self):
        store = ProfileStore()
        store.merge_delta(Profile({"t;a": 1}, 1, 0.1, 50.0, 1, "w"))
        snap = store.snapshot()[0]
        snap.stacks["t;a"] = 999
        assert store.snapshot()[0].stacks["t;a"] == 1


class TestMerge:
    def test_merge_tags_roles_and_conserves_counts(self):
        merged = merge_profiles([
            Profile({"main;f": 3}, 3, 1.0, 50.0, 10, "serve"),
            Profile({"main;g": 2}, 2, 0.5, 25.0, 20, "shard0"),
            None,  # dead worker slots are skipped
        ])
        assert merged.samples == 5
        assert merged.stacks == {"serve@10;main;f": 3,
                                 "shard0@20;main;g": 2}
        assert merged.hz == 50.0
        assert merged.duration_s == 1.0

    def test_merge_untagged_folds_same_stacks(self):
        merged = merge_profiles([
            Profile({"main;f": 3}, 3, 1.0, 50.0, 10, "a"),
            Profile({"main;f": 2}, 2, 1.0, 50.0, 20, "b"),
        ], tag=False)
        assert merged.stacks == {"main;f": 5}

    def test_merge_property_order_independent_and_conserving(self):
        hypothesis = pytest.importorskip("hypothesis")
        from hypothesis import given, settings, strategies as st

        stacks = st.dictionaries(
            st.text(alphabet="abcxyz;", min_size=1, max_size=12),
            st.integers(min_value=1, max_value=10 ** 6), max_size=6)
        profiles = st.lists(st.builds(
            lambda s, pid, role: Profile(
                s, samples=sum(s.values()), duration_s=0.0, hz=1.0,
                pid=pid, role=role),
            stacks, st.integers(min_value=1, max_value=5),
            st.sampled_from(["serve", "shard0", "shard1"])), max_size=5)

        @settings(deadline=None, max_examples=50)
        @given(profiles=profiles)
        def check(profiles):
            merged = merge_profiles(profiles)
            reversed_merge = merge_profiles(list(reversed(profiles)))
            # count conservation: merged total == sum of inputs
            assert merged.samples == sum(p.samples for p in profiles)
            assert sum(merged.stacks.values()) == \
                sum(sum(p.stacks.values()) for p in profiles)
            # order independence
            assert merged.stacks == reversed_merge.stacks
            assert merged.samples == reversed_merge.samples

        check()


class TestWindow:
    def test_window_subtracts_matched_processes(self):
        base = [Profile({"t;a": 5, "t;b": 1}, 6, 1.0, 50.0, 1, "serve")]
        current = [Profile({"t;a": 8, "t;b": 1}, 9, 2.0, 50.0, 1, "serve"),
                   Profile({"t;c": 4}, 4, 0.5, 50.0, 2, "shard0")]
        deltas = window_profiles(base, current)
        by_role = {p.role: p for p in deltas}
        # matched (role, pid): only growth survives
        assert by_role["serve"].stacks == {"t;a": 3}
        assert by_role["serve"].samples == 3
        # spawned mid-window: kept whole
        assert by_role["shard0"].stacks == {"t;c": 4}

    def test_dead_process_dropped_and_subtract_clamps(self):
        base = [Profile({"t;a": 5}, 5, 1.0, 50.0, 1, "serve"),
                Profile({"t;z": 9}, 9, 1.0, 50.0, 7, "shard0")]
        current = [Profile({"t;a": 4}, 4, 0.5, 50.0, 1, "serve")]
        deltas = window_profiles(base, current)
        assert len(deltas) == 1  # shard0 died mid-window
        assert deltas[0].stacks == {}  # counts never go negative
        assert deltas[0].samples == 0


class TestExporters:
    def test_folded_output_sorted_and_parseable(self):
        profile = Profile({"main;b;c": 2, "main;a": 7}, 9, 1.0, 50.0,
                          1, "t")
        lines = to_folded(profile).splitlines()
        assert lines == ["main;a 7", "main;b;c 2"]

    def test_speedscope_schema_and_weights(self):
        profile = Profile({"main;f;g": 3, "main;f": 2}, 5, 1.0, 50.0,
                          1, "t")
        doc = to_speedscope(profile)
        assert doc["$schema"].startswith("https://www.speedscope.app")
        [sampled] = doc["profiles"]
        assert sampled["type"] == "sampled"
        assert sampled["endValue"] == sum(sampled["weights"]) == 5
        frames = doc["shared"]["frames"]
        names = [f["name"] for f in frames]
        assert set(names) == {"main", "f", "g"}
        # every sample row indexes into the shared frame table
        for row in sampled["samples"]:
            assert all(0 <= index < len(frames) for index in row)
        # round-trip one stack through the indices
        decoded = {";".join(names[i] for i in row): w
                   for row, w in zip(sampled["samples"],
                                     sampled["weights"])}
        assert decoded == profile.stacks

    def test_profile_dict_round_trip(self):
        profile = Profile({"main;f": 3}, 3, 1.25, 67.0, 42, "serve",
                          0.01)
        clone = Profile.from_dict(
            json.loads(json.dumps(profile.to_dict())))
        assert clone == profile

    def test_load_profile_payload_both_shapes(self, tmp_path):
        profile = Profile({"main;f": 3}, 3, 1.0, 50.0, 1, "serve")
        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps(profile.to_dict()))
        loaded, ops = load_profile_payload(bare)
        assert loaded == profile and ops == {}
        full = tmp_path / "full.json"
        full.write_text(json.dumps({
            "merged": profile.to_dict(),
            "plan_ops": {"project": 1.5, "finalize": 0.5}}))
        loaded, ops = load_profile_payload(full)
        assert loaded == profile
        assert ops == {"project": 1.5, "finalize": 0.5}
        junk = tmp_path / "junk.json"
        junk.write_text(json.dumps({"hello": 1}))
        with pytest.raises(ValueError):
            load_profile_payload(junk)


class TestAttribution:
    def test_self_time_shares_use_leaf_frames(self):
        profile = Profile({"main;outer;hot": 6, "main;outer": 2,
                           "main;cold": 2}, 10, 1.0, 50.0, 1, "t")
        shares = self_time_shares(profile)
        assert shares == {"hot": 0.6, "outer": 0.2, "cold": 0.2}
        assert sum(shares.values()) == pytest.approx(1.0)

    def test_diff_orders_by_share_movement(self):
        base = Profile({"m;a;b": 50, "m;a;c": 50}, 100, 1.0, 50.0, 1, "t")
        latest = Profile({"m;a;b": 80, "m;a;c": 20}, 100, 1.0, 50.0,
                         1, "t")
        rows = diff_profiles(base, latest)
        assert rows[0]["frame"] == "b"  # ties break alphabetically
        assert rows[0]["delta_share"] == pytest.approx(0.3)
        assert rows[1]["frame"] == "c"
        assert rows[1]["delta_share"] == pytest.approx(-0.3)

    def test_uniform_slowdown_yields_flat_shares(self):
        """The design point of share-based attribution: scaling every
        count equally (a uniformly slower machine) moves nothing."""
        base = Profile({"m;a": 30, "m;b": 70}, 100, 1.0, 50.0, 1, "t")
        latest = Profile({"m;a": 90, "m;b": 210}, 300, 3.0, 50.0, 1, "t")
        for row in diff_profiles(base, latest):
            assert row["delta_share"] == pytest.approx(0.0)

    def test_plan_op_diff_normalises_to_shares(self):
        rows = diff_plan_ops(
            {"project": 1.0, "anchor": 1.0, "finalize": 2.0},
            {"project": 6.0, "anchor": 1.0, "finalize": 1.0})
        assert rows[0]["plan_op"] == "project"
        assert rows[0]["delta_share"] == pytest.approx(0.75 - 0.25)

    def test_format_diff_and_top_render_tables(self):
        base = Profile({"m;a": 1, "m;b": 3}, 4, 1.0, 50.0, 1, "t")
        latest = Profile({"m;a": 3, "m;b": 1}, 4, 1.0, 50.0, 1, "t")
        table = format_diff(diff_profiles(base, latest), title="frames")
        assert "frames" in table and "baseline" in table
        assert "pp" in table  # deltas are percentage points
        top = format_top(latest)
        assert "b" in top and "75.0%" in top
        assert format_diff([]) == "(no samples on either side)"
        assert "no samples" in format_top(Profile())

    def test_injected_slowdown_attributed_to_slowed_frame(self):
        """Acceptance: slow one stage of a two-stage workload down and
        the top positive share-delta riser must name that stage.

        Nothing here reads a clock to decide anything: a stage is a
        fixed count of loop iterations (so a loaded machine stretches
        both stages alike and the shares stand), and a run lasts until
        the sampler holds enough samples of the workload thread, however
        long that takes.  The rate is pinned (``min_hz`` = ``hz``): a
        pass that loses the GIL mid-walk costs milliseconds, and the
        overhead budget halved the rate down to 3 Hz, past the minute
        this test waits.  Samples land where the GIL changes hands, so
        they are not independent draws: at 150 of them the slowed
        stage's share spread from 0.69 to 0.87 around its 0.8, and the
        0.7 bound below failed about one run in twenty.
        """
        unit = 20_000  # iterations; about a millisecond

        def _stage_fast(units):
            for _ in range(units * unit):
                pass

        def _stage_slowed(units):
            for _ in range(units * unit):
                pass

        def workload_samples(profile):
            return sum(count for stack, count in profile.stacks.items()
                       if stack.startswith("workload;"))

        def _profiled_run(fast_units, slow_units, samples=600):
            stop = threading.Event()

            def work():
                while not stop.is_set():
                    _stage_fast(fast_units)
                    _stage_slowed(slow_units)

            worker = threading.Thread(target=work, name="workload")
            sampler = SamplingProfiler(hz=400, min_hz=400, role="bench")
            give_up = time.monotonic() + 60.0
            with sampler:
                worker.start()
                while workload_samples(sampler.snapshot()) < samples \
                        and time.monotonic() < give_up:
                    time.sleep(0.02)
                stop.set()
                worker.join()
            return sampler.snapshot()

        def share(profile, frame):
            return sum(count for stack, count in profile.stacks.items()
                       if stack.startswith("workload;")
                       and stack.endswith(frame)) / sum(
                count for stack, count in profile.stacks.items()
                if stack.startswith("workload;"))

        baseline = _profiled_run(2, 2)
        latest = _profiled_run(2, 8)  # inject a 4x slowdown
        assert workload_samples(baseline) >= 600 \
            and workload_samples(latest) >= 600
        riser = max(diff_profiles(baseline, latest, limit=50),
                    key=lambda row: row["delta_share"])
        assert "_stage_slowed" in riser["frame"], (
            f"slowdown attributed to {riser['frame']!r}:\n"
            + format_diff(diff_profiles(baseline, latest)))
        # of the workload thread's own samples the slowed stage held
        # about 1/2 and now holds about 4/5
        slowed = "_stage_slowed"
        before = share(baseline, slowed)
        after = share(latest, slowed)
        assert 0.3 < before < 0.7 < after, (before, after)


class TestMemoryHelpers:
    def test_own_rss_is_positive(self):
        assert process_rss_bytes() > 1024 * 1024  # a python process

    def test_unknown_pid_reports_zero(self):
        assert process_rss_bytes(2 ** 30) == 0

    def test_estimate_nbytes_ndarray_exact(self):
        array = np.zeros((4, 4), dtype=np.float64)
        assert estimate_nbytes(array) == array.nbytes == 128

    def test_estimate_nbytes_tensor_via_data(self):
        from repro.nn import Tensor
        tensor = Tensor(np.zeros((8,)))
        assert estimate_nbytes(tensor) == tensor.data.nbytes == 64

    def test_estimate_nbytes_containers_recurse(self):
        arrays = [np.zeros(16, dtype=np.float64) for _ in range(3)]
        assert estimate_nbytes(arrays) >= 3 * 128
        assert estimate_nbytes({"k": arrays[0]}) >= 128

    def test_cache_nbytes_reports_value_sizes(self):
        from repro.serve.cache import LruCache, TtlCache
        lru = LruCache(8)
        lru.put("a", np.zeros(32, dtype=np.float64))
        assert lru.nbytes() >= 256
        ttl = TtlCache(8, ttl=60.0)
        ttl.put("a", np.zeros(64, dtype=np.float64))
        assert ttl.nbytes() >= 512
