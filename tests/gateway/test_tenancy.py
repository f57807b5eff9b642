"""Token buckets, tenant specs, and the fair scheduler — no runtime.

Everything here is clock-injected and loop-free, so these tests are
deterministic and sleep-free.
"""

import math

import pytest

from repro.gateway import (FairScheduler, TenantConfig, TokenBucket,
                           load_tenant_configs, parse_tenant_spec)
from repro.serve import Lane, ServeRequest

from .conftest import ManualClock

pytestmark = pytest.mark.gateway


def _entry(tenant: str, priority: str = "interactive", tag=None,
           weight: float = 1.0):
    return ServeRequest(query=tag, top_k=1, cache_key=str(tag),
                        lane=Lane(tenant, priority, weight))


class TestTokenBucket:
    def test_burst_then_refill(self):
        clock = ManualClock()
        bucket = TokenBucket(rate=10.0, burst=3, clock=clock)
        assert all(bucket.try_acquire() for _ in range(3))
        assert not bucket.try_acquire()
        clock.advance(0.1)  # one token refilled at 10/s
        assert bucket.try_acquire()
        assert not bucket.try_acquire()

    def test_retry_after_is_time_to_one_token(self):
        clock = ManualClock()
        bucket = TokenBucket(rate=4.0, burst=1, clock=clock)
        assert bucket.try_acquire()
        assert bucket.retry_after() == pytest.approx(0.25)
        clock.advance(0.1)
        assert bucket.retry_after() == pytest.approx(0.15)
        assert bucket.tokens == pytest.approx(0.4)

    def test_tokens_cap_at_burst(self):
        clock = ManualClock()
        bucket = TokenBucket(rate=100.0, burst=5, clock=clock)
        clock.advance(60.0)
        assert bucket.tokens == 5.0

    def test_unlimited_rate_never_exhausts(self):
        bucket = TokenBucket(rate=math.inf, burst=2, clock=ManualClock())
        assert all(bucket.try_acquire() for _ in range(100))
        assert bucket.retry_after() == 0.0

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, burst=1)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=0)


class TestTenantSpec:
    def test_full_spec(self):
        config = parse_tenant_spec("paid:500:1000:8:64")
        assert config == TenantConfig("paid", rate=500.0, burst=1000,
                                      weight=8.0, max_queue=64)

    def test_defaults_and_empty_fields(self):
        assert parse_tenant_spec("free") == TenantConfig("free")
        config = parse_tenant_spec("free:::4")
        assert config.weight == 4.0
        assert config.rate == math.inf  # untouched default

    def test_inf_rate(self):
        assert parse_tenant_spec("x:inf").rate == math.inf

    def test_malformed_specs_raise(self):
        with pytest.raises(ValueError, match="spec"):
            parse_tenant_spec("a:b:c")
        with pytest.raises(ValueError):
            parse_tenant_spec("a:1:2:3:4:5")
        with pytest.raises(ValueError):
            parse_tenant_spec("")  # empty name

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TenantConfig("x", rate=-1)
        with pytest.raises(ValueError):
            TenantConfig("x", weight=0)
        with pytest.raises(ValueError):
            TenantConfig("x", max_queue=0)

    def test_load_tenant_file(self, tmp_path):
        path = tmp_path / "tenants.json"
        path.write_text('[{"name": "free", "rate": 50},'
                        ' {"name": "paid", "rate": 500, "weight": 8}]')
        free, paid = load_tenant_configs(path)
        assert free.rate == 50.0 and free.weight == 1.0
        assert paid.weight == 8.0

    def test_load_rejects_unknown_keys(self, tmp_path):
        path = tmp_path / "tenants.json"
        path.write_text('[{"name": "x", "colour": "red"}]')
        with pytest.raises(ValueError, match="unknown tenant keys"):
            load_tenant_configs(path)


class TestFairScheduler:
    def test_fifo_within_one_tenant(self):
        scheduler = FairScheduler()
        for index in range(3):
            scheduler.push(_entry("a", tag=index))
        assert [scheduler.pop().query for _ in range(3)] == [0, 1, 2]
        assert scheduler.pop() is None

    def test_weighted_shares_under_contention(self):
        """3:1 weights → ~3:1 service over any contended prefix."""
        scheduler = FairScheduler()
        for index in range(60):
            scheduler.push(_entry("heavy", tag=index, weight=3.0))
            scheduler.push(_entry("light", tag=index, weight=1.0))
        first40 = [scheduler.pop().lane.tenant for _ in range(40)]
        assert first40.count("heavy") == 30
        assert first40.count("light") == 10

    def test_idle_tenant_earns_no_credit(self):
        """A long-idle lane rejoins at current vtime, it cannot burst."""
        scheduler = FairScheduler()
        for index in range(20):
            scheduler.push(_entry("busy", tag=index))
        for _ in range(10):  # busy advances the band's virtual time
            scheduler.pop()
        scheduler.push(_entry("returning", tag="r0"))
        scheduler.push(_entry("returning", tag="r1"))
        served = [scheduler.pop().lane.tenant for _ in range(4)]
        # equal weights: the returning lane alternates, never drains
        # both of its requests before busy gets another turn
        assert served.count("returning") <= 2
        assert served[0] in ("busy", "returning")

    def test_interactive_strictly_before_batch(self):
        scheduler = FairScheduler()
        for index in range(5):
            scheduler.push(_entry("bulk", priority="batch", tag=index,
                                  weight=100.0))
        scheduler.push(_entry("ui", priority="interactive", tag="i"))
        assert scheduler.pop().lane.priority == "interactive"
        assert scheduler.pop().lane.priority == "batch"

    def test_unknown_priority_rejected(self):
        """A lane names its band: there is no lane for an unknown one."""
        with pytest.raises(ValueError, match="priority"):
            _entry("a", priority="turbo")

    def test_depth_accounting_and_drain(self):
        scheduler = FairScheduler()
        scheduler.push(_entry("a"))
        scheduler.push(_entry("a", priority="batch"))
        scheduler.push(_entry("b"))
        assert len(scheduler) == 3
        assert scheduler.depth("a") == 2
        assert scheduler.depth("missing") == 0
        while scheduler.pop() is not None:  # workers drain by popping
            pass
        assert len(scheduler) == 0 and scheduler.depth("a") == 0
