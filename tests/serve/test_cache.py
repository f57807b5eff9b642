"""LRU and TTL cache tier behaviour."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.serve import LruCache, TtlCache


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestLruCache:
    def test_validation(self):
        with pytest.raises(ValueError):
            LruCache(0)

    def test_hit_and_miss_counters(self):
        cache = LruCache(4)
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.stats() == {"hits": 1, "misses": 1, "evictions": 0,
                                 "size": 1}

    def test_eviction_is_least_recently_used(self):
        cache = LruCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")          # refresh a; b is now the LRU entry
        cache.put("c", 3)
        assert "a" in cache and "c" in cache
        assert "b" not in cache
        assert cache.stats()["evictions"] == 1

    def test_put_overwrites(self):
        cache = LruCache(2)
        cache.put("a", 1)
        cache.put("a", 2)
        assert cache.get("a") == 2
        assert len(cache) == 1

    @settings(max_examples=200, deadline=None)
    @given(capacity=st.integers(1, 5),
           before=st.lists(st.integers(0, 6), max_size=6),
           keys=st.lists(st.integers(0, 6), max_size=12))
    def test_put_many_is_sequential_puts(self, capacity, before, keys):
        """Entries, their order and every counter come out as the
        sequential puts leave them; only surviving rows are built."""
        one, many = LruCache(capacity), LruCache(capacity)
        for cache in (one, many):
            for key in before:
                cache.put(key, ("old", key))
            cache.get(0)
        for index, key in enumerate(keys):
            one.put(key, ("new", index))
        built = []

        def value_of(index):
            built.append(index)
            return ("new", index)

        many.put_many(keys, value_of)
        assert list(many._data.items()) == list(one._data.items())
        assert many.stats() == one.stats()
        survivors = {value for value in one._data.values()
                     if value[0] == "new"}
        assert sorted(built) == sorted(index for _, index in survivors)

    def test_a_one_entry_tier_builds_one_row_a_batch(self):
        cache = LruCache(1)
        built = []
        cache.put_many([f"q{i}" for i in range(64)],
                       lambda index: built.append(index) or index)
        assert built == [63]
        assert list(cache._data.items()) == [("q63", 63)]
        assert cache.stats()["evictions"] == 63

    def test_get_many_is_sequential_gets(self):
        cache = LruCache(3)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get_many(["b", "x", "a", "b"]) == [2, None, 1, 2]
        assert list(cache._data) == ["a", "b"]
        assert cache.stats() == {"hits": 3, "misses": 1, "evictions": 0,
                                 "size": 2}


class TestTtlCache:
    def test_validation(self):
        with pytest.raises(ValueError):
            TtlCache(0, ttl=1.0)
        with pytest.raises(ValueError):
            TtlCache(4, ttl=0.0)

    def test_entry_expires_after_ttl(self):
        clock = FakeClock()
        cache = TtlCache(8, ttl=10.0, clock=clock)
        cache.put("a", [1, 2])
        assert cache.get("a") == [1, 2]
        clock.advance(9.9)
        assert cache.get("a") == [1, 2]
        clock.advance(0.2)
        assert cache.get("a") is None
        assert cache.stats()["expirations"] == 1

    def test_put_refreshes_ttl(self):
        clock = FakeClock()
        cache = TtlCache(8, ttl=10.0, clock=clock)
        cache.put("a", 1)
        clock.advance(8.0)
        cache.put("a", 2)
        clock.advance(8.0)
        assert cache.get("a") == 2

    def test_purge_drops_only_expired(self):
        clock = FakeClock()
        cache = TtlCache(8, ttl=10.0, clock=clock)
        cache.put("old", 1)
        clock.advance(11.0)
        cache.put("new", 2)
        assert cache.purge() == 1
        assert len(cache) == 1
        assert cache.get("new") == 2

    def test_capacity_eviction(self):
        clock = FakeClock()
        cache = TtlCache(2, ttl=100.0, clock=clock)
        for key in ("a", "b", "c"):
            cache.put(key, key)
        assert len(cache) == 2
        assert cache.stats()["evictions"] == 1
