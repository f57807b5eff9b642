"""Multi-tier caches for the serving runtime.

Two tiers with different invalidation semantics:

* :class:`LruCache` — bounded, recency-evicted; used for query
  *embeddings*, which stay valid as long as the model weights do.
* :class:`TtlCache` — bounded and time-expired; used for *answer lists*,
  which a deployment may want to age out (the backing graph — and hence
  the exact-fallback answers — can change underneath a long-lived server).

Both are thread-safe and count hits/misses/evictions so the runtime can
surface cache effectiveness in its stats snapshot.  The clock is
injectable for deterministic TTL tests.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Any, Callable, Hashable

__all__ = ["LruCache", "TtlCache"]

_MISSING = object()


class LruCache:
    """Least-recently-used cache with hit/miss/eviction counters."""

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._data: OrderedDict[Hashable, Any] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: Hashable, default: Any = None) -> Any:
        with self._lock:
            value = self._data.get(key, _MISSING)
            if value is _MISSING:
                self.misses += 1
                return default
            self._data.move_to_end(key)
            self.hits += 1
            return value

    def get_many(self, keys: list) -> list:
        """:meth:`get` of each key in order, under one lock hold."""
        with self._lock:
            data, out = self._data, []
            for key in keys:
                value = data.get(key, _MISSING)
                if value is _MISSING:
                    self.misses += 1
                    out.append(None)
                else:
                    data.move_to_end(key)
                    self.hits += 1
                    out.append(value)
            return out

    def put(self, key: Hashable, value: Any) -> None:
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.capacity:
                self._data.popitem(last=False)
                self.evictions += 1

    def put_many(self, keys: list, value_of: Callable[[int], Any]) -> None:
        """``put(keys[i], value_of(i))`` for each ``i`` in order, under
        one lock hold — but ``value_of`` runs only for the puts whose
        entries survive the later ones: the entries, their order and
        the eviction count come out as the sequential puts leave them."""
        with self._lock:
            data = self._data
            placed: dict = {}  # key -> index of its last put
            for index, key in enumerate(keys):
                data[key] = _MISSING
                data.move_to_end(key)
                placed[key] = index
                while len(data) > self.capacity:
                    data.popitem(last=False)
                    self.evictions += 1
            try:
                for key, index in placed.items():
                    if key in data:
                        data[key] = value_of(index)
            except BaseException:
                for key in placed:
                    if data.get(key) is _MISSING:
                        del data[key]
                raise

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._data

    def clear(self) -> None:
        with self._lock:
            self._data.clear()

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {"hits": self.hits, "misses": self.misses,
                    "evictions": self.evictions, "size": len(self._data)}

    def nbytes(self) -> int:
        """Estimated resident bytes of cached values (``/debug/mem``)."""
        from ..obs.prof import estimate_nbytes
        with self._lock:
            values = list(self._data.values())
        return sum(estimate_nbytes(value) for value in values)


class TtlCache:
    """LRU cache whose entries additionally expire after ``ttl`` seconds."""

    def __init__(self, capacity: int, ttl: float,
                 clock: Callable[[], float] = time.monotonic):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if ttl <= 0:
            raise ValueError("ttl must be positive")
        self.capacity = capacity
        self.ttl = ttl
        self._clock = clock
        self._lock = threading.Lock()
        self._data: OrderedDict[Hashable, tuple[float, Any]] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.expirations = 0

    def get(self, key: Hashable, default: Any = None) -> Any:
        with self._lock:
            entry = self._data.get(key, _MISSING)
            if entry is _MISSING:
                self.misses += 1
                return default
            expires_at, value = entry
            if self._clock() >= expires_at:
                del self._data[key]
                self.expirations += 1
                self.misses += 1
                return default
            self._data.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key: Hashable, value: Any) -> None:
        self.put_many([(key, value)])

    def put_many(self, items: list) -> None:
        """``put`` of each ``(key, value)`` in order, under one lock
        hold and one clock read."""
        with self._lock:
            data = self._data
            expires_at = self._clock() + self.ttl
            for key, value in items:
                data[key] = (expires_at, value)
                data.move_to_end(key)
                while len(data) > self.capacity:
                    data.popitem(last=False)
                    self.evictions += 1

    def purge(self) -> int:
        """Drop every expired entry; returns how many were dropped."""
        with self._lock:
            now = self._clock()
            stale = [key for key, (expires_at, _) in self._data.items()
                     if now >= expires_at]
            for key in stale:
                del self._data[key]
            self.expirations += len(stale)
            return len(stale)

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def clear(self) -> None:
        with self._lock:
            self._data.clear()

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {"hits": self.hits, "misses": self.misses,
                    "evictions": self.evictions,
                    "expirations": self.expirations,
                    "size": len(self._data)}

    def nbytes(self) -> int:
        """Estimated resident bytes of cached values (``/debug/mem``)."""
        from ..obs.prof import estimate_nbytes
        with self._lock:
            values = [value for _, value in self._data.values()]
        return sum(estimate_nbytes(value) for value in values)
