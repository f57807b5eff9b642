"""Multi-tenancy primitives: tenant configs and token buckets.

A *tenant* is a traffic class sharing one rate-limit bucket, one weight
among the fair lanes of the runtime's queue, and one bound on what it
may have waiting there — a customer, a product surface, or just
"interactive" vs "offline-batch" callers of the same deployment.
:class:`TenantConfig` is the declarative knob set (CLI
``--tenant name:rate:burst:weight`` specs and JSON tenant files parse
into it), :class:`TokenBucket` the classic leaky-bucket limiter the
admission layer consults per submit.

Buckets are clock-injectable (``time.monotonic`` by default) so rate
behaviour is testable without sleeping.
"""

from __future__ import annotations

import json
import math
import threading
import time
from dataclasses import dataclass
from typing import Callable

__all__ = ["TenantConfig", "TokenBucket", "parse_tenant_spec",
           "load_tenant_configs"]

@dataclass(frozen=True)
class TenantConfig:
    """Admission knobs of one tenant (all rates in requests/second)."""

    name: str
    #: sustained token-bucket refill rate; ``inf`` = unlimited
    rate: float = math.inf
    #: bucket capacity — the burst admitted after an idle period
    burst: int = 64
    #: share of service under contention (weighted fair queuing)
    weight: float = 1.0
    #: bounded queue: submits beyond this many waiting requests shed
    max_queue: int = 256

    def __post_init__(self):
        if not self.name:
            raise ValueError("tenant name must be non-empty")
        if self.rate <= 0:
            raise ValueError(f"tenant {self.name}: rate must be positive")
        if self.burst < 1:
            raise ValueError(f"tenant {self.name}: burst must be >= 1")
        if self.weight <= 0:
            raise ValueError(f"tenant {self.name}: weight must be positive")
        if self.max_queue < 1:
            raise ValueError(f"tenant {self.name}: max_queue must be >= 1")


class TokenBucket:
    """Thread-safe token bucket: ``burst`` capacity, ``rate`` refill/s.

    ``try_acquire`` never blocks — the gateway sheds instead of queueing
    rate-limited work (queueing it would defeat the limiter: the backlog
    would admit itself later, when the burst is over but the queue not).
    ``retry_after`` is the seconds until one token exists, the value the
    HTTP layer surfaces in a 429's ``Retry-After`` header.
    """

    def __init__(self, rate: float, burst: int,
                 clock: Callable[[], float] = time.monotonic):
        if rate <= 0:
            raise ValueError("rate must be positive")
        if burst < 1:
            raise ValueError("burst must be >= 1")
        self.rate = float(rate)
        self.burst = float(burst)
        self._clock = clock
        self._tokens = float(burst)
        self._refilled_at = clock()
        self._lock = threading.Lock()

    def _refill(self, now: float) -> None:
        if math.isinf(self.rate):
            self._tokens = self.burst
            return
        elapsed = max(0.0, now - self._refilled_at)
        self._tokens = min(self.burst, self._tokens + elapsed * self.rate)
        self._refilled_at = now

    def try_acquire(self, amount: float = 1.0) -> bool:
        with self._lock:
            self._refill(self._clock())
            if self._tokens >= amount:
                self._tokens -= amount
                return True
            return False

    def retry_after(self, amount: float = 1.0) -> float:
        """Seconds until ``amount`` tokens will be available (>= 0)."""
        with self._lock:
            self._refill(self._clock())
            missing = amount - self._tokens
            if missing <= 0:
                return 0.0
            if math.isinf(self.rate):  # pragma: no cover - inf refills full
                return 0.0
            return missing / self.rate

    @property
    def tokens(self) -> float:
        with self._lock:
            self._refill(self._clock())
            return self._tokens


def parse_tenant_spec(spec: str) -> TenantConfig:
    """``name[:rate[:burst[:weight[:max_queue]]]]`` → :class:`TenantConfig`.

    The CLI grammar: ``--tenant free:50:100:1 --tenant paid:500:1000:8``.
    Empty fields keep their defaults (``paid:::4`` sets only the weight);
    ``rate`` accepts ``inf``.
    """
    parts = spec.split(":")
    if len(parts) > 5:
        raise ValueError(f"tenant spec {spec!r}: expected "
                         f"name[:rate[:burst[:weight[:max_queue]]]]")
    name = parts[0]
    kwargs: dict = {}
    try:
        if len(parts) > 1 and parts[1]:
            kwargs["rate"] = float(parts[1])
        if len(parts) > 2 and parts[2]:
            kwargs["burst"] = int(parts[2])
        if len(parts) > 3 and parts[3]:
            kwargs["weight"] = float(parts[3])
        if len(parts) > 4 and parts[4]:
            kwargs["max_queue"] = int(parts[4])
    except ValueError as exc:
        raise ValueError(f"tenant spec {spec!r}: {exc}") from None
    return TenantConfig(name, **kwargs)


def load_tenant_configs(path) -> list[TenantConfig]:
    """Tenant configs from a JSON file: a list of TenantConfig dicts.

    Example file::

        [{"name": "free", "rate": 50, "burst": 100, "weight": 1},
         {"name": "paid", "rate": 500, "burst": 1000, "weight": 8}]
    """
    with open(path, "r", encoding="utf-8") as handle:
        raw = json.load(handle)
    if not isinstance(raw, list):
        raise ValueError(f"{path}: expected a JSON list of tenant objects")
    configs = []
    for entry in raw:
        if not isinstance(entry, dict) or "name" not in entry:
            raise ValueError(f"{path}: each tenant needs at least a name")
        allowed = {"name", "rate", "burst", "weight", "max_queue"}
        unknown = set(entry) - allowed
        if unknown:
            raise ValueError(f"{path}: unknown tenant keys {sorted(unknown)}")
        configs.append(TenantConfig(**entry))
    return configs
