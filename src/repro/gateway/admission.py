"""Admission queues: priority bands + start-time fair queuing.

The gateway's waiting room.  Two strict priority bands (``interactive``
drains before ``batch`` — an interactive request never waits behind
offline bulk traffic), and *within* a band a start-time fair queue (SFQ,
the virtual-time scheme of Goyal et al.) across tenants: each tenant
carries a virtual start tag, the scheduler always serves the backlogged
tenant with the smallest tag, and serving advances the tag by
``1 / weight`` — so over any contended interval tenant throughput is
proportional to configured weights, regardless of arrival pattern.

The scheduler is a plain data structure with no locking of its own: the
gateway calls every method under its one lock (``Gateway._lock``), from
whichever thread submits, completes or closes.  The depths are also
published through gauges, for readers that should not take that lock.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any

from .tenancy import PRIORITIES

__all__ = ["QueuedRequest", "FairScheduler"]


@dataclass
class QueuedRequest:
    """One admitted request waiting for dispatch."""

    query: Any
    top_k: int
    tenant: str
    priority: str
    #: absolute deadline on the gateway's monotonic clock, or None
    deadline: float | None
    future: Any
    admitted_at: float
    #: ``perf_counter`` instant of admission (the start of the
    #: ``gateway.queue`` stage)
    queued_at: float = 0.0
    #: the request's diagnostics (``repro.obs.diag.RequestContext``),
    #: minted at admission and finished in the gateway's completion
    #: funnel
    ctx: Any = None


@dataclass
class _TenantLane:
    """Per-(band, tenant) FIFO plus its fair-queuing start tag."""

    weight: float
    queue: deque = field(default_factory=deque)
    tag: float = 0.0


class FairScheduler:
    """Two priority bands of per-tenant SFQ lanes.

    ``push``/``pop`` are O(#backlogged tenants) per call — tenant counts
    are small (tens), request rates are what's large, so a heap would
    buy nothing over the linear minimum scan.
    """

    def __init__(self):
        self._bands: dict[str, dict[str, _TenantLane]] = \
            {band: {} for band in PRIORITIES}
        #: virtual time per band: the tag of the last lane served
        self._vtime: dict[str, float] = {band: 0.0 for band in PRIORITIES}
        self._depth = 0

    # ------------------------------------------------------------------
    def push(self, entry: QueuedRequest, weight: float = 1.0) -> None:
        if entry.priority not in self._bands:
            raise ValueError(f"unknown priority {entry.priority!r}; "
                             f"expected one of {PRIORITIES}")
        lanes = self._bands[entry.priority]
        lane = lanes.get(entry.tenant)
        if lane is None:
            lane = lanes[entry.tenant] = _TenantLane(weight=weight)
            lane.tag = self._vtime[entry.priority]
        if not lane.queue:
            # a lane going from idle to backlogged rejoins at the current
            # virtual time: its idle period earns no credit (otherwise a
            # long-idle tenant could burst ahead of everyone)
            lane.tag = max(lane.tag, self._vtime[entry.priority])
        lane.weight = weight
        lane.queue.append(entry)
        self._depth += 1

    def pop(self) -> QueuedRequest | None:
        """Next request by (priority band, then min virtual start tag)."""
        for band in PRIORITIES:
            lanes = self._bands[band]
            best: _TenantLane | None = None
            for lane in lanes.values():
                if lane.queue and (best is None or lane.tag < best.tag):
                    best = lane
            if best is None:
                continue
            entry = best.queue.popleft()
            self._vtime[band] = best.tag
            best.tag += 1.0 / best.weight
            self._depth -= 1
            return entry
        return None

    def drain(self) -> list[QueuedRequest]:
        """Remove and return everything still queued (shutdown path)."""
        drained: list[QueuedRequest] = []
        for lanes in self._bands.values():
            for lane in lanes.values():
                drained.extend(lane.queue)
                lane.queue.clear()
        self._depth = 0
        return drained

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._depth

    def depth(self, tenant: str) -> int:
        """Waiting requests of one tenant, across both bands."""
        return sum(len(lanes[tenant].queue)
                   for lanes in self._bands.values() if tenant in lanes)
