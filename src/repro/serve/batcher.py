"""Request queue and micro-batcher.

Concurrent ``answer()`` calls land here as :class:`ServeRequest` objects.
The batcher thread coalesces them, in arrival order and whatever their
query structures (the plan compiler executes mixed batches and needs
them for cross-query CSE), into batches it hands to a dispatch callable.
A batch is flushed when it reaches ``max_batch_size`` or when
``flush_timeout`` elapses after its first request arrived, so a lone
request never waits longer than the flush window.

The batcher knows nothing about models or caches; the runtime supplies
the dispatch function.  This keeps the queueing logic independently
testable.
"""

from __future__ import annotations

import logging
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

__all__ = ["ServeFuture", "ServeRequest", "MicroBatcher"]

_LOGGER = logging.getLogger("repro.serve")


class ServeFuture:
    """Write-once result slot handed back to the caller at submit time."""

    def __init__(self):
        self._event = threading.Event()
        self._result: Any = None
        self._error: BaseException | None = None
        self._lock = threading.Lock()
        self._callbacks: list[Callable[["ServeFuture"], None]] = []

    def set_result(self, result: Any) -> None:
        self._result = result
        self._fire()

    def set_exception(self, error: BaseException) -> None:
        self._error = error
        self._fire()

    def _fire(self) -> None:
        with self._lock:
            self._event.set()
            callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            self._call(callback)

    def _call(self, callback: Callable[["ServeFuture"], None]) -> None:
        # A callback's failure is the callback's: logged, as
        # concurrent.futures does.  Let it unwind and it lands in
        # whoever resolved the future — the runtime's batch executor,
        # which would count a model failure and run the batch again.
        try:
            callback(self)
        except Exception:
            _LOGGER.exception("exception calling callback for %r", self)

    def add_done_callback(self,
                          callback: Callable[["ServeFuture"], None]) -> None:
        """Run ``callback(self)`` once resolved (immediately if done).

        Callbacks run on whichever thread resolves the future (or the
        registering thread when already done), with none of the
        future's locks held — the gateway's completion path runs here
        and submits the next queued request from inside it.  They must
        not block on work that needs the resolving thread back.  An
        exception a callback raises is logged (``repro.serve``) and
        goes no further; the callbacks after it still run.
        """
        with self._lock:
            if not self._event.is_set():
                self._callbacks.append(callback)
                return
        self._call(callback)

    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: float | None = None) -> Any:
        if not self._event.wait(timeout):
            raise TimeoutError("serve request did not complete in time")
        if self._error is not None:
            raise self._error
        return self._result


@dataclass
class ServeRequest:
    """One in-flight query (already canonicalised by the runtime)."""

    query: Any
    top_k: int
    cache_key: str
    future: ServeFuture = field(default_factory=ServeFuture)
    #: absolute deadline on the runtime clock, or None
    deadline: float | None = None
    enqueued_at: float = 0.0


class MicroBatcher:
    """Coalesces requests into arrival-ordered batches.

    Parameters
    ----------
    dispatch:
        Called with each flushed batch (``list[ServeRequest]``) from the
        batcher thread; must be quick (e.g. submit to a worker pool).
    max_batch_size:
        Flush as soon as this many requests are queued.
    flush_timeout:
        Seconds to wait for stragglers once a batch is open.
    depth_callback:
        Optional ``callable(int)`` observing queue depth on every change.
    """

    def __init__(self, dispatch: Callable[[list[ServeRequest]], None],
                 max_batch_size: int = 64, flush_timeout: float = 0.005,
                 depth_callback: Optional[Callable[[int], None]] = None,
                 clock: Callable[[], float] = time.monotonic):
        if max_batch_size <= 0:
            raise ValueError("max_batch_size must be positive")
        if flush_timeout < 0:
            raise ValueError("flush_timeout must be non-negative")
        self._dispatch = dispatch
        self.max_batch_size = max_batch_size
        self.flush_timeout = flush_timeout
        self._depth_callback = depth_callback
        self._clock = clock
        self._lock = threading.Lock()
        self._nonempty = threading.Condition(self._lock)
        self._queue: deque[ServeRequest] = deque()
        self._closed = False
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="serve-batcher")

    # ------------------------------------------------------------------
    def start(self) -> "MicroBatcher":
        self._thread.start()
        return self

    def submit(self, request: ServeRequest) -> None:
        with self._nonempty:
            if self._closed:
                raise RuntimeError("batcher is closed")
            request.enqueued_at = self._clock()
            self._queue.append(request)
            self._observe_depth()
            self._nonempty.notify()

    def close(self) -> None:
        """Stop accepting requests; drain what is queued, then join."""
        with self._nonempty:
            if self._closed:
                return
            self._closed = True
            self._nonempty.notify_all()
        if self._thread.is_alive():
            self._thread.join()

    @property
    def depth(self) -> int:
        with self._lock:
            return len(self._queue)

    # ------------------------------------------------------------------
    def _observe_depth(self) -> None:
        if self._depth_callback is not None:
            self._depth_callback(len(self._queue))

    def _run(self) -> None:
        while True:
            batch = self._next_batch()
            if batch is None:
                return
            self._dispatch(batch)

    def _next_batch(self) -> list[ServeRequest] | None:
        with self._nonempty:
            while not self._queue and not self._closed:
                self._nonempty.wait()
            if not self._queue:
                return None  # closed and drained
            # Wait out the flush window for stragglers unless the batch
            # fills up (or we are draining).
            flush_at = self._clock() + self.flush_timeout
            while (not self._closed
                   and len(self._queue) < self.max_batch_size):
                remaining = flush_at - self._clock()
                if remaining <= 0:
                    break
                self._nonempty.wait(remaining)
            batch = [self._queue.popleft() for _ in
                     range(min(len(self._queue), self.max_batch_size))]
            self._observe_depth()
            return batch
