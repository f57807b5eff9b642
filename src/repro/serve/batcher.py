"""Request queue and micro-batcher: workers pull, nothing waits for a clock.

Concurrent ``answer()`` calls land here as :class:`ServeRequest` objects
on one FIFO, whatever their query structures (the plan compiler executes
mixed batches and needs them for cross-query CSE).  The batcher's worker
threads pull from it: a free worker takes whatever is queued — up to
``max_batch_size``, in arrival order — the moment anything is queued, so
a lone request on an idle runtime is a batch of one at once.  Requests
coalesce only while every worker is busy, which is exactly when batching
pays.  There is no flush window, no timer and no hand-off thread.

The batcher knows nothing about models or caches; the runtime supplies
the function a worker runs on each batch.  This keeps the queueing logic
independently testable.
"""

from __future__ import annotations

import logging
import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

__all__ = ["ServeFuture", "ServeRequest", "MicroBatcher"]

_LOGGER = logging.getLogger("repro.serve")


class ServeFuture:
    """Write-once result slot handed back to the caller at submit time.

    Waiters take turns on ``_latch``, a lock held until the future
    resolves: one lock per request, not an ``Event``'s two and a list."""

    #: every future's flag and callback list; held for a test or a swap
    _state_lock = threading.Lock()

    def __init__(self):
        self._latch = threading.Lock()
        self._latch.acquire()
        self._done = False
        self._result: Any = None
        self._error: BaseException | None = None
        self._callbacks: list[Callable[["ServeFuture"], None]] = []

    def set_result(self, result: Any) -> None:
        self._result = result
        self._fire()

    def set_exception(self, error: BaseException) -> None:
        self._error = error
        self._fire()

    def _fire(self) -> None:
        with self._state_lock:
            if self._done:
                return
            self._done = True
            callbacks, self._callbacks = self._callbacks, []
        self._latch.release()
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
        with self._state_lock:
            if not self._done:
                self._callbacks.append(callback)
                return
        self._call(callback)

    def done(self) -> bool:
        return self._done

    def result(self, timeout: float | None = None) -> Any:
        if not self._done:
            latch = self._latch
            if timeout is None:
                acquired = latch.acquire()
            elif timeout > 0:
                acquired = latch.acquire(True, timeout)
            else:
                acquired = latch.acquire(False)
            if acquired:
                latch.release()  # hand it on to the next waiter
            elif not self._done:  # else a waiter held it to hand it on
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


class MicroBatcher:
    """One FIFO and the worker threads that pull arrival-ordered batches.

    Parameters
    ----------
    execute:
        Called with each batch (``list[ServeRequest]``) on the worker
        thread that pulled it; it resolves the batch's futures.  Should
        it raise, the error is logged and set on every future of the
        batch it left unresolved — a request always gets an outcome and
        the worker lives on.
    max_batch_size:
        The most requests one pull takes.
    num_workers:
        Worker threads, i.e. batches in execution at once.
    depth_callback:
        Optional ``callable(int)`` observing queue depth on every change.
    """

    def __init__(self, execute: Callable[[list[ServeRequest]], None],
                 max_batch_size: int = 64, num_workers: int = 1,
                 depth_callback: Optional[Callable[[int], None]] = None):
        if max_batch_size <= 0:
            raise ValueError("max_batch_size must be positive")
        if num_workers <= 0:
            raise ValueError("num_workers must be positive")
        self._execute = execute
        self.max_batch_size = max_batch_size
        self._depth_callback = depth_callback
        self._lock = threading.Lock()
        self._nonempty = threading.Condition(self._lock)
        self._queue: deque[ServeRequest] = deque()
        self._closed = False
        self._workers = [
            threading.Thread(target=self._run, daemon=True,
                             name=f"serve-worker_{index}")
            for index in range(num_workers)]

    # ------------------------------------------------------------------
    def start(self) -> "MicroBatcher":
        for worker in self._workers:
            worker.start()
        return self

    def submit(self, *requests: ServeRequest) -> None:
        """Enqueue ``requests`` as one arrival: no worker can pull
        between two of them, so a bulk pass is cut into batches at
        ``max_batch_size`` by construction."""
        with self._nonempty:
            if self._closed:
                raise RuntimeError("batcher is closed")
            self._queue.extend(requests)
            self._observe_depth()
            # one waiter per batch the queue now holds is enough
            self._nonempty.notify(
                -(-len(self._queue) // self.max_batch_size))

    def close(self) -> None:
        """Stop accepting requests; the workers drain the queue, exit,
        and are joined."""
        with self._nonempty:
            self._closed = True
            self._nonempty.notify_all()
        for worker in self._workers:
            if worker.is_alive():
                worker.join()

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
            with self._nonempty:
                while not self._queue and not self._closed:
                    self._nonempty.wait()
                if not self._queue:
                    return  # closed and drained
                batch = [self._queue.popleft() for _ in
                         range(min(len(self._queue), self.max_batch_size))]
                self._observe_depth()
            try:
                self._execute(batch)
            except Exception as exc:
                _LOGGER.exception("batch of %d failed outside the model "
                                  "path", len(batch))
                for request in batch:
                    if not request.future.done():
                        request.future.set_exception(exc)
