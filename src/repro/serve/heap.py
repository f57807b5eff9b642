"""The serving heap: frozen while a runtime is open, its collections counted.

Everything a server builds before it serves — the graph, the model, the
ranked tables, the compiled-plan templates, the threads — lives as long
as the server does, yet the cyclic collector walks all of it on every
full pass: tens of thousands of containers, tens of milliseconds a pass,
for objects that can never be garbage while they serve.  So the first
:class:`~repro.serve.runtime.ServeRuntime` to open moves every tracked
object into the collector's permanent generation (:func:`gc.freeze`)
once it has built its tables, ranker and threads, and the last one to
close moves them back (:func:`gc.unfreeze`).  A full pass then walks
only what was allocated since.  A heap someone else froze is theirs:
the runtimes leave it as they found it.

No collection runs before the freeze: what a runtime is built from is
alive, and a closed runtime holds no reference cycle (its batcher, HTTP
server and committed records let go of it), so dropping one frees it
and its model without a collector pass.  A full pass here would cost
about 25 ms at the benchmark's heap — a fifth of a small runtime's
whole set-up — and found nothing to free (DESIGN.md §15).

A ``gc.callbacks`` hook, installed while any runtime is open, counts
collections and their pause per generation (:func:`totals`); each
runtime publishes the growth since it opened as ``gc_collections`` and
``gc_pause_ms`` (labelled ``generation``) in ``stats()`` and
``/metrics``.
"""

from __future__ import annotations

import gc
import threading
import time

__all__ = ["hold", "release", "totals"]

_lock = threading.Lock()
#: runtimes open in this process
_holders = 0
#: whether the first of them froze the heap (so the last unfreezes it)
_froze = False
#: per generation: collections seen, and their pause seconds
_collections = [0, 0, 0]
_pause_s = [0.0, 0.0, 0.0]
_started = [0.0]


def _on_gc(phase: str, info: dict) -> None:
    # Runs inside the collector, with no lock of ours to take: a
    # collection can start on any allocation, including one made while
    # this thread holds a metrics lock.  The collector runs one
    # collection at a time, so start and stop alternate.
    if phase == "start":
        _started[0] = time.perf_counter()
    else:
        generation = info["generation"]
        _collections[generation] += 1
        _pause_s[generation] += time.perf_counter() - _started[0]


def hold() -> None:
    """A runtime opens: the first one freezes the heap (unless it is
    frozen already) and hooks the collector."""
    global _holders, _froze
    with _lock:
        _holders += 1
        if _holders > 1:
            return
        gc.callbacks.append(_on_gc)
        _froze = gc.get_freeze_count() == 0
        if _froze:
            gc.freeze()


def release() -> None:
    """A runtime closes: the last one undoes what the first one did."""
    global _holders, _froze
    with _lock:
        _holders -= 1
        if _holders:
            return
        if _froze:
            gc.unfreeze()
            _froze = False
        gc.callbacks.remove(_on_gc)


def totals() -> tuple[list[int], list[float]]:
    """Collections and pause seconds per generation, counted while any
    runtime was open (copies)."""
    return list(_collections), list(_pause_s)
