"""Per-module forward timing for ``repro.nn`` (training telemetry).

:class:`ModuleTimer` is a context manager that, while installed, hooks
:meth:`Module.__call__` (via :func:`repro.nn.modules.set_call_hook`) and
accumulates per-module-class forward total/self time — the
per-operator-network cost of a HaLk forward pass that the trainer's
telemetry reports per epoch.  The hook is removed on exit, so a process
that never enters a timer pays one global read per module call; nesting
timers is rejected.  It rebinds nothing: no ``Tensor`` method and no
``repro.nn.functional`` attribute is ever replaced, so timed and untimed
runs execute the same code and produce identical outputs.

Per-*op* cost (forward and backward) is attributed without
instrumentation: ``plan_stage_seconds{kind}`` accounts compiled-plan op
kinds and the always-on :class:`~repro.obs.prof.SamplingProfiler` sees
every frame, backward closures included.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from ..nn import modules

__all__ = ["ModuleStat", "ModuleTimer"]


@dataclass
class ModuleStat:
    """Accumulated forward cost of one Module subclass."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class _Frame:
    __slots__ = ("name", "child_s")

    def __init__(self, name: str):
        self.name = name
        self.child_s = 0.0


class ModuleTimer:
    """Per-module-class forward timing (used by training telemetry)."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._lock = threading.Lock()
        self._local = threading.local()
        self._installed = False
        self.module_stats: dict[str, ModuleStat] = {}

    def _module_stack(self) -> list[_Frame]:
        stack = getattr(self._local, "modules", None)
        if stack is None:
            stack = self._local.modules = []
        return stack

    def _module_hook(self, module, args, kwargs):
        stack = self._module_stack()
        frame = _Frame(type(module).__name__)
        stack.append(frame)
        start = self._clock()
        try:
            return module.forward(*args, **kwargs)
        finally:
            elapsed = self._clock() - start
            stack.pop()
            if stack:
                stack[-1].child_s += elapsed
            if self._installed:
                with self._lock:
                    stat = self.module_stats.setdefault(frame.name,
                                                        ModuleStat())
                    stat.calls += 1
                    stat.total_s += elapsed
                    stat.self_s += elapsed - frame.child_s

    def __enter__(self) -> "ModuleTimer":
        if modules.get_call_hook() is not None:
            raise RuntimeError("a Module call hook is already installed; "
                               "module timers cannot be nested")
        # bind once: ``self._module_hook`` yields a fresh bound-method
        # object per access, which would defeat the identity check below
        self._bound_hook = self._module_hook
        modules.set_call_hook(self._bound_hook)
        self._installed = True
        return self

    def __exit__(self, *exc_info) -> None:
        self._installed = False
        if modules.get_call_hook() is getattr(self, "_bound_hook", None):
            modules.set_call_hook(None)

    def seconds_by_module(self, self_time: bool = True) -> dict[str, float]:
        """Per-class seconds, self time by default (children excluded)."""
        with self._lock:
            return {name: (s.self_s if self_time else s.total_s)
                    for name, s in sorted(self.module_stats.items())}
