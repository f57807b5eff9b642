"""Training telemetry: a callback/event API for the trainer.

The trainer publishes structured events instead of printing:
:class:`EpochStats` carries per-epoch loss, gradient norm, wall-clock,
throughput, and per-operator-network forward time (measured with
:class:`~repro.obs.profiler.ModuleTimer`).  Sinks implement
:class:`TrainerCallback`; bundled sinks:

* :class:`ConsoleLogger` — the classic ``epoch k/N loss x`` line;
* :class:`JsonlTelemetry` — JSON-Lines event stream
  (``cli train --telemetry out.jsonl``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .export import JsonlWriter

__all__ = [
    "EpochStats", "TrainerCallback", "CallbackList", "ConsoleLogger",
    "JsonlTelemetry",
]


@dataclass
class EpochStats:
    """Everything the trainer measured about one epoch."""

    epoch: int                #: 1-based epoch number
    epochs: int               #: configured total
    loss: float               #: mean batch loss
    grad_norm: float          #: mean global gradient L2 norm over steps
    seconds: float            #: epoch wall-clock
    samples: int              #: queries processed
    steps: int                #: optimisation steps
    #: per-Module-class forward seconds (self time), e.g.
    #: ``{"ProjectionOperator": 0.12, "MLP": 0.05, ...}``.  ``MLP`` is a
    #: leaf here: its forward is one fused block, so its ``Linear``
    #: layers are never called and get no row of their own.
    operator_seconds: dict[str, float] = field(default_factory=dict)

    @property
    def samples_per_sec(self) -> float:
        return self.samples / self.seconds if self.seconds > 0 else 0.0


class TrainerCallback:
    """Base class: override any subset of the event methods."""

    def on_train_begin(self, trainer) -> None:
        pass

    def on_epoch_end(self, trainer, stats: EpochStats) -> None:
        pass

    def on_train_end(self, trainer, history) -> None:
        pass

    def close(self) -> None:
        pass


class CallbackList(TrainerCallback):
    """Fans events out to several callbacks (order preserved)."""

    def __init__(self, callbacks=()):
        self.callbacks: list[TrainerCallback] = list(callbacks)

    def __len__(self) -> int:
        return len(self.callbacks)

    def on_train_begin(self, trainer) -> None:
        for callback in self.callbacks:
            callback.on_train_begin(trainer)

    def on_epoch_end(self, trainer, stats: EpochStats) -> None:
        for callback in self.callbacks:
            callback.on_epoch_end(trainer, stats)

    def on_train_end(self, trainer, history) -> None:
        for callback in self.callbacks:
            callback.on_train_end(trainer, history)

    def close(self) -> None:
        for callback in self.callbacks:
            callback.close()


class ConsoleLogger(TrainerCallback):
    """Prints an epoch line every ``log_every`` epochs (the legacy
    ``trainer.print`` behaviour, now routed through the event API)."""

    def __init__(self, log_every: int = 1, stream=None):
        self.log_every = max(1, int(log_every))
        self.stream = stream

    def on_epoch_end(self, trainer, stats: EpochStats) -> None:
        if stats.epoch % self.log_every:
            return
        print(f"[{trainer.model.name}] epoch {stats.epoch}/{stats.epochs} "
              f"loss {stats.loss:.4f}", file=self.stream)


class JsonlTelemetry(TrainerCallback):
    """Streams training events to a JSON-Lines file.

    Event types: ``train_begin`` (model/config summary), ``epoch`` (one
    :class:`EpochStats`), ``train_end`` (final loss + totals).
    """

    def __init__(self, path_or_handle, clock=time.time):
        self._writer = JsonlWriter(path_or_handle)
        self._clock = clock

    def on_train_begin(self, trainer) -> None:
        self._writer.write({
            "event": "train_begin", "time": self._clock(),
            "model": trainer.model.name,
            "num_parameters": trainer.model.num_parameters(),
            "epochs": trainer.config.epochs,
            "batch_size": trainer.config.batch_size,
            "num_negatives": trainer.config.num_negatives,
            "learning_rate": trainer.config.learning_rate,
        })

    def on_epoch_end(self, trainer, stats: EpochStats) -> None:
        self._writer.write({
            "event": "epoch", "time": self._clock(),
            "epoch": stats.epoch, "epochs": stats.epochs,
            "loss": stats.loss, "grad_norm": stats.grad_norm,
            "seconds": stats.seconds, "samples": stats.samples,
            "steps": stats.steps,
            "samples_per_sec": stats.samples_per_sec,
            "operator_seconds": stats.operator_seconds,
        })

    def on_train_end(self, trainer, history) -> None:
        self._writer.write({
            "event": "train_end", "time": self._clock(),
            "final_loss": history.final_loss,
            "epochs": len(history.epoch_losses),
            "seconds": history.seconds,
        })

    def close(self) -> None:
        self._writer.close()

