"""Data-parallel training over the shard worker pool.

:class:`ShardedTrainer` is a drop-in :class:`repro.core.Trainer` whose
:meth:`step` splits each same-structure batch across K persistent worker
processes.  The all-reduce rides the same shared-memory channel the
sharded ranker uses:

* **parameter slab** — every model parameter flattened into one shared
  float64 buffer.  Both the master model (parent) and every worker
  replica rebind their ``Parameter.data`` to zero-copy views of it, so
  the optimizer's in-place ``param.data -=`` update *is* the broadcast:
  workers read the new weights on their next forward with no message.
* **gradient slab** — a ``(K, P)`` shared buffer; worker *k* writes the
  flattened gradient of its sub-batch-mean loss into row *k*, and the
  parent reduces rows with fixed sample-count weights
  (``Σ (b_k/B)·g_k``), which equals the full-batch gradient because the
  Eq. (17) loss is a per-query mean (see :func:`repro.core.trainer.batch_loss`).

The lock-step protocol (dispatch → workers compute → parent reduces +
steps) means no torn reads: workers only touch the slabs between
dispatch and reply, the parent only between reply and next dispatch.

Everything stateful lives in the parent — RNG, optimizers, epoch cursor,
history — so ``repro.ckpt`` checkpoints of a sharded run restore exactly
like single-process ones, and workers are *stateless* replicas seeded
from the model's ``state_dict`` values in the parameter slab: a worker
that dies is respawned by the pool, re-attaches the slab, and is
immediately current, even mid-epoch.

Numerics: sharded training is deterministic for a fixed K (fixed
reduction order) and mathematically equal to single-process training,
but not bit-for-bit equal across different K — float summation order
differs.  Tests pin the tolerance.  Equal includes *which* parameters a
step moves: a reply names the parameters its sub-batch gave a gradient,
and the parent leaves every other ``grad`` None, so Adam skips what the
batch's structure never touched exactly as it does for ``Trainer``.

Observability: a worker's reply carries the intervals of its forward
and backward passes, from which the pool records a ``worker.handle`` →
``worker.forward`` / ``worker.backward`` span tree in the parent trace
when ``repro.obs`` tracing is enabled (see :mod:`repro.dist.pool`), and
:meth:`TrainWorkerRole.record` counts ``train_worker_steps{worker=k}``
in the pool registry.
"""

from __future__ import annotations

import time

import numpy as np

from ..core.trainer import Trainer, batch_loss
from ..obs.trace import get_tracer
from .plan import SharedArray, SharedArraySpec, partition_rows
from .pool import ShardWorkerPool, WorkerRole

__all__ = ["ShardedTrainer", "TrainWorkerRole"]


def _param_layout(model) -> list[tuple[str, tuple[int, ...], int, int]]:
    """Deterministic (name, shape, offset, size) layout of the slab."""
    layout = []
    offset = 0
    for name, param in model.named_parameters():
        size = int(param.data.size)
        layout.append((name, tuple(param.data.shape), offset, size))
        offset += size
    return layout


def _param_spans(layout) -> dict[str, tuple[int, int]]:
    """``name -> (offset, size)`` of a :func:`_param_layout`."""
    return {name: (offset, size) for name, _, offset, size in layout}


def _bind_params(model, slab: np.ndarray, layout) -> None:
    """Rebind every parameter's storage to its slab view (zero-copy)."""
    named = dict(model.named_parameters())
    for name, shape, offset, size in layout:
        named[name].data = slab[offset:offset + size].reshape(shape)


class TrainWorkerRole(WorkerRole):
    """Worker: forward/backward a sub-batch, write grads to its row."""

    def __init__(self, model, params: SharedArraySpec,
                 grads: SharedArraySpec, row: int, layout,
                 loss_kwargs: dict):
        self.model = model
        self.params = params
        self.grads = grads
        self.row = row
        self.layout = layout
        self._spans = _param_spans(layout)
        self.loss_kwargs = loss_kwargs

    def setup(self):
        params = self.params.attach()
        grads = self.grads.attach()
        # the replica now *is* the master weights, also after respawn
        _bind_params(self.model, params.ndarray, self.layout)
        return params, grads

    def handle(self, state, payload):
        _, grads = state
        row = grads.ndarray[self.row]
        row[:] = 0.0
        sub = payload["batch"]
        if sub is None:  # more workers than batch rows this step
            return {"loss": 0.0, "count": 0, "touched": []}, None
        queries, positives, negatives = sub
        self.model.zero_grad()
        started = time.perf_counter()
        loss = batch_loss(self.model, queries, positives, negatives,
                          **self.loss_kwargs)
        forwarded = time.perf_counter()
        loss.backward()
        ended = time.perf_counter()
        # which parameters this structure reached goes back with the
        # reply: the rest must stay ``grad is None`` in the parent, as
        # they do in ``Trainer``, or Adam decays their moments and moves
        # them on a step that never touched them
        touched = []
        for name, param in self.model.named_parameters():
            if param.grad is not None:
                start, size = self._spans[name]
                row[start:start + size] = param.grad.reshape(-1)
                touched.append(name)
        return {"loss": float(loss.data), "count": len(queries),
                "touched": touched}, (started, forwarded, ended)

    def record(self, metrics, payload, measured) -> list:
        if measured is None:  # an idle worker stepped nothing
            return []
        started, forwarded, ended = measured
        row = self.row
        metrics.handles(("train_worker_steps", row),
                        lambda m: m.counter("train_worker_steps",
                                            worker=row)).inc()
        return [("worker.forward", started, forwarded,
                 {"worker": row, "rows": len(payload["batch"][0])}),
                ("worker.backward", forwarded, ended, {"worker": row})]

    def teardown(self, state) -> None:
        params, grads = state
        # detach the replica from shared storage before unmapping
        for _, param in self.model.named_parameters():
            param.data = param.data.copy()
        params.close()
        grads.close()


class ShardedTrainer(Trainer):
    """Trainer whose gradient pass fans out over worker processes.

    Parameters are those of :class:`~repro.core.Trainer` plus
    ``num_workers`` (data-parallel width).  The worker pool starts
    lazily on the first :meth:`step` and stops when :meth:`train`
    returns (or via :meth:`close` when stepping manually).
    """

    def __init__(self, model, workload, config=None, *,
                 num_workers: int = 2, gamma=None, xi=None,
                 callbacks=None):
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        super().__init__(model, workload, config, gamma=gamma, xi=xi,
                         callbacks=callbacks)
        self.num_workers = num_workers
        self._pool: ShardWorkerPool | None = None
        self._params: SharedArray | None = None
        self._grads: SharedArray | None = None
        self._layout = None

    # ------------------------------------------------------------------
    @property
    def respawns(self) -> int:
        """Worker processes transparently restarted so far."""
        return 0 if self._pool is None else self._pool.respawns

    def _loss_kwargs(self) -> dict:
        return {"gamma": self.gamma, "xi": self.xi,
                "size_regularization": self.config.size_regularization,
                "adversarial_temperature":
                    self.config.adversarial_temperature}

    def _ensure_pool(self) -> None:
        if self._pool is not None:
            return
        self._layout = _param_layout(self.model)
        total = sum(size for *_, size in self._layout)
        flat = np.empty(total, dtype=np.float64)
        spans = _param_spans(self._layout)
        for name, param in self.model.named_parameters():
            start, size = spans[name]
            flat[start:start + size] = param.data.reshape(-1)
        self._params = SharedArray.create(flat)
        self._grads = SharedArray.create(
            np.zeros((self.num_workers, total), dtype=np.float64))
        # master rebinds too: optimizer updates become the broadcast
        _bind_params(self.model, self._params.ndarray, self._layout)
        kwargs = self._loss_kwargs()
        roles = [TrainWorkerRole(self.model, self._params.spec,
                                 self._grads.spec, row, self._layout,
                                 kwargs)
                 for row in range(self.num_workers)]
        self._pool = ShardWorkerPool(roles)

    def close(self) -> None:
        """Stop workers, detach the master from shared storage."""
        if self._pool is None:
            return
        self._pool.close()
        self._pool = None
        # give the master private storage back before unlinking
        for _, param in self.model.named_parameters():
            param.data = param.data.copy()
        self._params.close()
        self._grads.close()
        self._params = self._grads = None

    def __enter__(self) -> "ShardedTrainer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def train(self):
        self._ensure_pool()
        try:
            return super().train()
        finally:
            self.close()

    # ------------------------------------------------------------------
    def step(self, batch) -> float:
        """One data-parallel optimisation step.

        Sampling (positives/negatives) happens in the parent with the
        same RNG draws as the single-process trainer, so resume
        determinism and the checkpointed RNG state behave identically.
        """
        self._ensure_pool()
        queries = [q.query for q in batch]
        positives = self._sample_positives(batch)
        negatives = self._sample_negatives(batch)

        payloads = []
        counts = []
        if len(batch) >= self.num_workers:
            ranges = partition_rows(len(batch), self.num_workers)
        else:  # fewer rows than workers: one row each, rest idle
            ranges = [slice(i, i + 1) if i < len(batch) else None
                      for i in range(self.num_workers)]
        for shard in ranges:
            if shard is None:
                payloads.append({"batch": None})
                counts.append(0)
                continue
            lo, hi = shard.start, shard.stop
            payloads.append({"batch": (queries[lo:hi], positives[lo:hi],
                                       negatives[lo:hi])})
            counts.append(hi - lo)

        for optimizer in self.optimizers:
            optimizer.zero_grad()
        with get_tracer().span("train.broadcast",
                               workers=self.num_workers):
            replies, _ = self._pool.broadcast(payloads)

        total = float(len(batch))
        weights = np.array([c / total for c in counts])
        grad = self._grads.ndarray.T @ weights  # Σ (b_k/B)·g_k
        touched = set().union(*(reply["touched"] for reply in replies))
        named = dict(self.model.named_parameters())
        for name, shape, offset, size in self._layout:
            if name in touched:  # a view: the optimizers only read it
                named[name].grad = grad[offset:offset + size].reshape(shape)
        loss_value = float(sum(w * r["loss"]
                               for w, r in zip(weights, replies)))
        self._record_grad_norm()
        for optimizer in self.optimizers:
            optimizer.step()
        return loss_value
