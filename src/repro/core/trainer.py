"""Generic training loop (paper Algorithm 1).

Works with any :class:`~repro.core.model.QueryModel`: batches of
same-structure queries are embedded, one positive answer and ``m`` sampled
negatives per query are scored, and the Eq. (17) loss is optimised with
Adam.  Models that expose group signatures (HaLk) get the ξ margin term;
baselines simply skip it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..config import TrainConfig
from ..nn import Adam
from ..nn import modules as nn_modules
from ..obs.profiler import ModuleTimer
from ..obs.telemetry import CallbackList, ConsoleLogger, EpochStats
from ..queries.dataset import QueryWorkload, batches
from ..queries.sampler import GroundedQuery
from .loss import group_penalty, halk_loss
from .model import QueryModel

__all__ = ["Trainer", "TrainingHistory", "CurriculumPhase",
           "train_curriculum", "batch_loss"]


def batch_loss(model: QueryModel, queries, positives: np.ndarray,
               negatives: np.ndarray, *, gamma: float, xi: float,
               size_regularization: float,
               adversarial_temperature: float):
    """Eq. (17) loss of one same-structure batch (differentiable).

    Factored out of :meth:`Trainer.step` so the data-parallel
    ``repro.dist.ShardedTrainer`` workers compute *exactly* the loss the
    single-process trainer computes on their sub-batch: every per-query
    term is row-independent, so the full-batch loss is the sample-count
    weighted mean of sub-batch losses, and the full-batch gradient the
    matching weighted sum of sub-batch gradients.
    """
    embedding = model.embed_batch(queries)
    pos_dist = model.distance_to_entities(embedding, positives[:, None])[:, 0]
    neg_dist = model.distance_to_entities(embedding, negatives)

    pos_pen = neg_pen = None
    use_xi = 0.0
    signature = model.query_signature(embedding)
    if signature is not None and xi > 0:
        use_xi = xi
        pos_pen = group_penalty(
            model.entity_signatures(positives), signature)
        neg_pen = group_penalty(
            model.entity_signatures(negatives), signature[:, None, :])
    loss = halk_loss(pos_dist, neg_dist, gamma, use_xi, pos_pen, neg_pen,
                     adversarial_temperature)
    if size_regularization > 0:
        penalty = model.size_penalty(embedding)
        if penalty is not None:
            loss = loss + size_regularization * penalty
    return loss


@dataclass
class TrainingHistory:
    """Loss trace and timing of one training run."""

    losses: list[float] = field(default_factory=list)
    epoch_losses: list[float] = field(default_factory=list)
    #: wall-clock of each epoch (the Fig. 6b offline-time decomposition)
    epoch_seconds: list[float] = field(default_factory=list)
    seconds: float = 0.0

    @property
    def final_loss(self) -> float:
        return self.epoch_losses[-1] if self.epoch_losses else float("nan")


class Trainer:
    """Trains a query model on a workload of grounded queries.

    Parameters
    ----------
    model:
        Any :class:`QueryModel`.
    workload:
        Training queries (answers computed on the training graph).
    config:
        Loop hyper-parameters.
    gamma, xi:
        Loss margin and group-penalty weight.  Defaults are read from
        ``model.config`` when the model carries one.
    callbacks:
        Optional sequence of :class:`repro.obs.TrainerCallback` sinks
        receiving per-epoch :class:`~repro.obs.EpochStats` (loss,
        gradient norm, wall-clock, samples/sec, per-operator-network
        time).  ``config.log_every > 0`` implicitly appends a
        :class:`~repro.obs.ConsoleLogger` — the legacy epoch print line,
        now an ordinary callback.
    """

    def __init__(self, model: QueryModel, workload: QueryWorkload,
                 config: TrainConfig | None = None,
                 gamma: float | None = None, xi: float | None = None,
                 callbacks=None):
        self.model = model
        self.workload = workload
        self.config = config or TrainConfig()
        sinks = list(callbacks) if callbacks else []
        if self.config.log_every:
            sinks.append(ConsoleLogger(self.config.log_every))
        self.callbacks = CallbackList(sinks)
        self._collect_stats = False
        self._last_grad_norm = 0.0
        model_config = getattr(model, "config", None)
        self.gamma = gamma if gamma is not None else getattr(model_config,
                                                             "gamma", 9.0)
        self.xi = xi if xi is not None else getattr(model_config, "xi", 0.0)
        self.rng = np.random.default_rng(self.config.seed)
        #: cumulative run state; train() appends to it, so a trainer
        #: restored from a checkpoint continues the same history
        self.history = TrainingHistory()
        self._epochs_done = 0
        embedding_lr = self.config.embedding_learning_rate
        if embedding_lr is None or embedding_lr == self.config.learning_rate:
            self.optimizers = [Adam(model.parameters(),
                                    lr=self.config.learning_rate)]
        else:
            # two-speed regime: embedding rows are each touched rarely and
            # tolerate (need) a much larger step than the shared operator
            # networks, which see every sample
            self.optimizers = [
                Adam(model.embedding_parameters(), lr=embedding_lr),
                Adam(model.network_parameters(), lr=self.config.learning_rate),
            ]

    # ------------------------------------------------------------------
    def train(self) -> TrainingHistory:
        """Run the full loop; returns the loss history.

        With callbacks attached, each epoch additionally measures the
        mean global gradient norm and — when no other module-call hook
        is active — per-operator-network forward time, and publishes an
        :class:`~repro.obs.EpochStats` event.  Without callbacks the
        loop only records losses and per-epoch wall-clock, exactly as
        cheap as before.
        """
        history = self.history
        collect = len(self.callbacks) > 0
        self._collect_stats = collect
        self.callbacks.on_train_begin(self)
        started = time.perf_counter()
        try:
            for epoch in range(self._epochs_done, self.config.epochs):
                epoch_started = time.perf_counter()
                epoch_losses: list[float] = []
                grad_norms: list[float] = []
                samples = 0
                timer = None
                if collect and nn_modules.get_call_hook() is None:
                    timer = ModuleTimer()
                    timer.__enter__()
                try:
                    for structure in self.workload.structures():
                        queries = self.workload[structure]
                        for batch in batches(queries, self.config.batch_size,
                                             rng=self.rng):
                            loss_value = self.step(batch)
                            epoch_losses.append(loss_value)
                            history.losses.append(loss_value)
                            samples += len(batch)
                            if collect:
                                grad_norms.append(self._last_grad_norm)
                finally:
                    if timer is not None:
                        timer.__exit__(None, None, None)
                epoch_seconds = time.perf_counter() - epoch_started
                if not epoch_losses:
                    # float(np.mean([])) would silently record NaN (plus a
                    # RuntimeWarning); every later epoch would be just as
                    # empty, so fail loudly with the likely causes.
                    queries = sum(len(self.workload[s])
                                  for s in self.workload.structures())
                    raise ValueError(
                        f"epoch {epoch + 1} produced no batches "
                        f"({queries} queries across "
                        f"{len(self.workload.structures())} structures, "
                        f"batch_size={self.config.batch_size}); the "
                        f"workload is empty after filtering — check the "
                        f"curriculum/structure selection")
                mean_loss = float(np.mean(epoch_losses))
                history.epoch_losses.append(mean_loss)
                history.epoch_seconds.append(epoch_seconds)
                self._epochs_done = epoch + 1
                if collect:
                    self.callbacks.on_epoch_end(self, EpochStats(
                        epoch=epoch + 1, epochs=self.config.epochs,
                        loss=mean_loss,
                        grad_norm=float(np.mean(grad_norms))
                        if grad_norms else 0.0,
                        seconds=epoch_seconds, samples=samples,
                        steps=len(epoch_losses),
                        operator_seconds=timer.seconds_by_module()
                        if timer is not None else {}))
            history.seconds += time.perf_counter() - started
            self.callbacks.on_train_end(self, history)
        finally:
            self._collect_stats = False
        return history

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Everything needed to resume mid-run with identical results.

        The RNG bit-generator state is part of the snapshot on purpose:
        batch shuffling and positive/negative sampling all draw from
        ``self.rng``, so resuming without it would continue training on a
        *different* sample sequence and the loss trajectory would diverge
        from the uninterrupted run (see DESIGN.md).
        """
        return {
            "epoch": self._epochs_done,
            "rng_state": self.rng.bit_generator.state,
            "optimizers": [opt.state_dict() for opt in self.optimizers],
            "history": {
                "losses": list(self.history.losses),
                "epoch_losses": list(self.history.epoch_losses),
                "epoch_seconds": list(self.history.epoch_seconds),
                "seconds": self.history.seconds,
            },
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot (model weights are
        restored separately via ``model.load_state_dict``)."""
        optimizer_states = state["optimizers"]
        if len(optimizer_states) != len(self.optimizers):
            raise ValueError(
                f"checkpoint has {len(optimizer_states)} optimizer states, "
                f"trainer has {len(self.optimizers)} (different "
                f"embedding_learning_rate regime?)")
        epoch = int(state["epoch"])
        if epoch > self.config.epochs:
            raise ValueError(f"checkpoint is at epoch {epoch}, beyond "
                             f"config.epochs={self.config.epochs}")
        for optimizer, opt_state in zip(self.optimizers, optimizer_states):
            optimizer.load_state_dict(opt_state)
        self.rng.bit_generator.state = state["rng_state"]
        saved = state["history"]
        self.history = TrainingHistory(
            losses=[float(x) for x in saved["losses"]],
            epoch_losses=[float(x) for x in saved["epoch_losses"]],
            epoch_seconds=[float(x) for x in saved["epoch_seconds"]],
            seconds=float(saved["seconds"]))
        self._epochs_done = epoch

    def step(self, batch: list[GroundedQuery]) -> float:
        """One optimisation step on a same-structure batch."""
        queries = [q.query for q in batch]
        positives = self._sample_positives(batch)
        negatives = self._sample_negatives(batch)

        for optimizer in self.optimizers:
            optimizer.zero_grad()
        loss = batch_loss(
            self.model, queries, positives, negatives, gamma=self.gamma,
            xi=self.xi,
            size_regularization=self.config.size_regularization,
            adversarial_temperature=self.config.adversarial_temperature)
        loss.backward()
        self._record_grad_norm()
        for optimizer in self.optimizers:
            optimizer.step()
        return float(loss.data)

    def _record_grad_norm(self) -> None:
        if self._collect_stats:
            total = 0.0
            for param in self.model.parameters():
                if param.grad is not None:
                    total += float(np.sum(param.grad * param.grad))
            self._last_grad_norm = float(np.sqrt(total))

    # ------------------------------------------------------------------
    def _sample_positives(self, batch: list[GroundedQuery]) -> np.ndarray:
        """One uniformly drawn answer per query.

        One generator call with a bound per query: it consumes the
        stream exactly as one ``rng.integers(len(answers))`` per query
        does (same draws, same final state).
        """
        pools = [query.positive_answers for query in batch]
        picks = self.rng.integers(0, [len(pool) for pool in pools])
        return np.array([pool[pick] for pool, pick
                         in zip(pools, picks.tolist())], dtype=np.int64)

    def _sample_negatives(self, batch: list[GroundedQuery]) -> np.ndarray:
        """``m`` non-answer entities per query, by rejection.

        The reference procedure is a loop: per query draw ``m`` ids with
        one ``rng.integers`` call, then redraw one id at a time, left to
        right, while it is an answer (a query whose answers cover the
        vocabulary keeps its first ``m``).  Bounded integers are one
        output sequence however the calls are chunked, so this draws the
        sequence once as a block, walks it with a cursor in the loop's
        order, then rewinds the generator and draws exactly the consumed
        count again: same negatives, same final generator state (which
        checkpoints carry — resume stays bit-exact), one or two
        generator calls per step instead of one per query and redraw.
        """
        m = self.config.num_negatives
        n = self.model.num_entities
        rng = self.rng
        state = rng.bit_generator.state
        stream = rng.integers(0, n, size=2 * m * len(batch)).tolist()

        def extend() -> None:  # the block ran out: the sequence goes on
            stream.extend(rng.integers(0, n, size=len(stream)).tolist())

        cursor = 0
        rows = []
        for query in batch:
            while cursor + m > len(stream):
                extend()
            row = stream[cursor:cursor + m]
            cursor += m
            answers = query.all_answers
            if len(answers) < n and not answers.isdisjoint(row):
                for j, draw in enumerate(row):
                    while draw in answers:
                        if cursor == len(stream):
                            extend()
                        draw = stream[cursor]
                        cursor += 1
                    row[j] = draw
            rows.append(row)
        rng.bit_generator.state = state
        rng.integers(0, n, size=cursor)
        return np.array(rows, dtype=np.int64).reshape(len(batch), m)


@dataclass(frozen=True)
class CurriculumPhase:
    """One stage of a training curriculum.

    ``structures`` restricts the workload (None = every structure);
    ``config`` carries the stage's loop hyper-parameters.
    """

    config: TrainConfig
    structures: tuple[str, ...] | None = None


def train_curriculum(model: QueryModel, workload: QueryWorkload,
                     phases: list[CurriculumPhase],
                     gamma: float | None = None,
                     xi: float | None = None,
                     callbacks=None) -> TrainingHistory:
    """Train through a sequence of phases (link prediction first).

    The geometric backbones (arcs, cones) converge to a *compositional*
    solution far more reliably when the entity/relation geometry is first
    established on plain link prediction (1p) at a high learning rate and
    the multi-hop operator networks are tuned afterwards at a gentler
    rate.  This mirrors how the paper's own scale (hundreds of thousands
    of joint steps) lets geometry settle before the operators dominate.

    Optimizer state is rebuilt between phases (fresh Adam moments), which
    is intentional: each phase is an independent annealing stage.
    """
    if not phases:
        raise ValueError("need at least one curriculum phase")
    merged = TrainingHistory()
    for phase in phases:
        if phase.structures is None:
            stage_workload = workload
        else:
            stage_workload = QueryWorkload(
                {name: list(workload[name]) for name in phase.structures
                 if name in workload.queries})
            if not stage_workload.queries:
                raise ValueError(f"no workload structures match "
                                 f"{phase.structures}")
        trainer = Trainer(model, stage_workload, phase.config,
                          gamma=gamma, xi=xi, callbacks=callbacks)
        history = trainer.train()
        merged.losses.extend(history.losses)
        merged.epoch_losses.extend(history.epoch_losses)
        merged.epoch_seconds.extend(history.epoch_seconds)
        merged.seconds += history.seconds
    return merged
