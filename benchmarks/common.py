"""Shared infrastructure for the benchmark harness.

Every table/figure bench needs the same expensive artefacts: the three
dataset analogues, their query workloads, and one trained model per
(method, dataset) pair.  This module builds them once per profile and
caches model parameters plus training metadata on disk
(``benchmarks/_cache/``), so the whole harness trains each model exactly
once no matter how many tables reference it.

Profiles (select with ``REPRO_PROFILE``):

* ``quick`` (default) — small dims / few epochs; minutes for the full
  harness, suitable for CI smoke runs.
* ``full`` — the settings used to produce EXPERIMENTS.md.
"""

from __future__ import annotations

import os
import pathlib
import time
from dataclasses import dataclass

import numpy as np

from repro import ckpt
from repro.baselines import (ConEModel, MLPMixModel, NewLookModel, HalkV1,
                             HalkV2, HalkV3, supported_workload)
from repro.config import ModelConfig, TrainConfig
from repro.core import HalkModel, QueryModel, Trainer, evaluate
from repro.kg import DatasetSplits, load_dataset
from repro.queries import WorkloadBundle, build_workloads

CACHE_DIR = pathlib.Path(__file__).resolve().parent / "_cache"

DATASETS = ("FB15k", "FB237", "NELL")
METHODS = {
    "ConE": ConEModel,
    "NewLook": NewLookModel,
    "MLPMix": MLPMixModel,
    "HaLk": HalkModel,
    "HaLk-V1": HalkV1,
    "HaLk-V2": HalkV2,
    "HaLk-V3": HalkV3,
}

#: Tables I/II column order
EPFO_COLUMNS = ("1p", "2p", "3p", "2i", "3i", "ip", "pi", "2u", "up",
                "2d", "3d", "dp")
#: Tables III/IV column order
NEGATION_COLUMNS = ("2in", "3in", "pni", "pin")


@dataclass(frozen=True)
class Profile:
    """Scale knobs for one harness run."""

    name: str
    dataset_scale: float
    model: ModelConfig
    train: TrainConfig
    train_queries: int
    eval_queries: int
    #: dataset scale used for the pruning/efficiency experiments — larger
    #: than the accuracy scale so the subgraph-matching joins are genuinely
    #: expensive (Fig. 6a's regime)
    pruning_scale: float = 1.2


def _quick_profile() -> Profile:
    return Profile(
        name="quick",
        dataset_scale=0.4,
        model=ModelConfig(embedding_dim=20, hidden_dim=40, seed=0),
        train=TrainConfig(epochs=150, batch_size=128, num_negatives=16,
                          learning_rate=2e-3, embedding_learning_rate=2e-2,
                          seed=0),
        train_queries=80,
        eval_queries=15,
        pruning_scale=1.0,
    )


def _full_profile() -> Profile:
    return Profile(
        name="full",
        dataset_scale=0.5,
        model=ModelConfig(embedding_dim=24, hidden_dim=48, seed=0),
        train=TrainConfig(epochs=250, batch_size=128, num_negatives=16,
                          learning_rate=2e-3, embedding_learning_rate=2e-2,
                          seed=0),
        train_queries=100,
        eval_queries=30,
        pruning_scale=1.2,
    )


def active_profile() -> Profile:
    """The profile selected via the ``REPRO_PROFILE`` environment variable."""
    name = os.environ.get("REPRO_PROFILE", "quick")
    if name == "quick":
        return _quick_profile()
    if name == "full":
        return _full_profile()
    raise ValueError(f"unknown REPRO_PROFILE {name!r}; use 'quick' or 'full'")


class ExperimentContext:
    """Builds and caches datasets, workloads and trained models."""

    def __init__(self, profile: Profile | None = None):
        self.profile = profile or active_profile()
        self._splits: dict[str, DatasetSplits] = {}
        self._bundles: dict[str, WorkloadBundle] = {}
        self._models: dict[tuple[str, str], QueryModel] = {}
        self._train_seconds: dict[tuple[str, str], float] = {}
        CACHE_DIR.mkdir(exist_ok=True)

    # ------------------------------------------------------------------
    # datasets and workloads
    # ------------------------------------------------------------------
    def splits(self, dataset: str) -> DatasetSplits:
        if dataset not in self._splits:
            self._splits[dataset] = load_dataset(
                dataset, scale=self.profile.dataset_scale, seed=0)
        return self._splits[dataset]

    def workloads(self, dataset: str) -> WorkloadBundle:
        if dataset not in self._bundles:
            self._bundles[dataset] = build_workloads(
                self.splits(dataset),
                queries_per_structure=self.profile.train_queries,
                eval_queries_per_structure=self.profile.eval_queries,
                seed=0)
        return self._bundles[dataset]

    def pruning_splits(self) -> DatasetSplits:
        """The larger NELL graph used for Fig. 6a / Table VI timing."""
        key = "NELL-pruning"
        if key not in self._splits:
            self._splits[key] = load_dataset(
                "NELL", scale=self.profile.pruning_scale, seed=0)
        return self._splits[key]

    def pruning_model(self) -> QueryModel:
        """A HaLk model trained on the larger pruning graph (cached)."""
        key = ("NELL-pruning", "HaLk")
        if key in self._models:
            return self._models[key]
        splits = self.pruning_splits()
        model = HalkModel(splits.train, self.profile.model)
        weights_path, meta_path = self._cache_paths("NELL-pruning", "HaLk")
        cached = self._load_cached(weights_path, meta_path)
        if cached is not None:
            state, meta = cached
            model.load_state_dict(state)
            self._train_seconds[key] = meta["train_seconds"]
        else:
            bundle = build_workloads(
                splits, queries_per_structure=self.profile.train_queries,
                eval_queries_per_structure=5, seed=0)
            history = Trainer(model, bundle.train, self.profile.train).train()
            self._train_seconds[key] = history.seconds
            self._save_cached(weights_path, meta_path, model, history)
        self._models[key] = model
        return model

    # ------------------------------------------------------------------
    # models
    # ------------------------------------------------------------------
    def _cache_paths(self, dataset: str, method: str):
        stem = f"{self.profile.name}_{dataset}_{method}".replace("/", "_")
        return (CACHE_DIR / f"{stem}.npz", CACHE_DIR / f"{stem}.json")

    @staticmethod
    def _load_cached(weights_path, meta_path):
        """State dict + meta from disk, or None when absent/corrupt.

        Writes go through the ``repro.ckpt`` atomic writer, so a crash
        mid-write can no longer produce a torn npz — but an old-format or
        checksum-failing cache entry must still degrade to retraining,
        not crash the whole harness.
        """
        del meta_path  # metadata rides inside the checkpoint manifest
        try:
            checkpoint = ckpt.load_checkpoint(weights_path)
            return checkpoint.state["model"], checkpoint.manifest.meta
        except (ckpt.CheckpointError, KeyError):
            return None

    @staticmethod
    def _save_cached(weights_path, meta_path, model, history) -> None:
        """Atomically persist one trained model plus its manifest meta."""
        meta = {"train_seconds": history.seconds,
                "final_loss": history.final_loss}
        manifest = ckpt.save_checkpoint(weights_path,
                                        {"model": model.state_dict()},
                                        meta=meta)
        # informational sidecar; loading trusts the embedded manifest
        ckpt.atomic_write_json(meta_path,
                               dict(meta, checksum=manifest.checksum))

    def model(self, dataset: str, method: str) -> QueryModel:
        """A trained model, loaded from the disk cache when available."""
        key = (dataset, method)
        if key in self._models:
            return self._models[key]
        model = METHODS[method](self.splits(dataset).train, self.profile.model)
        weights_path, meta_path = self._cache_paths(dataset, method)
        cached = self._load_cached(weights_path, meta_path)
        if cached is not None:
            state, meta = cached
            model.load_state_dict(state)
            self._train_seconds[key] = meta["train_seconds"]
        else:
            workload = supported_workload(model,
                                          self.workloads(dataset).train)
            history = Trainer(model, workload, self.profile.train).train()
            self._train_seconds[key] = history.seconds
            self._save_cached(weights_path, meta_path, model, history)
        self._models[key] = model
        return model

    def train_seconds(self, dataset: str, method: str) -> float:
        """Offline training time (trains or loads the model if needed)."""
        self.model(dataset, method)
        return self._train_seconds[(dataset, method)]

    # ------------------------------------------------------------------
    # evaluation helpers
    # ------------------------------------------------------------------
    def evaluate_method(self, dataset: str, method: str):
        """Filtered metrics of one method on one dataset's test workload."""
        model = self.model(dataset, method)
        workload = supported_workload(model, self.workloads(dataset).test)
        return evaluate(model, workload)


_CONTEXT: ExperimentContext | None = None


def shared_context() -> ExperimentContext:
    """Session-wide singleton context (shared across bench modules)."""
    global _CONTEXT
    if _CONTEXT is None:
        _CONTEXT = ExperimentContext()
    return _CONTEXT


# ----------------------------------------------------------------------
# table formatting
# ----------------------------------------------------------------------
def random_ranker_mrr(num_entities: int) -> float:
    """Expected filtered MRR of a uniform-random ranker over N entities."""
    ranks = np.arange(1, num_entities + 1)
    return float((1.0 / ranks).mean())


def format_table(title: str, columns, rows: dict[str, dict[str, float]],
                 percent: bool = True) -> str:
    """Render a paper-style results table ('-' for unsupported cells)."""
    scale = 100.0 if percent else 1.0
    width = max(8, max((len(c) for c in columns), default=8))
    lines = [title,
             "method    " + " ".join(f"{c:>{width}}" for c in columns)
             + f" {'AVG':>{width}}"]
    for method, cells in rows.items():
        rendered = []
        present = []
        for column in columns:
            value = cells.get(column)
            if value is None:
                rendered.append(f"{'-':>{width}}")
            else:
                rendered.append(f"{scale * value:>{width}.1f}")
                present.append(scale * value)
        average = f"{np.mean(present):>{width}.1f}" if present \
            else f"{'-':>{width}}"
        lines.append(f"{method:<9} " + " ".join(rendered) + f" {average}")
    return "\n".join(lines)
