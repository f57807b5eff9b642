"""repro.dist — sharded multi-process execution (ranking + training).

The entity embedding table is partitioned into contiguous shards
published through POSIX shared memory (:mod:`repro.dist.plan`); a pool
of persistent, supervised worker processes (:mod:`repro.dist.pool`)
scores shards with allocation-free blocked kernels
(:mod:`repro.dist.scorer`) and the parent reduces local top-k candidate
lists exactly (:mod:`repro.dist.merge`).  :class:`ShardedRanker` is the
serving/eval facade, :class:`ShardedTrainer` the data-parallel trainer.

Gate everything on :func:`dist_available` — platforms without working
``multiprocessing.shared_memory`` fall back to the single-process path.
"""

from .merge import merge_topk
from .plan import (
    EntityShardPlan,
    SharedArray,
    SharedArraySpec,
    ShardRange,
    dist_available,
    partition_rows,
)
from .pool import DistError, ShardWorkerPool, WorkerCrash, WorkerRole
from .ranker import LocalRanker, RankWorkerRole, ShardedRanker
from .scorer import ArcShardScorer, ShardScorer
from .trainer import ShardedTrainer, TrainWorkerRole

__all__ = [
    "ArcShardScorer",
    "DistError",
    "EntityShardPlan",
    "LocalRanker",
    "RankWorkerRole",
    "ShardRange",
    "ShardScorer",
    "ShardWorkerPool",
    "ShardedRanker",
    "ShardedTrainer",
    "SharedArray",
    "SharedArraySpec",
    "TrainWorkerRole",
    "WorkerCrash",
    "WorkerRole",
    "dist_available",
    "merge_topk",
    "partition_rows",
]
