"""Synthetic KGs at 10^5-10^6 entity scale, written to disk as a stream.

:func:`~repro.kg.datasets.generate_kg` builds a :class:`KnowledgeGraph`
in RAM and :func:`~repro.kg.datasets.make_splits` sorts and shuffles its
triple set — fine for the mini benchmarks, impossible for the
million-entity graphs the sharded data plane needs to be worth its IPC.
This module consumes the same generator,
:func:`~repro.kg.datasets.stream_triples`, block by block and writes
the nested splits to disk incrementally.  Peak RSS is the latent table
(``n × d`` float64, 16 MB at one million entities) plus one chunk —
never the triple set.

The split protocol mirrors :func:`make_splits` semantics without
materialising anything: a triple touching a not-yet-covered entity joins
the training core (so every mentioned entity has an observed fact), the
rest are assigned train/valid/test by an independent split RNG, and each
triple is appended to the TSVs of every split that contains it — the
nesting ``train ⊆ valid ⊆ test`` holds by construction.  Same seed ⇒
byte-identical output files.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass, field

import numpy as np

from .datasets import (DEFAULT_CHUNK, GeneratorConfig, RelationSpec,
                       stream_triples)
from .io import _ENTITY_FILE, _RELATION_FILE

__all__ = ["stream_splits", "XlSplitSummary", "load_summary",
           "fb15k_xl_config", "fb15k_xl"]


# ----------------------------------------------------------------------
# streaming splits
# ----------------------------------------------------------------------
@dataclass
class XlSplitSummary:
    """What :func:`stream_splits` wrote (also persisted as meta.json)."""

    name: str
    out_dir: str
    num_entities: int
    num_relations: int
    counts: dict = field(default_factory=dict)  # split -> triple count
    relation_names: list = field(default_factory=list)
    seed: int = 0

    def to_json(self) -> dict:
        return {"name": self.name, "num_entities": self.num_entities,
                "num_relations": self.num_relations, "counts": self.counts,
                "relation_names": self.relation_names, "seed": self.seed}


def load_summary(out_dir) -> XlSplitSummary:
    """Read back the ``meta.json`` of a :func:`stream_splits` directory."""
    out_dir = pathlib.Path(out_dir)
    data = json.loads((out_dir / "meta.json").read_text(encoding="utf-8"))
    return XlSplitSummary(name=data["name"], out_dir=str(out_dir),
                          num_entities=data["num_entities"],
                          num_relations=data["num_relations"],
                          counts=data["counts"],
                          relation_names=data["relation_names"],
                          seed=data.get("seed", 0))


def stream_splits(config: GeneratorConfig, out_dir,
                  train_fraction: float = 0.8, valid_fraction: float = 0.9,
                  seed: int = 0,
                  chunk: int = DEFAULT_CHUNK) -> XlSplitSummary:
    """Generate ``config`` and write nested splits without materialising.

    Produces the same on-disk layout as :func:`repro.kg.io.save_splits`
    (``entities.txt``/``relations.txt`` + ``train/valid/test.tsv``, so
    :func:`repro.kg.io.load_splits` reads small outputs back) plus a
    ``meta.json`` summary.  Assignment follows the paper's protocol:

    * a triple whose head or tail has no earlier observed fact joins the
      **training core** — every mentioned entity is anchored in train;
    * otherwise one draw of the split RNG sends it to train
      (``u < train_fraction``), valid-only, or test-only;
    * ``test.tsv`` receives every triple, ``valid.tsv`` the train+valid
      ones, ``train.tsv`` the train ones — ``train ⊆ valid ⊆ test`` by
      construction.

    Deterministic: the same ``(config, seed, fractions)`` writes
    byte-identical files on every run.
    """
    if not 0 < train_fraction <= valid_fraction <= 1.0:
        raise ValueError("need 0 < train_fraction <= valid_fraction <= 1")
    out_dir = pathlib.Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    n = config.num_entities
    relation_names = config.relation_names

    with open(out_dir / _ENTITY_FILE, "w") as handle:
        handle.writelines(f"e{i}\n" for i in range(n))
    (out_dir / _RELATION_FILE).write_text(
        "".join(f"{name}\n" for name in relation_names))

    split_rng = np.random.default_rng(seed)
    covered = np.zeros(n, dtype=bool)
    counts = {"train": 0, "valid": 0, "test": 0}
    with open(out_dir / "train.tsv", "w") as train_f, \
            open(out_dir / "valid.tsv", "w") as valid_f, \
            open(out_dir / "test.tsv", "w") as test_f:
        for block in stream_triples(config, chunk=chunk):
            draws = split_rng.random(block.shape[0])
            # 0 = train, 1 = valid-only, 2 = test-only
            assign = np.where(draws < train_fraction, 0,
                              np.where(draws < valid_fraction, 1, 2))
            loose = np.flatnonzero(~(covered[block[:, 0]]
                                     & covered[block[:, 2]]))
            for row in loose:
                head, _, tail = block[row]
                # recheck against in-chunk covering: only genuinely
                # first-fact triples are forced into the training core
                if not (covered[head] and covered[tail]):
                    assign[row] = 0
                    covered[head] = covered[tail] = True
            for row, target in enumerate(assign):
                head, rel, tail = block[row]
                line = f"e{head}\t{relation_names[rel]}\te{tail}\n"
                test_f.write(line)
                if target <= 1:
                    valid_f.write(line)
                if target == 0:
                    train_f.write(line)
            counts["test"] += int(block.shape[0])
            counts["valid"] += int(np.count_nonzero(assign <= 1))
            counts["train"] += int(np.count_nonzero(assign == 0))

    summary = XlSplitSummary(name=config.name, out_dir=str(out_dir),
                             num_entities=n,
                             num_relations=len(config.relations),
                             counts=counts, relation_names=relation_names,
                             seed=seed)
    (out_dir / "meta.json").write_text(
        json.dumps(summary.to_json(), indent=2) + "\n", encoding="utf-8")
    return summary


# ----------------------------------------------------------------------
# the xl preset
# ----------------------------------------------------------------------
def fb15k_xl_config(num_entities: int = 100_000,
                    seed: int = 0) -> GeneratorConfig:
    """FB15k-style recipe at data-plane scale.

    Same relation mix as ``fb15k_mini`` (dense rotations, a community
    and a hierarchy relation, explicit inverses) with the entity count
    as a free parameter — 10^5 to 10^6 is the intended range.
    """
    base = tuple(RelationSpec("rotation", fan_out=2.5, noise=0.10)
                 for _ in range(6))
    extras = (RelationSpec("community"), RelationSpec("hierarchy"))
    inverses = tuple(RelationSpec("inverse", inverse_of=i) for i in range(2))
    return GeneratorConfig(name=f"FB15k-xl-{num_entities}",
                           num_entities=int(num_entities),
                           relations=base + extras + inverses,
                           num_communities=max(8, num_entities // 4096),
                           seed=seed)


def fb15k_xl(out_dir, num_entities: int = 100_000, seed: int = 0,
             chunk: int = DEFAULT_CHUNK) -> XlSplitSummary:
    """Write the ``fb15k_xl`` splits under ``out_dir`` (streaming)."""
    return stream_splits(fb15k_xl_config(num_entities, seed), out_dir,
                         seed=seed, chunk=chunk)
