#!/usr/bin/env python3
"""Golden loss trajectories: the bit-identity contract of the training path.

Seven models (HaLk, the three Table V ablations, ConE, NewLook, MLPMix)
are trained for a few epochs on one small fixed workload; every step's
loss is kept as ``float.hex()`` together with the trainer's final PCG64
state.  ``tests/core/golden_losses.json`` holds the result and
``tests/core/test_golden_losses.py`` asserts a fresh run equals it, so a
change to the tape, an operator, the sampler or the optimizer that moves
one bit of one loss fails tier-1 (why nothing looser can be checked:
DESIGN.md §14).

    python scripts/golden_losses.py --check   # regenerate in memory, compare
    python scripts/golden_losses.py --write   # regenerate the file

A PR that changes training numerics on purpose runs ``--write`` and
commits the diff, in the open.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

REPO = pathlib.Path(__file__).resolve().parents[1]
if str(REPO / "src") not in sys.path:
    sys.path.insert(0, str(REPO / "src"))

from repro.baselines import (ConEModel, HalkV1, HalkV2, HalkV3,  # noqa: E402
                             MLPMixModel, NewLookModel, supported_workload)
from repro.config import ModelConfig, TrainConfig  # noqa: E402
from repro.core import HalkModel, Trainer  # noqa: E402
from repro.kg import load_dataset  # noqa: E402
from repro.queries import build_workloads  # noqa: E402

GOLDEN = REPO / "tests" / "core" / "golden_losses.json"

MODEL = ModelConfig(embedding_dim=12, hidden_dim=24, seed=0)
TRAIN = TrainConfig(epochs=4, batch_size=32, num_negatives=8, seed=0)
#: method -> (model class, TrainConfig overrides); ConE takes the
#: self-adversarial branch of the loss so that path is pinned too
METHODS = {
    "HaLk": (HalkModel, {}),
    "HaLk-V1": (HalkV1, {}),
    "HaLk-V2": (HalkV2, {}),
    "HaLk-V3": (HalkV3, {}),
    "ConE": (ConEModel, {"adversarial_temperature": 0.5}),
    "NewLook": (NewLookModel, {}),
    "MLPMix": (MLPMixModel, {}),
}


def compute() -> dict[str, dict]:
    """Train every method; ``{method: {"losses": [hex…], "rng_state": …}}``."""
    splits = load_dataset("FB237", scale=0.4, seed=0)
    bundle = build_workloads(splits, queries_per_structure=40,
                             eval_queries_per_structure=1, seed=0)
    out = {}
    for method, (cls, overrides) in METHODS.items():
        model = cls(splits.train, MODEL)
        trainer = Trainer(model, supported_workload(model, bundle.train),
                          TRAIN.with_(**overrides))
        history = trainer.train()
        out[method] = {
            "losses": [float(loss).hex() for loss in history.losses],
            "rng_state": trainer.rng.bit_generator.state,
        }
    return out


def first_difference(golden: dict, fresh: dict) -> str | None:
    """One line naming the first model/step where the two runs part."""
    if list(golden) != list(fresh):
        return f"methods differ: {list(golden)} vs {list(fresh)}"
    for method, want in golden.items():
        got = fresh[method]
        pairs = zip(want["losses"], got["losses"])
        for step, (a, b) in enumerate(pairs):
            if a != b:
                return (f"{method}: loss of step {step} is {b} "
                        f"({float.fromhex(b)!r}), golden {a} "
                        f"({float.fromhex(a)!r})")
        if len(want["losses"]) != len(got["losses"]):
            return (f"{method}: {len(got['losses'])} steps, golden "
                    f"{len(want['losses'])}")
        if want["rng_state"] != got["rng_state"]:
            return f"{method}: final PCG64 state differs (losses equal)"
    return None


def load() -> dict:
    return json.loads(GOLDEN.read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true",
                      help=f"regenerate {GOLDEN.relative_to(REPO)}")
    mode.add_argument("--check", action="store_true",
                      help="regenerate in memory and compare with the file")
    args = parser.parse_args(argv)
    fresh = compute()
    if args.write:
        GOLDEN.write_text(json.dumps(fresh, indent=1) + "\n")
        steps = {method: len(run["losses"]) for method, run in fresh.items()}
        print(f"wrote {GOLDEN.relative_to(REPO)}: {steps}")
        return 0
    difference = first_difference(load(), fresh)
    if difference is None:
        print("golden losses: identical")
        return 0
    print(f"golden losses differ — {difference}")
    return 1


if __name__ == "__main__":
    sys.exit(main())
