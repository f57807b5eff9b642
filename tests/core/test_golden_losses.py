"""Training is bit-identical to the committed golden trajectories.

``scripts/golden_losses.py`` trains seven models for four epochs and
records every step's loss as ``float.hex()`` plus the trainer's final
PCG64 state; ``golden_losses.json`` is its ``--write`` output.  This test
is its ``--check``: one bit of one loss moving — a regrouped backward, a
reordered accumulation, a sampler drawing differently — fails here and
names the model and step.  A change that *means* to alter training
numerics regenerates the file with ``--write`` and commits the diff.
"""

import pathlib
import sys

REPO = pathlib.Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO / "scripts"))

import golden_losses  # noqa: E402


def test_loss_trajectories_and_rng_state_are_bit_identical():
    golden = golden_losses.load()
    assert list(golden) == list(golden_losses.METHODS)
    assert all(120 <= len(run["losses"]) <= 152 for run in golden.values())
    assert golden_losses.first_difference(golden,
                                          golden_losses.compute()) is None


def test_first_difference_names_model_and_step():
    golden = golden_losses.load()
    moved = {method: dict(run, losses=list(run["losses"]))
             for method, run in golden.items()}
    moved["ConE"]["losses"][17] = (1.0).hex()
    message = golden_losses.first_difference(golden, moved)
    assert message.startswith("ConE: loss of step 17 ")
    moved = {method: dict(run) for method, run in golden.items()}
    moved["MLPMix"]["rng_state"] = dict(moved["MLPMix"]["rng_state"],
                                        uinteger=7)
    assert golden_losses.first_difference(golden, moved) \
        == "MLPMix: final PCG64 state differs (losses equal)"
