"""``repro.baselines`` — ConE, NewLook, MLPMix and the HaLk ablations."""

from .ablations import (ABLATION_VARIANTS, HalkV1, HalkV2, HalkV3,
                        IndependentProjection, LinearNegation,
                        NewLookStyleDifference, make_halk_variant)
from .base import UnsupportedOperatorError, supported_workload
from .cone import ConEModel
from .mlpmix import MLPMixModel
from .newlook import Box, NewLookModel

__all__ = [
    "UnsupportedOperatorError", "supported_workload",
    "ConEModel", "NewLookModel", "Box", "MLPMixModel",
    "HalkV1", "HalkV2", "HalkV3", "make_halk_variant", "ABLATION_VARIANTS",
    "NewLookStyleDifference", "LinearNegation", "IndependentProjection",
]
