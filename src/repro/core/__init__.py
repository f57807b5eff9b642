"""``repro.core`` — the HaLk model, training, and evaluation protocol."""

from .arc import Arc, angle_features, angular_difference, chord_length
from .distance import distance_to_points, entity_to_arc_distance
from .evaluation import (StructureMetrics, answer_set_from_ranking, evaluate,
                         rank_hard_answers, set_accuracy)
from .loss import group_penalty, halk_loss
from .model import (HalkModel, HalkServedEmbedding, QueryEmbedding,
                    QueryModel, UnsupportedOperatorError, topk_rows)
from .operators import (DifferenceOperator, IntersectionOperator,
                        NegationOperator, ProjectionOperator,
                        semantic_average_center, squash_angle)
from .trainer import (CurriculumPhase, Trainer, TrainingHistory,
                      train_curriculum)

__all__ = [
    "Arc", "angle_features", "chord_length", "angular_difference",
    "entity_to_arc_distance", "distance_to_points",
    "halk_loss", "group_penalty",
    "QueryModel", "QueryEmbedding", "UnsupportedOperatorError",
    "HalkModel", "HalkServedEmbedding", "topk_rows",
    "ProjectionOperator", "DifferenceOperator", "IntersectionOperator",
    "NegationOperator", "squash_angle", "semantic_average_center",
    "Trainer", "TrainingHistory", "CurriculumPhase", "train_curriculum",
    "evaluate", "StructureMetrics", "rank_hard_answers", "set_accuracy",
    "answer_set_from_ranking",
]
