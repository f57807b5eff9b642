"""``repro.kg`` — knowledge-graph core, synthetic benchmarks, groups, io."""

from .datasets import (DATASET_BUILDERS, EXACT_ENTITY_LIMIT, DatasetSplits,
                       GeneratorConfig, RelationSpec, fb15k_mini, fb237_mini,
                       generate_kg, load_dataset, make_splits, nell_mini,
                       stream_triples)
from .graph import KnowledgeGraph, Triple
from .groups import GroupAssignment
from .io import load_kg, load_splits, save_kg, save_splits
from .stats import GraphStats, RelationProfile, format_stats, graph_stats, profile_relation
from .xl import (XlSplitSummary, fb15k_xl, fb15k_xl_config, load_summary,
                 stream_splits)

__all__ = [
    "KnowledgeGraph", "Triple",
    "RelationSpec", "GeneratorConfig", "DatasetSplits",
    "generate_kg", "make_splits",
    "fb15k_mini", "fb237_mini", "nell_mini", "load_dataset", "DATASET_BUILDERS",
    "GroupAssignment",
    "save_kg", "load_kg", "save_splits", "load_splits",
    "GraphStats", "RelationProfile", "graph_stats", "profile_relation",
    "format_stats",
    "EXACT_ENTITY_LIMIT", "XlSplitSummary", "stream_triples", "stream_splits",
    "fb15k_xl", "fb15k_xl_config", "load_summary",
]
