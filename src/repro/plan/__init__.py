"""repro.plan — the query-plan compiler (ROADMAP item 2).

Lowers :mod:`repro.queries.computation_graph` trees into an SSA plan IR,
deduplicates shared sub-plans across the queries of a micro-batch (CSE),
fuses same-depth same-kind ops into stacked kernel calls, caches lowered
templates by canonical structure signature, and executes the resulting
DAG either against a model backend (serving) or as exact set semantics
(the correctness oracle).  See DESIGN.md §12.
"""

from ..core.arc import ArcRows, stack_rows
from .backend import HalkPlanBackend
from .compiler import (CompileResult, PlanCompiler, PlanTemplate,
                       instantiate, lower, lower_template)
from .executor import (RankGroup, StageGroup, execute_plan, execute_symbolic,
                       plan_answer_batch, schedule)
from .explain import plan_to_json, render_plan
from .ir import (AnchorOp, DifferenceOp, IntersectOp, NegateOp, Plan, PlanOp,
                 ProjectOp, RankOp, UnionOp, op_inputs, op_kind)

__all__ = [
    "AnchorOp", "ProjectOp", "IntersectOp", "UnionOp", "DifferenceOp",
    "NegateOp", "RankOp", "PlanOp", "Plan", "op_inputs", "op_kind",
    "PlanCompiler", "PlanTemplate", "CompileResult", "lower",
    "lower_template", "instantiate",
    "ArcRows", "HalkPlanBackend", "stack_rows",
    "StageGroup", "RankGroup", "schedule", "execute_plan",
    "execute_symbolic", "plan_answer_batch",
    "render_plan", "plan_to_json",
]
