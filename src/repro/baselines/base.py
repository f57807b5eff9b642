"""What the baseline query-embedding models share beyond the protocol.

Every baseline (ConE, NewLook, MLPMix) follows the recipe the paper
describes, which :class:`~repro.core.model.QueryModel` implements once:
embed the computation graph bottom-up with one neural model per
operator, answer unions through DNF, and rank entities by a distance
function.  A baseline subclasses it directly and supplies the per-node
primitives it has, its entity representation and its distance.

Baselines differ in *which* operators they support (Tables I–IV leave the
unsupported cells blank): NewLook has no negation, ConE and MLPMix have no
difference.  Embedding an unsupported tree raises
:class:`UnsupportedOperatorError`, which the benchmark harness turns into
the paper's "-" cells.
"""

from __future__ import annotations

from ..core.model import QueryModel, UnsupportedOperatorError
from ..queries.dataset import QueryWorkload

__all__ = ["UnsupportedOperatorError", "supported_workload"]


def supported_workload(model: QueryModel,
                       workload: QueryWorkload) -> QueryWorkload:
    """The structures of ``workload`` whose operators ``model`` has (the
    filled cells of Tables I–IV), in workload order.  A structure's
    queries share their operators, so one per structure is probed."""
    out = QueryWorkload()
    for structure in workload.structures():
        queries = workload[structure]
        if model.supports(queries[0].query):
            for query in queries:
                out.add(query)
    return out
