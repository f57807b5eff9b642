"""Front-end handle over a :class:`ServeRuntime`.

``ServeClient`` is what callers hold: it accepts either computation
graphs or SPARQL strings (compiled through a :class:`SparqlEngine`), and
can decorate results with human-readable entity names.  ``python -m
repro.cli serve`` and ``examples/serve_demo.py`` drive this class; the
end-to-end benchmark workloads (``benchmarks/e2e``) drive
:class:`ServeRuntime` and the gateway directly.
"""

from __future__ import annotations

from ..obs.metrics import StatsSnapshot
from ..queries.computation_graph import Node
from .runtime import ServeResult, ServeRuntime

__all__ = ["ServeClient"]


class ServeClient:
    """Submits queries to a runtime; compiles SPARQL when given an engine.

    Parameters
    ----------
    runtime:
        The serving runtime to submit to.
    engine:
        Optional :class:`repro.sparql.SparqlEngine`; required only for
        string (SPARQL) queries and for name resolution.
    """

    def __init__(self, runtime: ServeRuntime, engine=None):
        self.runtime = runtime
        self.engine = engine

    def _compile(self, query) -> Node:
        if isinstance(query, str):
            if self.engine is None:
                raise ValueError("SPARQL input needs a SparqlEngine; "
                                 "pass engine= to ServeClient")
            return self.engine.compile(query)
        return query

    def answer(self, query, top_k: int = 10,
               deadline: float | None = None,
               timeout: float | None = None) -> ServeResult:
        """Answer one query (computation graph or SPARQL string)."""
        return self.runtime.answer(self._compile(query), top_k=top_k,
                                   deadline=deadline, timeout=timeout)

    def answer_many(self, queries, top_k: int = 10,
                    deadline: float | None = None,
                    timeout: float | None = None) -> list[ServeResult]:
        """Answer a workload concurrently; results in input order."""
        graphs = [self._compile(q) for q in queries]
        return self.runtime.answer_batch(graphs, top_k=top_k,
                                         deadline=deadline, timeout=timeout)

    def entity_names(self, result: ServeResult) -> list[str]:
        """Human-readable names for a result (requires an engine)."""
        if self.engine is None:
            raise ValueError("name resolution needs a SparqlEngine")
        return [self.engine.kg.entity_names[i] for i in result.entity_ids]

    def stats(self) -> StatsSnapshot:
        return self.runtime.stats()
