"""Evaluation front-end over the engine registry.

Importing this module loads the four §7 engine modules, whose
``@register_engine`` decorators populate the shared
:data:`~repro.engine.base.ENGINES` registry (paper letters P/S/G/D
resolve as aliases).  ``evaluate_query`` / ``count_distinct`` are the
functional front doors; :class:`~repro.session.Session` wraps them with
cached artifacts.
"""

from __future__ import annotations

# Imported for their @register_engine side effect (and re-exported as
# part of the public engine API).
from repro.engine.algebraic import DatalogLikeEngine  # noqa: F401
from repro.engine.base import ENGINES, Engine, register_engine  # noqa: F401
from repro.engine.bfs import SparqlLikeEngine  # noqa: F401
from repro.engine.budget import EvaluationBudget
from repro.engine.isomorphic import CypherLikeEngine  # noqa: F401
from repro.engine.resultset import ResultSet
from repro.engine.sqllike import PostgresLikeEngine  # noqa: F401
from repro.generation.graph import LabeledGraph
from repro.queries.ast import Query


def engine_by_name(name: str) -> Engine:
    """Look up an engine by name ('postgres', 'sparql', 'cypher',
    'datalog') or by the paper's system letter ('P', 'S', 'G', 'D')."""
    return ENGINES[name]


def evaluate_query(
    query: Query,
    graph: LabeledGraph,
    engine: str | Engine = "datalog",
    budget: EvaluationBudget | None = None,
    *,
    profile: bool = False,
) -> ResultSet:
    """Evaluate ``query`` on ``graph`` with the chosen engine.

    ``profile=True`` returns an
    :class:`~repro.observability.profile.EvaluationProfile` (estimated
    vs observed cardinality per conjunct, span tree, metrics snapshot)
    whose ``result`` field holds the answers.  Routed through
    :func:`repro.engine.profiling.profiled_evaluate`, which drives the
    engine's public ``evaluate`` — third-party engines profile too.
    """
    if isinstance(engine, str):
        engine = ENGINES[engine]
    if profile:
        from repro.engine.profiling import profiled_evaluate

        return profiled_evaluate(engine, query, graph, budget)
    return engine.evaluate(query, graph, budget)


def count_distinct(
    query: Query,
    graph: LabeledGraph,
    engine: str | Engine = "datalog",
    budget: EvaluationBudget | None = None,
) -> int:
    """``count(distinct ?v)`` over the answers (the §7.1 measurement)."""
    if isinstance(engine, str):
        engine = ENGINES[engine]
    return engine.count_distinct(query, graph, budget)
