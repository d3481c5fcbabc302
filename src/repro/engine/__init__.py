"""Graph query engines (the §7 experimental substrate).

The paper benchmarks PostgreSQL plus three obfuscated commercial
systems.  This package substitutes four in-process engines, each
modelled on the query-processing strategy that drives the behaviour the
paper observes (see DESIGN.md §3):

* :class:`DatalogLikeEngine` (**D**) — bottom-up evaluation with
  SCC-compressed closures; the only engine comfortable with recursion
  (Table 4);
* :class:`PostgresLikeEngine` (**P**) — vectorised CSR-gather path
  joins with SQL:1999-style naive linear recursion; strong on
  non-recursive queries, degrades badly on recursion;
* :class:`SparqlLikeEngine` (**S**) — multi-source NFA-product frontier
  BFS (the property-path strategy, vectorized per level); wins on
  quadratic workloads;
* :class:`CypherLikeEngine` (**G**) — edge-isomorphic pattern matching
  without inverse/concatenation under Kleene star, whose answers can
  legitimately differ (§7.1).

All engines share :class:`EvaluationBudget` so the harness can record
timeouts/row blowups as the paper's "-" failures.
"""

from repro.engine.budget import EvaluationBudget
from repro.engine.automaton import NFA, build_nfa
from repro.engine.relations import BinaryRelation
from repro.engine.resultset import ResultSet
from repro.engine.joins import join_rule, greedy_join_order
from repro.engine.algebraic import DatalogLikeEngine
from repro.engine.sqllike import PostgresLikeEngine
from repro.engine.bfs import SparqlLikeEngine
from repro.engine.frontier import frontier_regex_relation
from repro.engine.isomorphic import CypherLikeEngine
from repro.engine.evaluator import (
    ENGINES,
    Engine,
    count_distinct,
    engine_by_name,
    evaluate_query,
    register_engine,
)

__all__ = [
    "EvaluationBudget",
    "NFA",
    "build_nfa",
    "BinaryRelation",
    "ResultSet",
    "register_engine",
    "join_rule",
    "greedy_join_order",
    "DatalogLikeEngine",
    "PostgresLikeEngine",
    "SparqlLikeEngine",
    "frontier_regex_relation",
    "CypherLikeEngine",
    "ENGINES",
    "Engine",
    "engine_by_name",
    "evaluate_query",
    "count_distinct",
]
