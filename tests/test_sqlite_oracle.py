"""Differential test: P, S, D and G against SQL on sqlite.

Every stress workload of §6.2 (Len / Dis / Con / Rec, 10 queries per
selectivity class) is translated by the repository's SQL translator and
counted on stdlib ``sqlite3`` (``oracles/sqlite_oracle.py``); each
homomorphic engine's ``count_distinct`` under ``max_rows = 20 n`` must
equal that count wherever the engine answers.  P, S and D share their
columnar kernels with each other but nothing with sqlite's planner or
its ``WITH RECURSIVE`` working-table recursion, so this is the check
that still bites when a shared kernel changes.

G matches edge-isomorphically, so its star-free answers are checked
against a second SQL text over the same database
(``oracles/sqlite_iso.py``: one join per branch, distinct rowids for
same-label atoms).  G's starred answers approximate (§7.1) and are not
checked.

The PR tier runs bib and lsn at 1 000 nodes with one seed; the
``nightly`` sweep runs all four scenarios at 2 000 nodes with three.
"""

from __future__ import annotations

import pytest

from repro import GraphConfiguration, count_distinct, generate_graph
from repro.analysis.experiments import STRESS_WORKLOADS, stress_workload
from repro.errors import EngineBudgetExceeded, EngineCapabilityError
from repro.execution import ResourceBudget
from repro.scenarios import scenario_schema

from oracles.sqlite_iso import iso_count
from oracles.sqlite_oracle import SqliteOracle

ENGINES = ("P", "S", "D")
ROWS_PER_NODE = 20
QUERIES_PER_CLASS = 10


def _differential(scenario: str, nodes: int, seed: int) -> tuple[int, int]:
    """Engine answers compared with sqlite's count.

    Asserts every answer, so a disagreement fails at its query; the
    returned counts — P, S and D's comparisons, then G's — let the
    caller require that the run checked something of each.
    """
    configuration = GraphConfiguration(nodes, scenario_schema(scenario))
    graph = generate_graph(configuration, seed=seed)
    comparisons = isomorphic = 0
    with SqliteOracle(graph) as oracle:
        assert sum(
            oracle.edge_count(label) for label in configuration.schema.alphabet
        ) == graph.edge_count
        for family in STRESS_WORKLOADS:
            workload = stress_workload(
                family, configuration, QUERIES_PER_CLASS, seed=seed
            )
            for generated in workload:
                query = generated.query
                answers = {}
                for engine in ENGINES:
                    budget = ResourceBudget(max_rows=ROWS_PER_NODE * nodes)
                    try:
                        answers[engine] = count_distinct(query, graph, engine, budget)
                    except EngineBudgetExceeded:
                        continue
                if answers:
                    expected = oracle.count(query)
                    for engine, answer in answers.items():
                        assert answer == expected, (
                            scenario, seed, family, engine, query.to_text()
                        )
                    comparisons += len(answers)
                if not query.has_recursion:
                    isomorphic += _isomorphic(oracle, query, graph, nodes)
    return comparisons, isomorphic


def _isomorphic(oracle: SqliteOracle, query, graph, nodes: int) -> int:
    """G's answer against the isomorphic SQL count (1 compared, 0 not)."""
    budget = ResourceBudget(max_rows=ROWS_PER_NODE * nodes)
    try:
        answer = count_distinct(query, graph, "G", budget)
    except (EngineBudgetExceeded, EngineCapabilityError):
        return 0
    assert answer == iso_count(oracle, query), ("G", query.to_text())
    return 1


@pytest.mark.parametrize("scenario", ["bib", "lsn"])
def test_engines_match_sqlite(scenario):
    comparisons, isomorphic = _differential(scenario, nodes=1_000, seed=1)
    # 4 families x 30 queries x 3 engines, less the budget aborts.
    assert comparisons > 4 * 3 * QUERIES_PER_CLASS * len(ENGINES) // 2
    # G: the 3 star-free families x 30 queries, less the budget aborts.
    assert isomorphic > 3 * 3 * QUERIES_PER_CLASS // 2


@pytest.mark.nightly
@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("scenario", ["bib", "lsn", "sp", "wd"])
def test_engines_match_sqlite_sweep(scenario, seed):
    comparisons, isomorphic = _differential(scenario, nodes=2_000, seed=seed)
    assert comparisons > 0 and isomorphic > 0
