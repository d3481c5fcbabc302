"""The ledger's query mix as a committed cross-engine answers fixture.

``fixtures/mix_bib2500.json`` holds the 60 UCRPQ texts the performance
ledger's ``workload-eval`` generates (bib at 2 500 nodes, instance seed
0, mix seed 2017, recursion probability 0.3), in generation order, and
for each text P / S / G / D's ``count_distinct`` under
``max_rows = 20 n`` — or ``"abort"`` / ``"unsupported"``.  Texts are
stored, not regenerated, so a change to the workload generator cannot
move the fixture; only the graph is rebuilt from its seed.

The answers are also checked under an
:class:`~repro.execution.ExecutionContext` that slices every binding
table above 256 rows: a sliced run must reproduce every whole stored
answer (it may answer where the plain cap aborts).

Every whole answer of D is also checked against an independent count:
the repository's SQL translation run on stdlib ``sqlite3``
(``oracles/sqlite_oracle.py``), and every whole answer of G to a
star-free text against the edge-isomorphic SQL of
``oracles/sqlite_iso.py``.

A change that moves a stored answer must say why in ``CHANGES.md``.
Regenerate the file (after such a change, and only then) with::

    PYTHONPATH=src python tests/test_mix_fixture.py
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro import (
    GraphConfiguration,
    QueryShape,
    WorkloadConfiguration,
    count_distinct,
    generate_graph,
    generate_workload,
)
from repro.errors import EngineBudgetExceeded, EngineCapabilityError
from repro.execution import ExecutionContext, ResourceBudget
from repro.queries.parser import parse_query
from repro.scenarios import scenario_schema

from oracles.sqlite_iso import iso_count
from oracles.sqlite_oracle import SqliteOracle

FIXTURE = pathlib.Path(__file__).parent / "fixtures" / "mix_bib2500.json"
ENGINES = ("P", "S", "G", "D")

#: The ledger's ``workload-eval`` parameters (benchmarks/ledger/workloads.py).
SCENARIO = "bib"
NODES = 2_500
INSTANCE_SEED = 0
MIX_SEED = 2017
MIX_SIZE = 60
MIX_RECURSION = 0.3
ROWS_PER_NODE = 20

#: The budgets the stored answers are checked under, by row cap: the
#: ledger's plain cap, and a context that slices every binding table
#: above 256 rows.
BUDGETS = {
    "plain": lambda max_rows: ResourceBudget(max_rows=max_rows),
    "sliced": lambda max_rows: ExecutionContext(max_rows=max_rows, degrade_rows=256),
}


def _graph(fixture: dict):
    configuration = GraphConfiguration(
        fixture["nodes"], scenario_schema(fixture["scenario"])
    )
    return generate_graph(configuration, seed=fixture["instance_seed"])


def _answer(query, graph, engine: str, budget: ResourceBudget):
    try:
        return count_distinct(query, graph, engine, budget)
    except EngineBudgetExceeded:
        return "abort"
    except EngineCapabilityError:
        return "unsupported"


def _answers(texts: list[str], graph, new_budget) -> list[dict]:
    """Every engine's answer per text (a repeated text is evaluated once),
    each under a fresh ``new_budget()``."""
    memo: dict[str, dict] = {}
    for text in texts:
        if text not in memo:
            query = parse_query(text)
            memo[text] = {
                engine: _answer(query, graph, engine, new_budget())
                for engine in ENGINES
            }
    return [memo[text] for text in texts]


def regenerate() -> dict:
    """Generate the mix, evaluate it on every engine, return the fixture."""
    fixture = {
        "scenario": SCENARIO,
        "nodes": NODES,
        "instance_seed": INSTANCE_SEED,
        "mix_seed": MIX_SEED,
        "recursion": MIX_RECURSION,
        "max_rows": ROWS_PER_NODE * NODES,
    }
    configuration = GraphConfiguration(NODES, scenario_schema(SCENARIO))
    workload = generate_workload(
        WorkloadConfiguration(
            configuration,
            size=MIX_SIZE,
            shapes=tuple(QueryShape),
            recursion_probability=MIX_RECURSION,
        ),
        seed=MIX_SEED,
    )
    texts = [generated.query.to_text() for generated in workload]
    answers = _answers(
        texts, _graph(fixture), lambda: BUDGETS["plain"](fixture["max_rows"])
    )
    fixture["queries"] = [
        {"text": text, **answer} for text, answer in zip(texts, answers)
    ]
    return fixture


@pytest.fixture(scope="module")
def stored() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.fixture(scope="module")
def graph(stored):
    return _graph(stored)


@pytest.fixture(scope="module", params=list(BUDGETS))
def observed(request, stored, graph) -> tuple[str, list[dict], int]:
    """(budget kind, answers, evaluations that sliced a binding table)."""
    budgets: list[ResourceBudget] = []

    def new_budget() -> ResourceBudget:
        budgets.append(BUDGETS[request.param](stored["max_rows"]))
        return budgets[-1]

    texts = [entry["text"] for entry in stored["queries"]]
    answers = _answers(texts, graph, new_budget)
    sliced = sum(bool(getattr(budget, "events", None)) for budget in budgets)
    return request.param, answers, sliced


def test_fixture_is_the_ledger_mix(stored):
    assert len(stored["queries"]) == MIX_SIZE
    assert stored["max_rows"] == ROWS_PER_NODE * stored["nodes"]
    assert all(parse_query(entry["text"]).to_text() == entry["text"]
               for entry in stored["queries"])


def test_answers_match_the_fixture(stored, observed):
    kind, answers, sliced = observed
    for entry, answer in zip(stored["queries"], answers):
        expected = {engine: entry[engine] for engine in ENGINES}
        if kind == "sliced":
            # Degradation may answer what the plain cap aborts.
            expected = {
                engine: answer[engine] if value == "abort" else value
                for engine, value in expected.items()
            }
        assert answer == expected, entry["text"]
    assert (sliced > 0) == (kind == "sliced")


def test_engines_agree_on_the_fixture(stored):
    """The ledger's checks: P = S = D wherever all three are whole, and
    G <= D on non-recursive texts (G's recursive arm approximates)."""
    whole = 0
    for entry in stored["queries"]:
        p, s, g, d = (entry[engine] for engine in ENGINES)
        if all(isinstance(value, int) for value in (p, s, d)):
            whole += 1
            assert p == s == d, entry["text"]
        if isinstance(g, int) and isinstance(d, int):
            if not parse_query(entry["text"]).has_recursion:
                assert g <= d, entry["text"]
    assert whole > MIX_SIZE // 2


def test_sqlite_agrees_with_d_on_the_fixture(stored, graph):
    """sqlite, which shares no code with the engines, returns D's count
    on every text D answers whole."""
    whole = {
        entry["text"]: entry["D"]
        for entry in stored["queries"]
        if isinstance(entry["D"], int)
    }
    with SqliteOracle(graph) as oracle:
        for text, expected in whole.items():
            assert oracle.count(parse_query(text)) == expected, text
    assert len(whole) > MIX_SIZE // 2


def test_sqlite_iso_agrees_with_g_on_the_fixture(stored, graph):
    """The edge-isomorphic SQL returns G's count on every star-free text
    G answers whole."""
    whole = {
        entry["text"]: entry["G"]
        for entry in stored["queries"]
        if isinstance(entry["G"], int)
        and not parse_query(entry["text"]).has_recursion
    }
    with SqliteOracle(graph) as oracle:
        for text, expected in whole.items():
            assert iso_count(oracle, parse_query(text)) == expected, text
    assert len(whole) > MIX_SIZE // 4


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(regenerate(), indent=1) + "\n")
