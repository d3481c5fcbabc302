"""The ledger's query mix as a committed cross-engine answers fixture.

``fixtures/mix_bib2500.json`` holds the 60 UCRPQ texts the performance
ledger's ``workload-eval`` generates (bib at 2 500 nodes, instance seed
0, mix seed 2017, recursion probability 0.3), in generation order, and
for each text P / S / G / D's ``count_distinct`` under
``max_rows = 20 n`` — or ``"abort"`` / ``"unsupported"``.  Texts are
stored, not regenerated, so a change to the workload generator cannot
move the fixture; only the graph is rebuilt from its seed.

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
from repro.execution import ResourceBudget
from repro.queries.parser import parse_query
from repro.scenarios import scenario_schema

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


def _graph(fixture: dict):
    configuration = GraphConfiguration(
        fixture["nodes"], scenario_schema(fixture["scenario"])
    )
    return generate_graph(configuration, seed=fixture["instance_seed"])


def _answer(query, graph, engine: str, max_rows: int):
    try:
        return count_distinct(query, graph, engine, ResourceBudget(max_rows=max_rows))
    except EngineBudgetExceeded:
        return "abort"
    except EngineCapabilityError:
        return "unsupported"


def _answers(texts: list[str], graph, max_rows: int) -> list[dict]:
    """Every engine's answer per text (a repeated text is evaluated once)."""
    memo: dict[str, dict] = {}
    for text in texts:
        if text not in memo:
            query = parse_query(text)
            memo[text] = {
                engine: _answer(query, graph, engine, max_rows) for engine in ENGINES
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
    answers = _answers(texts, _graph(fixture), fixture["max_rows"])
    fixture["queries"] = [
        {"text": text, **answer} for text, answer in zip(texts, answers)
    ]
    return fixture


@pytest.fixture(scope="module")
def stored() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.fixture(scope="module")
def observed(stored) -> list[dict]:
    texts = [entry["text"] for entry in stored["queries"]]
    return _answers(texts, _graph(stored), stored["max_rows"])


def test_fixture_is_the_ledger_mix(stored):
    assert len(stored["queries"]) == MIX_SIZE
    assert stored["max_rows"] == ROWS_PER_NODE * stored["nodes"]
    assert all(parse_query(entry["text"]).to_text() == entry["text"]
               for entry in stored["queries"])


def test_answers_match_the_fixture(stored, observed):
    for entry, answer in zip(stored["queries"], observed):
        assert answer == {engine: entry[engine] for engine in ENGINES}, entry["text"]


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


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(regenerate(), indent=1) + "\n")
