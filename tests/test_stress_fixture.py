"""The §6.2 stress workloads as a committed cross-engine outcomes fixture.

``fixtures/stress_1000.json`` holds the 480 UCRPQ texts of the four
stress workloads (Len / Dis / Con / Rec, 30 texts each, from
``stress_workload(family, configuration, 10, seed=1)``) on each of the
four scenarios at 1 000 nodes, in generation order, and for each text
every engine's outcome under ``ResourceBudget(max_rows = 20 n)``: its
``count_distinct``, ``{"resource", "amount"}`` for an abort, or
``"unsupported"``.  Texts are stored, not regenerated, so a change to
the workload generator cannot move the fixture; only the graphs are
rebuilt from their instance seed.

Where the ledger's mix fixture (``test_mix_fixture.py``) pins answers,
this one also pins *where* each engine gives up: an abort's resource
and the row count it met, so a kernel change that moves an abort point
shows here.

A change that moves a stored outcome must say why in ``CHANGES.md``.
Regenerate the file (after such a change, and only then) with::

    PYTHONPATH=src python tests/test_stress_fixture.py
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro import GraphConfiguration, count_distinct, generate_graph
from repro.analysis.experiments import STRESS_WORKLOADS, stress_workload
from repro.errors import EngineBudgetExceeded, EngineCapabilityError
from repro.execution import ResourceBudget
from repro.queries.parser import parse_query
from repro.scenarios import scenario_schema

FIXTURE = pathlib.Path(__file__).parent / "fixtures" / "stress_1000.json"
ENGINES = ("P", "S", "G", "D")
SCENARIOS = ("bib", "lsn", "sp", "wd")

NODES = 1_000
INSTANCE_SEED = 0
WORKLOAD_SEED = 1
QUERIES_PER_CLASS = 10
ROWS_PER_NODE = 20


def _graph(scenario: str, fixture: dict):
    configuration = GraphConfiguration(fixture["nodes"], scenario_schema(scenario))
    return generate_graph(configuration, seed=fixture["instance_seed"])


def _outcome(query, graph, engine: str, max_rows: int):
    try:
        return count_distinct(
            query, graph, engine, ResourceBudget(max_rows=max_rows)
        )
    except EngineBudgetExceeded as exc:
        return {"resource": exc.resource, "amount": exc.amount}
    except EngineCapabilityError:
        return "unsupported"


def _outcomes(texts: list[str], graph, max_rows: int) -> list[dict]:
    """Every engine's outcome per text, each under a fresh row cap."""
    outcomes = []
    for text in texts:
        query = parse_query(text)
        outcomes.append(
            {engine: _outcome(query, graph, engine, max_rows)
             for engine in ENGINES}
        )
    return outcomes


def regenerate() -> dict:
    """Generate every stress workload, evaluate it on every engine."""
    fixture = {
        "nodes": NODES,
        "instance_seed": INSTANCE_SEED,
        "workload_seed": WORKLOAD_SEED,
        "queries_per_class": QUERIES_PER_CLASS,
        "max_rows": ROWS_PER_NODE * NODES,
        "scenarios": {},
    }
    for scenario in SCENARIOS:
        graph = _graph(scenario, fixture)
        families = {}
        for family in STRESS_WORKLOADS:
            workload = stress_workload(
                family, graph.config, QUERIES_PER_CLASS, seed=WORKLOAD_SEED
            )
            texts = [generated.query.to_text() for generated in workload]
            outcomes = _outcomes(texts, graph, fixture["max_rows"])
            families[family] = [
                {"text": text, **outcome} for text, outcome in zip(texts, outcomes)
            ]
        fixture["scenarios"][scenario] = families
    return fixture


@pytest.fixture(scope="module")
def stored() -> dict:
    return json.loads(FIXTURE.read_text())


def test_fixture_is_the_stress_corpus(stored):
    assert stored["max_rows"] == ROWS_PER_NODE * stored["nodes"]
    assert list(stored["scenarios"]) == list(SCENARIOS)
    for families in stored["scenarios"].values():
        assert list(families) == list(STRESS_WORKLOADS)
        for entries in families.values():
            assert len(entries) == 3 * stored["queries_per_class"]
            assert all(parse_query(entry["text"]).to_text() == entry["text"]
                       for entry in entries)


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_outcomes_match_the_fixture(stored, scenario):
    graph = _graph(scenario, stored)
    for family, entries in stored["scenarios"][scenario].items():
        texts = [entry["text"] for entry in entries]
        observed = _outcomes(texts, graph, stored["max_rows"])
        for index, (entry, outcome) in enumerate(zip(entries, observed)):
            expected = {engine: entry[engine] for engine in ENGINES}
            assert outcome == expected, (family, index, entry["text"])


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(regenerate(), indent=1) + "\n")
