"""Frontier RPQ parity: vectorized sweep vs. the seed per-source BFS.

The frontier :class:`~repro.engine.bfs.SparqlLikeEngine` must return
the identical relation as the retained
:class:`~oracles.reference_bfs.ReferenceSparqlEngine` on random
graphs × random UCRPQ shapes (including inverse symbols, disjunction,
and outermost Kleene star), on both graph backends; and the three
homomorphic engines (P, S, D) must agree on generated non-recursive
workloads.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles.reference import ReferenceLabeledGraph
from oracles.reference_bfs import ReferenceSparqlEngine
from oracles.tuples import rows
from repro.engine.bfs import SparqlLikeEngine
from repro.engine.automaton import build_nfa
from repro.engine.evaluator import evaluate_query
from repro.generation.generator import generate_graph
from repro.generation.graph import LabeledGraph
from repro.queries.ast import (
    PathExpression,
    RegularExpression,
    binary_path_query,
)
from repro.queries.generator import generate_workload
from repro.queries.size import QuerySize
from repro.queries.workload import WorkloadConfiguration
from repro.schema.config import GraphConfiguration
from repro.schema.constraints import proportion
from repro.schema.distributions import GaussianDistribution, ZipfianDistribution
from repro.schema.schema import GraphSchema

FRONTIER = SparqlLikeEngine()
REFERENCE = ReferenceSparqlEngine()


def _tiny_schema() -> GraphSchema:
    """A two-label schema for hand-built random instances."""
    schema = GraphSchema(name="frontier-parity")
    schema.add_type("T", proportion(1.0))
    for label in ("a", "b"):
        schema.add_edge(
            "T", "T", label,
            in_dist=GaussianDistribution(2.0, 1.0),
            out_dist=ZipfianDistribution(2.5, 2.0),
        )
    return schema


def _build_graphs(n: int, edges: dict[str, list[tuple[int, int]]]):
    config = GraphConfiguration(n, _tiny_schema())
    columnar = LabeledGraph(config)
    reference = ReferenceLabeledGraph(config)
    for label, pairs in edges.items():
        if not pairs:
            continue
        arr = np.asarray(pairs, dtype=np.int64)
        columnar.add_edges(label, arr[:, 0], arr[:, 1])
        reference.add_edges(label, arr[:, 0], arr[:, 1])
    return columnar, reference


N = 24
_edges = st.lists(
    st.tuples(st.integers(0, N - 1), st.integers(0, N - 1)),
    min_size=0,
    max_size=60,
)
_symbols = st.sampled_from(["a", "b", "a-", "b-"])
_paths = st.lists(_symbols, min_size=0, max_size=3).map(
    lambda s: PathExpression(tuple(s))
)
_regexes = st.builds(
    RegularExpression,
    st.lists(_paths, min_size=1, max_size=3).map(tuple),
    st.booleans(),
)


class TestFrontierMatchesReferenceBfs:
    @pytest.mark.nightly
    @given(a_edges=_edges, b_edges=_edges, regex=_regexes)
    @settings(max_examples=60, deadline=None)
    def test_random_graph_random_regex(self, a_edges, b_edges, regex):
        """Property: identical relations on random graphs × regexes."""
        columnar, _ = _build_graphs(N, {"a": a_edges, "b": b_edges})
        query = binary_path_query(regex)
        assert FRONTIER.evaluate(query, columnar) == REFERENCE.evaluate(
            query, columnar
        ), regex.to_text()

    @pytest.mark.nightly
    @given(a_edges=_edges, regex=_regexes)
    @settings(max_examples=25, deadline=None)
    def test_backends_interchangeable(self, a_edges, regex):
        """The sweep runs on the dict-of-sets backend too (CSR fallback)."""
        columnar, reference_graph = _build_graphs(N, {"a": a_edges})
        query = binary_path_query(regex)
        assert FRONTIER.evaluate(query, columnar) == FRONTIER.evaluate(
            query, reference_graph
        ), regex.to_text()

    def test_empty_graph(self):
        columnar, _ = _build_graphs(5, {})
        query = binary_path_query(
            RegularExpression((PathExpression(("a",)),), starred=True)
        )
        # ε matches every node under UCRPQ star semantics.
        assert rows(FRONTIER.evaluate(query, columnar)) == {
            (v, v) for v in range(5)
        }


@pytest.fixture(scope="module")
def bib_graph_700():
    from repro.scenarios import bib_schema

    return generate_graph(GraphConfiguration(700, bib_schema()), seed=23)


class TestCrossEngineAgreement:
    @pytest.mark.nightly
    @given(seed=st.integers(0, 400))
    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_psd_agree_on_nonrecursive_workloads(self, bib_graph_700, seed):
        """P, S, and D answer generated non-recursive homomorphic
        workloads identically (the Datalog engine as ground truth)."""
        workload = generate_workload(
            WorkloadConfiguration(
                bib_graph_700.config,
                size=3,
                recursion_probability=0.0,
                query_size=QuerySize(
                    conjuncts=(1, 2), disjuncts=(1, 2), length=(1, 3)
                ),
            ),
            seed=seed,
        )
        for generated in workload:
            datalog = evaluate_query(generated.query, bib_graph_700, "datalog")
            for name in ("postgres", "sparql"):
                assert (
                    evaluate_query(generated.query, bib_graph_700, name)
                    == datalog
                ), (name, generated.query.to_text())

    def test_frontier_matches_reference_on_recursion(self, bib_graph_700):
        from repro.queries.parser import parse_query

        query = parse_query("(?x, ?y) <- (?x, (authors.authors-)*, ?y)")
        assert FRONTIER.evaluate(query, bib_graph_700) == REFERENCE.evaluate(
            query, bib_graph_700
        )


class TestNfaMemoization:
    def test_equal_regexes_share_one_nfa(self):
        first = RegularExpression(
            (PathExpression(("a", "b-")), PathExpression(("c",))), True
        )
        second = RegularExpression(
            (PathExpression(("a", "b-")), PathExpression(("c",))), True
        )
        assert first is not second
        assert build_nfa(first) is build_nfa(second)

    def test_transition_table_groups_per_symbol(self):
        regex = RegularExpression(
            (PathExpression(("a",)), PathExpression(("a", "b"))), False
        )
        table = build_nfa(regex).transition_table()
        # Both 'a' disjunct heads leave the start state: one grouped
        # move with two target states instead of two scalar entries.
        start_moves = dict(table[build_nfa(regex).start])
        assert len(start_moves["a"]) == 2
