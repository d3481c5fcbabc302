"""Parity: columnar CSR backend vs. the dict-of-sets reference oracle.

The CSR :class:`~repro.generation.graph.LabeledGraph` must be a
behavioural drop-in for the retained
:class:`~oracles.reference.ReferenceLabeledGraph` — identical
``statistics()``, degree arrays, ``neighbours`` results, and engine
answer sets on seeded instances — and both backends (plus
``BinaryRelation``) must be safe against callers mutating returned
sets.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.reference import ReferenceLabeledGraph
from repro.engine.evaluator import evaluate_query
from repro.engine.relations import BinaryRelation
from repro.generation.generator import generate_edge_stream
from repro.generation.graph import LabeledGraph
from repro.queries.parser import parse_query
from repro.scenarios import scenario_schema
from repro.schema.config import GraphConfiguration


def build_pair(scenario: str, n: int, seed: int):
    """The same Fig. 5 edge stream loaded into both backends."""
    config = GraphConfiguration(n, scenario_schema(scenario))
    batches = list(generate_edge_stream(config, seed=seed))
    columnar = LabeledGraph(config)
    reference = ReferenceLabeledGraph(config)
    for label, sources, targets in batches:
        columnar.add_edges(label, sources, targets)
        reference.add_edges(label, sources, targets)
    return columnar, reference


@pytest.fixture(scope="module", params=["bib", "lsn", "sp"])
def backend_pair(request):
    return build_pair(request.param, n=400, seed=11)


class TestGraphParity:
    def test_statistics_identical(self, backend_pair):
        columnar, reference = backend_pair
        assert columnar.statistics() == reference.statistics()

    def test_degree_arrays_identical(self, backend_pair):
        columnar, reference = backend_pair
        assert sorted(columnar.labels()) == sorted(reference.labels())
        for label in columnar.labels():
            assert np.array_equal(
                columnar.out_degrees(label), reference.out_degrees(label)
            ), label
            assert np.array_equal(
                columnar.in_degrees(label), reference.in_degrees(label)
            ), label

    def test_neighbours_identical_on_every_node(self, backend_pair):
        columnar, reference = backend_pair
        symbols = [l for l in columnar.labels()] + [
            l + "-" for l in columnar.labels()
        ]
        for node in range(columnar.n):
            for symbol in symbols:
                assert columnar.neighbours(node, symbol) == reference.neighbours(
                    node, symbol
                ), (node, symbol)

    def test_edge_arrays_identical(self, backend_pair):
        columnar, reference = backend_pair
        for label in columnar.labels():
            col_src, col_trg = columnar.edge_arrays(label)
            ref_src, ref_trg = reference.edge_arrays(label)
            assert np.array_equal(col_src, ref_src)
            assert np.array_equal(col_trg, ref_trg)
            assert columnar.edges_with_label(label) == reference.edges_with_label(
                label
            )

    def test_triples_identical(self, backend_pair):
        columnar, reference = backend_pair
        assert sorted(columnar.triples()) == sorted(reference.triples())

    @pytest.mark.parametrize("engine", ["datalog", "postgres", "sparql", "cypher"])
    def test_engine_answer_sets_identical(self, backend_pair, engine):
        columnar, reference = backend_pair
        labels = sorted(columnar.labels())
        first, second = labels[0], labels[-1]
        queries = [
            f"(?x, ?y) <- (?x, {first}, ?y)",
            f"(?x, ?y) <- (?x, {first}.{second}-, ?y)",
            f"(?x, ?y) <- (?x, ({first} + {second}), ?y)",
        ]
        for text in queries:
            query = parse_query(text)
            assert evaluate_query(query, columnar, engine) == evaluate_query(
                query, reference, engine
            ), text

    def test_recursive_answers_identical(self, backend_pair):
        columnar, reference = backend_pair
        label = sorted(columnar.labels())[0]
        query = parse_query(f"(?x, ?y) <- (?x, ({label})*, ?y)")
        assert evaluate_query(query, columnar, "datalog") == evaluate_query(
            query, reference, "datalog"
        )


class TestInterleavedConstruction:
    """Single-edge inserts and bulk batches must compose on one store."""

    def test_pending_edges_visible_through_every_accessor(self):
        config = GraphConfiguration(100, scenario_schema("bib"))
        graph = LabeledGraph(config)
        assert graph.add_edge(3, "authors", 7)
        assert not graph.add_edge(3, "authors", 7)
        assert graph.edge_count == 1
        assert graph.successors(3, "authors") == {7}
        inserted = graph.add_edges(
            "authors", np.array([3, 4]), np.array([7, 8])
        )
        assert inserted == 1  # (3, 7) already present
        assert graph.add_edge(4, "authors", 9)
        assert graph.neighbours(8, "authors-") == {4}
        assert graph.out_degrees("authors").sum() == 3
        assert sorted(graph.triples()) == [
            (3, "authors", 7), (4, "authors", 8), (4, "authors", 9),
        ]

    def test_has_edge(self):
        config = GraphConfiguration(100, scenario_schema("bib"))
        graph = LabeledGraph(config)
        graph.add_edge(1, "authors", 2)
        assert graph.has_edge(1, "authors", 2)
        assert not graph.has_edge(2, "authors", 1)
        assert not graph.has_edge(1, "publishedIn", 2)


class TestMutationSafety:
    """Returned sets are fresh; returned arrays are read-only views."""

    def test_graph_successors_safe_on_hit_and_miss(self):
        config = GraphConfiguration(100, scenario_schema("bib"))
        graph = LabeledGraph(config)
        graph.add_edge(1, "authors", 2)
        hit = graph.successors(1, "authors")
        hit.add(999)
        miss = graph.successors(5, "authors")
        miss.add(777)
        assert graph.successors(1, "authors") == {2}
        assert graph.successors(5, "authors") == set()

    def test_graph_arrays_read_only(self):
        config = GraphConfiguration(100, scenario_schema("bib"))
        graph = LabeledGraph(config)
        graph.add_edge(1, "authors", 2)
        view = graph.successors_array(1, "authors")
        with pytest.raises(ValueError):
            view[0] = 5
        sources, _ = graph.edge_arrays("authors")
        with pytest.raises(ValueError):
            sources[0] = 5

    def test_relation_targets_of_safe_on_hit_and_miss(self):
        relation = BinaryRelation([(1, 2), (1, 3)])
        hit = relation.targets_of(1)
        hit.add(999)
        miss = relation.targets_of(42)
        miss.add(777)
        assert relation.targets_of(1) == {2, 3}
        assert relation.targets_of(42) == set()
        assert (1, 999) not in relation

    def test_closure_targets_of_safe(self):
        closure = BinaryRelation([(0, 1), (1, 2)]).transitive_closure(
            nodes=range(4)
        )
        result = closure.targets_of(0)
        result.add(999)
        assert closure.targets_of(0) == {0, 1, 2}


PAIRS = st.lists(
    st.tuples(st.integers(0, 40), st.integers(0, 40)),
    min_size=0,
    max_size=80,
)


@pytest.mark.nightly
class TestRelationAlgebraParity:
    """Vectorized relation algebra vs. plain set semantics (oracle)."""

    @given(pairs=PAIRS)
    @settings(max_examples=40, deadline=None)
    def test_construction_and_len(self, pairs):
        relation = BinaryRelation(pairs)
        assert relation.pairs() == set(pairs)
        assert len(relation) == len(set(pairs))

    @given(left=PAIRS, right=PAIRS)
    @settings(max_examples=40, deadline=None)
    def test_union(self, left, right):
        result = BinaryRelation(left).union(BinaryRelation(right))
        assert result.pairs() == set(left) | set(right)

    @given(pairs=PAIRS)
    @settings(max_examples=40, deadline=None)
    def test_inverse(self, pairs):
        assert BinaryRelation(pairs).inverse().pairs() == {
            (t, s) for s, t in pairs
        }

    @given(left=PAIRS, right=PAIRS)
    @settings(max_examples=40, deadline=None)
    def test_compose(self, left, right):
        result = BinaryRelation(left).compose(BinaryRelation(right))
        expected = {
            (a, c) for a, b in left for b2, c in right if b == b2
        }
        assert result.pairs() == expected

    @given(pairs=PAIRS)
    @settings(max_examples=25, deadline=None)
    def test_transitive_closure(self, pairs):
        import networkx as nx

        closure = BinaryRelation(pairs).transitive_closure(nodes=range(41))
        digraph = nx.DiGraph(pairs)
        digraph.add_nodes_from(range(41))
        expected = set(nx.transitive_closure(digraph, reflexive=True).edges())
        assert closure.pairs() == expected

    @given(pairs=PAIRS, interleaved=PAIRS)
    @settings(max_examples=40, deadline=None)
    def test_interleaved_add_and_reads(self, pairs, interleaved):
        """add() staged through the pending buffer matches eager sets."""
        relation = BinaryRelation(pairs)
        oracle = set(pairs)
        for source, target in interleaved:
            assert relation.add(source, target) == ((source, target) not in oracle)
            oracle.add((source, target))
        assert relation.pairs() == oracle
        assert len(relation) == len(oracle)
