"""Parity: columnar CSR backend vs. the dict-of-sets reference oracle.

The CSR :class:`~repro.generation.graph.LabeledGraph` must be a
behavioural drop-in for the retained
:class:`~oracles.reference.ReferenceLabeledGraph` — identical
``statistics()``, degree arrays, per-node CSR slices, edge sets and
engine answer sets on seeded instances — and the columnar backend must
see every batch through every accessor and hand out read-only arrays.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.reference import ReferenceLabeledGraph
from oracles.tuples import materialised, pairs as pair_set
from repro.columnar import PairStore, keys_contain_many, pack_pairs, unpack_keys
from repro.engine.closure import ClosureRelation
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
                assert columnar.neighbours_array(node, symbol).tolist() == sorted(
                    reference.neighbours(node, symbol)
                ), (node, symbol)

    def test_edge_arrays_identical(self, backend_pair):
        columnar, reference = backend_pair
        for label in columnar.labels():
            col_src, col_trg = columnar.edge_arrays(label)
            ref_src, ref_trg = reference.edge_arrays(label)
            assert np.array_equal(col_src, ref_src)
            assert np.array_equal(col_trg, ref_trg)

    def test_triples_identical(self, backend_pair):
        """The packed key columns hold exactly the reference's edge sets."""
        columnar, reference = backend_pair
        columnar_triples = {
            (source, label, target)
            for label in columnar.labels()
            for source, target in zip(
                *(column.tolist() for column in unpack_keys(columnar.edge_keys(label)))
            )
        }
        reference_triples = {
            (source, label, target)
            for label in reference.labels()
            for source, target in reference.edges_with_label(label)
        }
        assert columnar_triples == reference_triples

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
    """Bulk batches and reads interleave on one store: every read after
    a batch sees it, including the lazily built CSR indexes."""

    def test_batches_visible_through_every_accessor(self):
        config = GraphConfiguration(100, scenario_schema("bib"))
        graph = LabeledGraph(config)
        assert graph.add_edges("authors", [3], [7]) == 1
        assert graph.add_edges("authors", [3], [7]) == 0
        assert graph.edge_count == 1
        # Build both CSR directions, then write again: they must refresh.
        assert graph.successors_array(3, "authors").tolist() == [7]
        assert graph.in_degrees("authors")[7] == 1
        assert graph.add_edges("authors", [3, 4], [7, 8]) == 1  # (3, 7) present
        assert graph.add_edges("authors", [4], [9]) == 1
        assert graph.neighbours_array(8, "authors-").tolist() == [4]
        assert graph.successors_array(4, "authors").tolist() == [8, 9]
        assert graph.out_degrees("authors").sum() == 3
        indptr, payload = graph.csr_arrays("authors")
        assert payload[indptr[4]:indptr[5]].tolist() == [8, 9]
        sources, targets = graph.edge_arrays("authors")
        assert list(zip(sources.tolist(), targets.tolist())) == [
            (3, 7), (4, 8), (4, 9),
        ]

    def test_edge_membership_via_keys(self):
        config = GraphConfiguration(100, scenario_schema("bib"))
        graph = LabeledGraph(config)
        graph.add_edges("authors", [1], [2])
        probes = pack_pairs(np.array([1, 2]), np.array([2, 1]))
        assert keys_contain_many(graph.edge_keys("authors"), probes).tolist() == [
            True, False,
        ]
        assert not keys_contain_many(graph.edge_keys("publishedIn"), probes).any()


class TestMutationSafety:
    """Returned arrays are read-only views, on hit and miss alike."""

    def test_graph_arrays_read_only(self):
        config = GraphConfiguration(100, scenario_schema("bib"))
        graph = LabeledGraph(config)
        graph.add_edges("authors", [1], [2])
        view = graph.successors_array(1, "authors")
        with pytest.raises(ValueError):
            view[0] = 5
        sources, _ = graph.edge_arrays("authors")
        with pytest.raises(ValueError):
            sources[0] = 5

    def test_graph_arrays_read_only_on_miss(self):
        config = GraphConfiguration(100, scenario_schema("bib"))
        graph = LabeledGraph(config)
        graph.add_edges("authors", [1], [2])
        misses = [
            graph.successors_array(5, "authors"),
            graph.predecessors_array(5, "authors"),
            graph.successors_array(1, "publishedIn"),
            graph.neighbours_array(1, "publishedIn-"),
            *graph.edge_arrays("publishedIn"),
            graph.edge_keys("publishedIn"),
        ]
        for miss in misses:
            assert miss.size == 0 and not miss.flags.writeable
        assert graph.successors_array(1, "authors").tolist() == [2]

    def test_relation_arrays_read_only(self):
        relation = BinaryRelation.from_arrays([1, 1, 3], [2, 3, 1], 4)
        columns = [
            relation.source_array,
            relation.target_array,
            relation.key_array,
            relation.sources(),
            *relation.gather(None, True),
            *relation.gather(None, False),
            *relation.gather(np.array([1, 3]), True),
            *relation.gather(np.array([1, 3]), False),
        ]
        for column in columns:
            with pytest.raises(ValueError):
                column[0] = 999
        assert pair_set(relation) == {(1, 2), (1, 3), (3, 1)}

    @pytest.mark.parametrize("forward", [True, False])
    def test_closure_gather_read_only_on_hit_and_miss(self, forward):
        closure = ClosureRelation(relation_of([(0, 1), (1, 2)]), 4)
        hit = closure.gather(np.array([0, 2]), forward)
        miss = closure.gather(np.array([], dtype=np.int64), forward)
        for column in hit:
            with pytest.raises(ValueError):
                column[0] = 999
        assert all(column.size == 0 for column in miss)
        assert not any(column.flags.writeable for column in miss)
        again = materialised(closure, forward, np.array([0, 2]))
        expected = [(0, 0), (0, 1), (0, 2), (2, 2)]
        if not forward:
            expected = [(0, 0), (2, 0), (2, 1), (2, 2)]
        assert pair_set(again) == set(expected)


def relation_of(pairs) -> BinaryRelation:
    """The relation of a list of (source, target) tuples over the 41
    nodes ``PAIRS`` draws from."""
    columns = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    return BinaryRelation.from_arrays(columns[:, 0], columns[:, 1], 41)


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
        relation = relation_of(pairs)
        assert pair_set(relation) == set(pairs)
        assert len(relation) == len(set(pairs))

    @given(left=PAIRS, right=PAIRS)
    @settings(max_examples=40, deadline=None)
    def test_union(self, left, right):
        result = relation_of(left).union(relation_of(right))
        assert pair_set(result) == set(left) | set(right)

    @given(pairs=PAIRS)
    @settings(max_examples=40, deadline=None)
    def test_inverse(self, pairs):
        """The backward gather from every node is the inverse."""
        assert pair_set(materialised(relation_of(pairs), forward=False)) == {
            (t, s) for s, t in pairs
        }

    @given(left=PAIRS, right=PAIRS)
    @settings(max_examples=40, deadline=None)
    def test_compose(self, left, right):
        result = relation_of(left).compose(relation_of(right))
        expected = {
            (a, c) for a, b in left for b2, c in right if b == b2
        }
        assert pair_set(result) == expected

    @given(pairs=PAIRS, batches=st.lists(PAIRS, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_interleaved_batches_and_reads(self, pairs, batches):
        """Batches merged one after another, with index reads between
        them, match eager set semantics after every batch."""
        store = PairStore(domain_size=41)
        oracle: set[tuple[int, int]] = set()
        for batch in [pairs, *batches]:
            columns = np.array(batch, dtype=np.int64).reshape(-1, 2)
            assert store.add_batch(columns[:, 0], columns[:, 1]) == len(
                set(batch) - oracle
            )
            oracle |= set(batch)
            store.self_check()
            assert set(zip(store.first.tolist(), store.second.tolist())) == oracle
            seconds, firsts = store.backward()
            assert set(zip(firsts.tolist(), seconds.tolist())) == oracle
            assert np.diff(store.forward_indptr()).sum() == len(oracle)

    @given(
        pairs=st.lists(
            st.tuples(
                st.integers(0, (1 << 31) - 1), st.integers(0, (1 << 31) - 1)
            )
            | st.tuples(st.integers(0, 12), st.integers(0, 12)),
            max_size=80,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_backward_matches_a_stable_argsort(self, pairs):
        """The swapped-key sort gives the columns a stable argsort of
        ``second`` followed by two gathers gives, read-only."""
        store = PairStore()
        columns = np.array(pairs, dtype=np.int64).reshape(-1, 2)
        store.add_batch(columns[:, 0], columns[:, 1])
        order = np.argsort(store.second, kind="stable")
        seconds, firsts = store.backward()
        assert np.array_equal(seconds, store.second[order])
        assert np.array_equal(firsts, store.first[order])
        assert seconds.dtype == firsts.dtype == np.int64
        assert not seconds.flags.writeable and not firsts.flags.writeable
        assert store.backward() is store.backward()
