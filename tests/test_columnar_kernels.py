"""The sort + adjacent-mask kernels (:mod:`repro.columnar`).

``sorted_unique`` / ``merge_keys`` / ``sorted_unique_keys`` replaced
1-D ``np.unique`` on the write path and the read path, and the lexsort
kernels ``unique_rows`` / ``rows_in`` replaced ``np.unique(axis=0)``
for row matrices, so what ``np.unique`` gave for free is pinned here:
parity with the NumPy set routines on every input shape, the
no-mutation / any-integer-input contract, probes proving no write- or
read-path call reaches ``np.unique`` any more, and the validation of
what a bulk insert is handed.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.lib import _arraysetops_impl

from repro.columnar import (
    MAX_ID,
    PairStore,
    expand_indptr,
    expand_ranges,
    merge_keys,
    pack_pairs,
    rows_in,
    sorted_unique,
    sorted_unique_keys,
    unique_rows,
)
from repro.engine.closure import ClosureRelation
from repro.engine.evaluator import evaluate_query
from repro.engine.relations import BinaryRelation
from repro.engine.resultset import ResultSet
from repro.generation.generator import generate_edge_stream, generate_graph
from repro.generation.graph import LabeledGraph
from oracles.reference import ReferenceLabeledGraph
from oracles.reference_closure import transitive_closure
from oracles.tuples import pairs, rows
from oracles.reference_writers import read_edge_list
from repro.generation.writers import write_edge_list
from repro.queries.generator import generate_workload
from repro.queries.shapes import QueryShape
from repro.queries.workload import WorkloadConfiguration
from repro.scenarios import scenario_schema
from repro.schema.config import GraphConfiguration

# Small pools make duplicate-heavy and all-equal columns; the wide pool
# reaches MAX_ID - 1, the largest packable id.
_IDS = st.one_of(
    st.integers(0, 3),
    st.integers(0, 50),
    st.sampled_from([0, 1, MAX_ID - 2, MAX_ID - 1]),
    st.integers(0, MAX_ID - 1),
)
_ARRANGE = st.sampled_from(["as-is", "sorted", "reversed"])


@st.composite
def pair_columns(draw):
    """Parallel ``(first, second)`` id columns, both up to ``MAX_ID - 1``.

    Sorting the pairs sorts their packed keys, so the arrangement covers
    already-sorted and reverse-sorted key columns too.
    """
    pairs = draw(st.lists(st.tuples(_IDS, _IDS), max_size=60))
    arrangement = draw(_ARRANGE)
    if arrangement != "as-is":
        pairs = sorted(pairs, reverse=arrangement == "reversed")
    columns = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    return columns[:, 0], columns[:, 1]


def key_columns():
    """Packed (not deduplicated) key columns of :func:`pair_columns`."""
    return pair_columns().map(lambda columns: pack_pairs(*columns))


def assert_column(result: np.ndarray, expected: np.ndarray) -> None:
    assert result.dtype == np.int64
    assert result.flags.c_contiguous and result.flags.writeable
    assert np.array_equal(result, expected)


class TestParityWithNumpy:
    @given(key_columns())
    @settings(max_examples=200, deadline=None)
    def test_sorted_unique_is_np_unique(self, keys):
        assert_column(sorted_unique(keys), np.unique(keys))

    @given(key_columns(), key_columns())
    @settings(max_examples=200, deadline=None)
    def test_merge_keys_is_union1d(self, existing, extra):
        # merge_keys takes canonical (sorted unique) columns.
        existing, extra = np.unique(existing), np.unique(extra)
        assert np.array_equal(
            merge_keys(existing, extra), np.union1d(existing, extra)
        )

    @given(pair_columns())
    @settings(max_examples=200, deadline=None)
    def test_sorted_unique_keys_is_unique_of_pack(self, columns):
        first, second = columns
        expected = np.unique(pack_pairs(first, second))
        assert_column(sorted_unique_keys(first, second), expected)

    @pytest.mark.parametrize(
        "values",
        [
            [],
            [7],
            [5, 5, 5, 5],
            [1, 2, 3, 4],
            [4, 3, 2, 1],
            [((MAX_ID - 1) << 32) | (MAX_ID - 1), 0, 0],
        ],
        ids=["empty", "single", "all-equal", "sorted", "reversed", "max-key"],
    )
    def test_named_shapes(self, values):
        keys = np.asarray(values, dtype=np.int64)
        assert_column(sorted_unique(keys), np.unique(keys))
        assert np.array_equal(
            merge_keys(keys[:1], np.unique(keys)), np.unique(keys)
        )


class TestKernelContract:
    """What ``np.unique`` guaranteed and the in-place sort must keep."""

    def test_inputs_are_never_mutated(self):
        existing = np.array([2, 5, 9], dtype=np.int64)
        extra = np.array([9, 1, 5, 1, 7], dtype=np.int64)
        before = existing.copy(), extra.copy()
        merged = merge_keys(existing, sorted_unique(extra))
        assert np.array_equal(existing, before[0])
        assert np.array_equal(extra, before[1])
        assert merged.tolist() == [1, 2, 5, 7, 9]

    def test_read_only_input(self):
        extra = np.array([3, 1, 3, 2], dtype=np.int64)
        extra.setflags(write=False)
        existing = np.array([0, 2], dtype=np.int64)
        existing.setflags(write=False)
        assert_column(sorted_unique(extra), np.array([1, 2, 3]))
        assert_column(
            merge_keys(existing, sorted_unique(extra)), np.array([0, 1, 2, 3])
        )
        assert extra.tolist() == [3, 1, 3, 2]

    def test_non_contiguous_and_narrow_integer_input(self):
        strided = np.array([9, 0, 4, 0, 9, 0, 1, 0], dtype=np.int64)[::2]
        assert not strided.flags.c_contiguous
        assert_column(sorted_unique(strided), np.array([1, 4, 9]))
        narrow = np.array([3, 1, 3], dtype=np.int32)
        assert_column(sorted_unique(narrow), np.array([1, 3]))
        assert_column(sorted_unique([2, 2, 0]), np.array([0, 2]))

    def test_result_is_fresh(self):
        for values in ([], [4], [1, 2, 3]):
            keys = np.asarray(values, dtype=np.int64)
            result = sorted_unique(keys)
            assert not np.shares_memory(result, keys)
            assert result.flags.writeable

    def test_pack_pairs_column_survives_sorted_unique_keys(self):
        first = np.array([3, 1, 3], dtype=np.int64)
        second = np.array([0, 2, 0], dtype=np.int64)
        keys = sorted_unique_keys(first, second)
        assert first.tolist() == [3, 1, 3] and second.tolist() == [0, 2, 0]
        assert keys.tolist() == [(1 << 32) | 2, 3 << 32]

    def test_store_column_survives_a_batch_merge(self):
        store = PairStore(domain_size=10)
        store.add_batch([4, 1], [2, 3])
        held = store.keys
        snapshot = held.copy()
        store.add_batch([0, 4, 9, 0], [0, 2, 9, 0])
        assert np.array_equal(held, snapshot)
        assert len(store) == 4
        store.self_check()


class TestGatherKernels:
    """``expand_ranges`` and the CSR gather built on it."""

    @given(
        ranges=st.lists(st.tuples(st.integers(0, 20), st.integers(0, 5)), max_size=12)
    )
    @settings(max_examples=60, deadline=None)
    def test_expand_ranges_concatenates_the_ranges(self, ranges):
        payload = np.arange(100, 126, dtype=np.int64)
        lo = np.array([start for start, _ in ranges], dtype=np.int64)
        counts = np.array([length for _, length in ranges], dtype=np.int64)
        seen = []
        probe_index, values = expand_ranges(lo, counts, payload, seen.append)
        assert seen == [int(counts.sum())]
        assert values.tolist() == [
            v for start, length in ranges for v in payload[start:start + length]
        ]
        assert probe_index.tolist() == [
            i for i, (_, length) in enumerate(ranges) for _ in range(length)
        ]

    def test_expand_indptr_gathers_csr_rows(self):
        indptr = np.array([0, 2, 2, 5], dtype=np.int64)
        payload = np.array([7, 8, 1, 2, 3], dtype=np.int64)
        probe_index, values = expand_indptr(np.array([2, 1, 0]), indptr, payload)
        assert probe_index.tolist() == [0, 0, 0, 2, 2]
        assert values.tolist() == [1, 2, 3, 7, 8]


def row_tables(width=st.integers(1, 4)):
    """``(n, k)`` row matrices, n = 0..200: values 0..3 make duplicate
    rows common."""
    shape = st.tuples(st.integers(0, 200), width)
    return arrays(np.int64, shape, elements=st.integers(0, 3))


@st.composite
def unique_row_pairs(draw):
    """Two unique-row matrices of one width (``rows_in``'s contract)."""
    width = st.just(draw(st.integers(1, 4)))
    candidates, existing = draw(row_tables(width)), draw(row_tables(width))
    return np.unique(candidates, axis=0), np.unique(existing, axis=0)


def assert_rows(result: np.ndarray, expected: np.ndarray) -> None:
    assert result.dtype == np.int64
    assert result.flags.c_contiguous and result.flags.writeable
    assert result.shape == expected.shape
    assert np.array_equal(result, expected)


def membership_oracle(candidates: np.ndarray, existing: np.ndarray) -> list[bool]:
    present = set(map(tuple, existing.tolist()))
    return [tuple(row) in present for row in candidates.tolist()]


def read_only(table: np.ndarray) -> np.ndarray:
    table = table.copy()
    table.setflags(write=False)
    return table


class TestRowKernels:
    """``unique_rows`` / ``rows_in`` against ``np.unique(axis=0)`` and a
    set-of-tuples oracle."""

    @given(row_tables(st.integers(0, 4)))
    @settings(max_examples=200, deadline=None)
    def test_unique_rows_is_np_unique_axis0(self, table):
        # k = 0 is a Boolean head: every row is the empty tuple.
        assert_rows(unique_rows(table), np.unique(table, axis=0))

    @pytest.mark.parametrize(
        "view",
        [
            lambda t: t.astype(np.int32),
            read_only,
            lambda t: t[::2],
            lambda t: t[:, [2, 0]],
        ],
        ids=["int32", "read-only", "strided", "fancy-indexed"],
    )
    @pytest.mark.parametrize("n", [0, 1, 6])
    def test_unique_rows_input_contract(self, view, n):
        base = np.array(
            [[3, 1, 0], [0, 2, 2], [3, 1, 0], [1, 0, 2], [0, 2, 2], [3, 0, 1]],
            dtype=np.int64,
        )
        table = view(base[:n])
        snapshot = table.copy()
        result = unique_rows(table)
        assert_rows(result, np.unique(table, axis=0))
        assert table.dtype == snapshot.dtype and np.array_equal(table, snapshot)
        assert not np.shares_memory(result, table)

    @given(unique_row_pairs())
    @settings(max_examples=200, deadline=None)
    def test_rows_in_is_tuple_membership(self, tables):
        candidates, existing = tables
        mask = rows_in(candidates, existing)
        assert mask.dtype == bool
        assert mask.tolist() == membership_oracle(candidates, existing)

    @pytest.mark.parametrize("empty", ["candidates", "existing", "both"])
    def test_rows_in_with_an_empty_side(self, empty):
        table = np.array([[0, 1, 2], [3, 4, 5]], dtype=np.int64)
        none = np.zeros((0, 3), dtype=np.int64)
        candidates = none if empty != "existing" else table
        existing = none if empty != "candidates" else table
        mask = rows_in(candidates, existing)
        assert mask.dtype == bool
        assert mask.tolist() == membership_oracle(candidates, existing)


SCENARIOS = ["bib", "lsn", "sp", "wd"]


def assert_equals_reference(graph, reference) -> None:
    assert graph.statistics() == reference.statistics()
    for label in reference.labels():
        for ours, theirs in zip(
            graph.edge_arrays(label), reference.edge_arrays(label)
        ):
            assert np.array_equal(ours, theirs), label


@pytest.fixture
def forbid_unique(monkeypatch):
    """Write- and read-path probe: ``with forbid_unique():`` makes every
    ``np.unique`` call raise, ``axis=`` calls included.

    NumPy's own set routines (``union1d``, ``setdiff1d``, ...) call the
    module-level ``unique`` rather than ``np.unique``, so both names are
    patched.  Scoped, so the oracle and the final comparisons may still
    use it.
    """

    @contextmanager
    def scope():
        def guarded(*args, **kwargs):
            raise AssertionError("np.unique reached")

        with monkeypatch.context() as patch:
            patch.setattr(np, "unique", guarded)
            patch.setattr(_arraysetops_impl, "unique", guarded)
            yield

    return scope


class TestWritePathAvoidsNpUnique:
    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_generate_graph(self, scenario, forbid_unique):
        config = GraphConfiguration(2000, scenario_schema(scenario))
        reference = ReferenceLabeledGraph(config)
        for label, sources, targets in generate_edge_stream(config, seed=5):
            reference.add_edges(label, sources, targets)
        with forbid_unique():
            graph = generate_graph(config, seed=5)
            graph.self_check()
        assert_equals_reference(graph, reference)

    def test_add_edges_with_duplicates(self, bib_config, forbid_unique):
        graph = LabeledGraph(bib_config)
        with forbid_unique():
            assert graph.add_edges("a", [3, 1, 3, 1, 2], [4, 0, 4, 0, 2]) == 3
            assert graph.add_edges("a", [2, 5, 5], [2, 1, 1]) == 1
            graph.self_check()
        sources, targets = graph.edge_arrays("a")
        assert sources.tolist() == [1, 2, 3, 5]
        assert targets.tolist() == [0, 2, 4, 1]

    def test_read_edge_list_round_trip(self, bib_graph, tmp_path, forbid_unique):
        path = tmp_path / "graph.txt"
        write_edge_list(bib_graph, path)
        with forbid_unique():
            restored = read_edge_list(path, bib_graph.config)
            restored.self_check()
        assert_equals_reference(restored, bib_graph)

    def test_relation_from_arrays(self, forbid_unique):
        with forbid_unique():
            relation = BinaryRelation.from_arrays([5, 2, 5, 2], [1, 9, 1, 8], 10)
        assert pairs(relation) == {(2, 8), (2, 9), (5, 1)}


@pytest.fixture(scope="module")
def bib_graph_400():
    return generate_graph(GraphConfiguration(400, scenario_schema("bib")), seed=11)


def bib_400_workload(graph, shape):
    return generate_workload(
        WorkloadConfiguration(
            graph.config,
            size=4,
            arities=(1, 2, 3),
            shapes=(shape,),
            recursion_probability=0.5,
        ),
        seed=3,
    )


class TestReadPathAvoidsNpUnique:
    @pytest.mark.parametrize("shape", list(QueryShape), ids=lambda s: s.value)
    def test_s_and_d_evaluate_a_workload(self, bib_graph_400, shape, forbid_unique):
        workload = bib_400_workload(bib_graph_400, shape)
        with forbid_unique():
            answers = [
                [evaluate_query(generated.query, bib_graph_400, engine)
                 for engine in ("sparql", "datalog")]
                for generated in workload
            ]
        for sparql, datalog in answers:
            assert sparql == datalog

    @pytest.mark.parametrize("shape", list(QueryShape), ids=lambda s: s.value)
    def test_g_evaluates_a_workload(self, bib_graph_400, shape, forbid_unique):
        workload = bib_400_workload(bib_graph_400, shape)
        queries = [generated.query for generated in workload]
        with forbid_unique():
            probed = [evaluate_query(q, bib_graph_400, "cypher") for q in queries]
        assert probed == [evaluate_query(q, bib_graph_400, "cypher") for q in queries]

    @pytest.mark.parametrize("shape", list(QueryShape), ids=lambda s: s.value)
    def test_p_evaluates_a_workload(self, bib_graph_400, shape, forbid_unique):
        """P's paths, disjunctions and naive star fixpoint are all
        packed-key relation algebra."""
        workload = bib_400_workload(bib_graph_400, shape)
        queries = [generated.query for generated in workload]
        assert any(
            conjunct.regex.starred
            for query in queries for rule in query.rules for conjunct in rule.body
        )
        with forbid_unique():
            probed = [evaluate_query(q, bib_graph_400, "postgres") for q in queries]
        assert probed == [evaluate_query(q, bib_graph_400, "datalog") for q in queries]

    def test_relation_closure_and_gather(self, forbid_unique):
        relation = BinaryRelation.from_arrays([0, 1, 2, 5], [1, 2, 0, 5], 6)
        with forbid_unique():
            closure = transitive_closure(relation)
            probes = np.array([5, 2, 5])
            probe_index, targets = ClosureRelation(relation, 6).gather(probes, True)
        cycle = {(s, t) for s in range(3) for t in range(3)}
        assert pairs(closure) == cycle | {(5, 5)}
        assert sorted(zip(probe_index.tolist(), targets.tolist())) == [
            (0, 5), (1, 0), (1, 1), (1, 2), (2, 5)
        ]

    def test_result_set_from_unsorted_tables(self, forbid_unique):
        with forbid_unique():
            column = ResultSet.from_table(np.array([[4], [1], [4], [0]]))
            binary = ResultSet.from_table(np.array([[3, 1], [0, 2], [3, 1]]))
            ids = ResultSet.from_column(np.array([9, 2, 9]))
        assert [c.tolist() for c in column.arrays()] == [[0, 1, 4]]
        assert [c.tolist() for c in binary.arrays()] == [[0, 3], [2, 1]]
        assert [c.tolist() for c in ids.arrays()] == [[2, 9]]

    def test_ternary_result_set_algebra(self, forbid_unique):
        mine_rows = np.array([[2, 0, 1], [0, 5, 5], [2, 0, 1], [1, 1, 1]])
        their_rows = np.array([[1, 1, 1], [7, 0, 0], [0, 5, 4]])
        with forbid_unique():
            mine = ResultSet.from_table(mine_rows)
            theirs = ResultSet.from_table(their_rows)
            union = mine.union(theirs)
            difference = mine.difference(theirs)
        assert [c.tolist() for c in mine.arrays()] == [[0, 1, 2], [5, 1, 0], [5, 1, 1]]
        assert rows(union) == {(0, 5, 4), (0, 5, 5), (1, 1, 1), (2, 0, 1), (7, 0, 0)}
        assert rows(difference) == {(0, 5, 5), (2, 0, 1)}


class TestBulkInsertValidation:
    """``add_edges`` is reachable from a file through ``read_edge_list``."""

    def test_unequal_lengths_do_not_broadcast(self, bib_config):
        graph = LabeledGraph(bib_config)
        with pytest.raises(ValueError, match=r"label 'x'.*equal length"):
            graph.add_edges("x", [1, 2, 3], [4])
        with pytest.raises(ValueError, match=r"label 'x'.*equal length"):
            graph.add_edges("x", [], [4])
        assert graph.edge_count == 0

    def test_two_dimensional_columns_are_rejected(self, bib_config):
        graph = LabeledGraph(bib_config)
        with pytest.raises(ValueError, match=r"label 'x'.*1-D"):
            graph.add_edges("x", [[1, 2], [3, 4]], [[5, 6], [7, 8]])
        assert graph.edge_count == 0

    def test_ids_beyond_the_domain_fail_at_the_insert(self, bib_config):
        graph = LabeledGraph(bib_config)
        n = graph.n
        with pytest.raises(ValueError) as raised:
            graph.add_edges("y", [n + 4000], [4])
        message = str(raised.value)
        assert "'y'" in message and f"[0, {n})" in message
        assert f"[{n + 4000}, {n + 4000}]" in message
        with pytest.raises(ValueError, match=r"label 'y'"):
            graph.add_edges("y", [1], [-1])
        graph.add_edges("y", [n - 1], [0])
        assert graph.out_degrees("y")[n - 1] == 1

    def test_rejected_batch_leaves_the_store_untouched(self):
        store = PairStore(domain_size=10)
        store.add_batch([1], [2])
        with pytest.raises(ValueError, match=r"\[0, 10\)"):
            store.add_batch([3, 10], [4, 5])
        assert len(store) == 1
        store.self_check()
        unbounded = PairStore()
        assert unbounded.add_batch([MAX_ID - 1], [0]) == 1
        with pytest.raises(ValueError):
            unbounded.add_batch([MAX_ID], [0])

    def test_edge_file_exceeding_its_configuration(self, bib_config, tmp_path):
        path = tmp_path / "too_big.txt"
        n = bib_config.total_nodes
        path.write_text(f"0 cites 1\n{n + 7} cites 2\n", encoding="utf-8")
        with pytest.raises(ValueError, match=rf"label 'cites'.*\[0, {n + 7}\]"):
            read_edge_list(path, bib_config)
