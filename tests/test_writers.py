"""Graph export writes the bytes the ``%``-template writers wrote.

:mod:`repro.generation.writers` renders every format through one row
kernel over a digit-cell table.  These tests pin it to
:mod:`oracles.reference_writers`, the formatter it replaced, byte for
byte: ids on both sides of every digit boundary, empty labels, labels,
type names and namespaces holding ``%``, spaces and non-ASCII text,
and row counts that span several chunks.
"""

from __future__ import annotations

import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.reference_writers import (
    reference_csv_tables,
    reference_edge_list,
    reference_ntriples,
)
from repro.generation import writers
from repro.generation.graph import LabeledGraph
from repro.generation.writers import (
    _digit_cells,
    write_csv_tables,
    write_edge_list,
    write_ntriples,
)
from repro.schema import GraphConfiguration, GraphSchema, fixed, proportion

#: Text the old templates had to escape or encode: ``%``, spaces, é, 日本.
TEXT = st.text(alphabet="ab%é日本 _", max_size=6)
#: CSV labels become file names, so no ``/``; the empty label is kept.
LABELS = st.lists(TEXT, min_size=1, max_size=4, unique=True)
#: Node counts just below, at and above the digit boundaries.
NODES = st.sampled_from([1, 2, 9, 10, 11, 99, 100, 101, 1000, 1001]) | st.integers(
    1, 3000
)


def decoded(cells: np.ndarray) -> list[str]:
    raw = cells.view(np.uint8).reshape(cells.size, -1)
    return [bytes(row).replace(b"\xff", b"").decode("ascii") for row in raw]


def build_graph(n, type_names, label_edges) -> LabeledGraph:
    """``type_names`` split ``n`` (the first absorbs the rest, later ones
    get at most one node each); each label gets its ``(sources,
    targets)`` columns, possibly empty."""
    schema = GraphSchema(name="writers")
    schema.add_type(type_names[0], proportion(1.0))
    for index, name in enumerate(type_names[1:], start=1):
        schema.add_type(name, fixed(int(index < n)))
    graph = LabeledGraph(GraphConfiguration(n, schema))
    for label, (sources, targets) in label_edges.items():
        graph.add_edges(label, sources, targets)
    return graph


def file_bytes(path) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


def assert_same_bytes(graph, namespace="http://example.org/gmark/"):
    with tempfile.TemporaryDirectory() as tmp:
        new, old = os.path.join(tmp, "new"), os.path.join(tmp, "old")
        assert write_edge_list(graph, new) == reference_edge_list(graph, old)
        assert file_bytes(new) == file_bytes(old)
        assert write_ntriples(graph, new, namespace) == reference_ntriples(
            graph, old, namespace
        )
        assert file_bytes(new) == file_bytes(old)
        files = write_csv_tables(graph, new + ".d")
        expected = reference_csv_tables(graph, old + ".d")
        assert list(files) == list(expected) == graph.labels()
        for label in files:
            assert file_bytes(files[label]) == file_bytes(expected[label]), label


@st.composite
def graphs(draw):
    n = draw(NODES)
    labels = draw(LABELS)
    ids = st.integers(0, n - 1)
    label_edges = {}
    for label in labels:
        pairs = draw(st.lists(st.tuples(ids, ids), max_size=40))
        columns = np.array(pairs, dtype=np.int64).reshape(-1, 2)
        label_edges[label] = (columns[:, 0], columns[:, 1])
    # Every digit boundary below n, and both ends of the id range, on
    # the first label (which may be the empty label).
    edge = [i for i in (0, 9, 10, 99, 100, 999, 1000, n - 1) if i < n]
    sources, targets = label_edges[labels[0]]
    label_edges[labels[0]] = (
        np.concatenate([sources, edge]),
        np.concatenate([targets, edge[::-1]]),
    )
    type_names = draw(st.lists(TEXT, min_size=1, max_size=3, unique=True))
    return build_graph(n, type_names, label_edges)


class TestDigitCells:
    @pytest.mark.parametrize(
        "n", [1, 2, 9, 10, 11, 99, 100, 101, 1000, 12_345, (1 << 16) + 7]
    )
    def test_cells_decode_to_the_decimal_ids(self, n):
        cells = _digit_cells(n)
        assert cells.shape == (n,)
        assert cells.dtype.itemsize == len(str(n - 1))
        assert decoded(cells) == [str(i) for i in range(n)]

    def test_padding_is_leading_only(self):
        raw = _digit_cells(1000).view(np.uint8).reshape(1000, 3)
        assert raw[7].tolist() == [0xFF, 0xFF, ord("7")]
        assert raw[42].tolist() == [0xFF, ord("4"), ord("2")]
        assert raw[999].tolist() == [ord("9")] * 3


class TestByteParity:
    @given(graph=graphs(), namespace=TEXT, chunk=st.sampled_from([1, 3, 1 << 16]))
    @settings(max_examples=60, deadline=None)
    def test_every_format_matches_the_reference(self, graph, namespace, chunk):
        with mock.patch.object(writers, "_CHUNK_ROWS", chunk):
            assert_same_bytes(graph, namespace)

    def test_rows_beyond_one_chunk(self):
        n = 123_457
        rng = np.random.default_rng(5)
        rows = writers._CHUNK_ROWS * 2 + 11
        edges = {
            "knows 50%": (rng.integers(0, n, rows), rng.integers(0, n, rows)),
            "é": (np.array([0, 9, 99, n - 1]), np.array([n - 1, 10, 100, 0])),
        }
        graph = build_graph(n, ["person", "日本 %d"], edges)
        assert sum(len(graph.edge_arrays(label)[0]) for label in graph.labels()) > (
            2 * writers._CHUNK_ROWS
        )
        assert_same_bytes(graph, "urn:x%s/日本/")

    def test_scenario_instance(self, bib_graph):
        assert_same_bytes(bib_graph)
