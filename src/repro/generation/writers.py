"""Instance serialisation (Fig. 1: "Graph instance file").

gMark emits graphs in formats compatible with the supported query
languages: N-triples for RDF/SPARQL systems, a whitespace edge list for
graph engines, and per-predicate CSV tables for relational loading
(one two-column table per predicate, the standard UCRPQ-over-SQL
encoding).

Every format is lines of literal text around decimal node ids, and one
row kernel writes them all as bytes.  :func:`_digit_cells` renders the
digits of every id once per writer call; :func:`_write_rows` gathers a
chunk's cells into a structured buffer between the encoded literals,
drops the pad bytes and writes what is left.  No Python object is made
per edge.

Writers resolve by format name through the shared
:class:`~repro.registry.Registry` (``GRAPH_WRITERS``): the CLI's
``--format`` flag and :func:`write_graph` both look up there, so new
serialisations plug in with one ``@GRAPH_WRITERS.register`` decorator.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import IO, Iterator, Sequence

import numpy as np

from repro.execution.faults import FAULTS, fault_point
from repro.generation.graph import LabeledGraph
from repro.ioutil import atomic_open
from repro.registry import Registry

#: Format name -> ``writer(graph, path) -> count/mapping``.
GRAPH_WRITERS: Registry = Registry("graph format", error_type=KeyError)

_FP_SERIALIZE = fault_point("writers.serialize")


def write_graph(graph: LabeledGraph, path: str | os.PathLike, format: str = "edges"):
    """Serialise ``graph`` in the named format (one of ``GRAPH_WRITERS``)."""
    return GRAPH_WRITERS[format](graph, path)


@contextmanager
def _open_for_write(path: str | os.PathLike) -> Iterator[IO[bytes]]:
    """Atomic serialisation: write a sibling temp file, rename on success.

    A failure mid-write (out of disk, a crash, an injected fault) leaves
    any pre-existing file at ``path`` untouched and removes the partial
    temp file — readers never observe a half-written instance (see
    :func:`repro.ioutil.atomic_open`, the shared discipline also behind
    the abort-report and profile NDJSON writers).  Writers get the
    binary layer of the UTF-8 text handle.
    """
    with atomic_open(path) as handle:
        FAULTS.hit(_FP_SERIALIZE)
        yield handle.buffer


#: Rows per chunk of the row kernel and of the digit-table build.
_CHUNK_ROWS = 1 << 16

#: Leading pad byte of a digit cell.  0xFF never occurs in UTF-8, so
#: dropping every 0xFF byte of a row buffer drops exactly the padding.
_PAD = 0xFF


def _digit_cells(n: int) -> np.ndarray:
    """Decimal digits of ids ``0 … n-1``, right-aligned in ``V{D}`` cells.

    ``D`` is the digit count of ``n-1`` and unused leading bytes are
    :data:`_PAD`.  The table is built in :data:`_CHUNK_ROWS` slices of
    ids, so the build adds one slice's temporaries to the table's own
    ``n·D`` bytes.
    """
    width = len(str(n - 1))
    table = np.empty((n, width), dtype=np.uint8)
    for lo in range(0, n, _CHUNK_ROWS):
        ids = np.arange(lo, min(lo + _CHUNK_ROWS, n), dtype=np.int64)
        block = table[lo : lo + ids.size]
        block[:, -1] = ids % 10 + ord("0")
        for place in range(2, width + 1):
            ids //= 10
            block[:, -place] = np.where(ids > 0, ids % 10 + ord("0"), _PAD)
    return table.view(f"V{width}").reshape(n)


def _write_rows(
    handle: IO[bytes],
    cells: np.ndarray,
    fragments: Sequence[str],
    columns: Sequence[np.ndarray],
) -> None:
    """Write ``fragments[0] col0 fragments[1] col1 … fragments[-1]`` per row.

    ``columns`` are equally long id columns and ``fragments`` the
    ``len(columns) + 1`` literal pieces around them, UTF-8 encoded.  A
    chunk of rows is one structured buffer whose fields are the encoded
    fragments (filled once) and digit cells (gathered per chunk with
    ``cells[column[start:stop]]``); the buffer's bytes minus its pad are
    the chunk's lines.
    """
    literals = [fragment.encode("utf-8") for fragment in fragments]
    layout = []
    for index, literal in enumerate(literals):
        if literal:
            layout.append((f"text{index}", f"V{len(literal)}"))
        if index < len(columns):
            layout.append((f"id{index}", cells.dtype))
    total = len(columns[0])
    buffer = np.empty(min(total, _CHUNK_ROWS), dtype=layout)
    for index, literal in enumerate(literals):
        if literal:
            buffer[f"text{index}"] = np.void(literal)
    for start in range(0, total, _CHUNK_ROWS):
        rows = buffer[: min(total - start, _CHUNK_ROWS)]
        for index, column in enumerate(columns):
            rows[f"id{index}"] = cells[column[start : start + rows.size]]
        flat = rows.view(np.uint8)
        handle.write(flat[flat != _PAD])


@GRAPH_WRITERS.register("ntriples")
def write_ntriples(
    graph: LabeledGraph,
    path: str | os.PathLike,
    namespace: str = "http://example.org/gmark/",
) -> int:
    """Write the instance as N-triples; returns the triple count.

    Nodes become IRIs ``<namespace>n<id>`` carrying their type as an
    ``rdf:type`` triple, and each edge a predicate triple — the layout
    SP2Bench-style SPARQL engines load directly.
    """
    rdf_type = "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type>"
    node = f"<{namespace}n"
    cells = _digit_cells(graph.n)
    written = 0
    with _open_for_write(path) as handle:
        for type_name, type_range in graph.config.ranges.items():
            ids = np.arange(type_range.start, type_range.stop)
            type_iri = f"<{namespace}type/{type_name}>"
            _write_rows(handle, cells, [node, f"> {rdf_type} {type_iri} .\n"], [ids])
            written += ids.size
        for label in graph.labels():
            sources, targets = graph.edge_arrays(label)
            predicate = f"<{namespace}p/{label}>"
            _write_rows(
                handle,
                cells,
                [node, f"> {predicate} {node}", "> .\n"],
                [sources, targets],
            )
            written += len(sources)
    return written


@GRAPH_WRITERS.register("edges")
def write_edge_list(graph: LabeledGraph, path: str | os.PathLike) -> int:
    """Write ``source label target`` lines; returns the edge count.

    This is gMark's native ``.txt`` instance format.
    """
    cells = _digit_cells(graph.n)
    written = 0
    with _open_for_write(path) as handle:
        for label in graph.labels():
            sources, targets = graph.edge_arrays(label)
            _write_rows(handle, cells, ["", f" {label} ", "\n"], [sources, targets])
            written += len(sources)
    return written


@GRAPH_WRITERS.register("csv")
def write_csv_tables(
    graph: LabeledGraph, directory: str | os.PathLike
) -> dict[str, str]:
    """Write one ``<label>.csv`` (source,target) table per predicate.

    Returns a mapping from predicate to the file written.  This is the
    relational encoding the PostgreSQL translation of §7 loads: one
    binary relation per edge label.
    """
    os.makedirs(directory, exist_ok=True)
    cells = _digit_cells(graph.n)
    files: dict[str, str] = {}
    for label in graph.labels():
        path = os.path.join(str(directory), f"{label}.csv")
        # edge_arrays is already sorted by (source, target).
        sources, targets = graph.edge_arrays(label)
        with _open_for_write(path) as handle:
            handle.write(b"source,target\n")
            _write_rows(handle, cells, ["", ",", "\n"], [sources, targets])
        files[label] = path
    return files
