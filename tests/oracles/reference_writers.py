"""The ``%``-template graph writers that formatted text before export
wrote bytes: the row kernel's parity reference, plus the test-only
readers of the formats.

Each 64k-row chunk is one ``%`` application of a repeated line template
over a tuple of the interleaved id columns.  ``reference_edge_list``,
``reference_ntriples`` and ``reference_csv_tables`` are the registered
writers as they were, minus the atomic-rename discipline, so their
files are the bytes :mod:`repro.generation.writers` must reproduce.
"""

from __future__ import annotations

import os
from typing import IO, Iterable

import numpy as np

from repro.generation.graph import LabeledGraph

#: Rows formatted per chunk by the bulk writers below.
_CHUNK_ROWS = 1 << 16


def _fmt(literal: str) -> str:
    """Escape a literal fragment for use inside a ``%``-template."""
    return literal.replace("%", "%%")


def _write_pair_lines(
    handle: IO[str],
    template: str,
    first,
    second,
) -> None:
    """Write one ``template % (first, second)`` line per column row.

    ``template`` holds exactly two ``%d`` slots.  Instead of one
    f-string per edge, whole chunks are formatted with a single ``%``
    application of the repeated template over the interleaved id
    columns — an order of magnitude fewer Python-level operations on
    multi-million-edge exports.
    """
    total = len(first)
    block = template * _CHUNK_ROWS
    for start in range(0, total, _CHUNK_ROWS):
        stop = min(start + _CHUNK_ROWS, total)
        size = stop - start
        interleaved = np.empty(2 * size, dtype=np.int64)
        interleaved[0::2] = first[start:stop]
        interleaved[1::2] = second[start:stop]
        chunk = block if size == _CHUNK_ROWS else template * size
        handle.write(chunk % tuple(interleaved.tolist()))


def _write_id_lines(handle: IO[str], template: str, start: int, stop: int) -> None:
    """Write one ``template % id`` line per id in ``[start, stop)``."""
    block = template * _CHUNK_ROWS
    for lo in range(start, stop, _CHUNK_ROWS):
        hi = min(lo + _CHUNK_ROWS, stop)
        chunk = block if hi - lo == _CHUNK_ROWS else template * (hi - lo)
        handle.write(chunk % tuple(range(lo, hi)))


def reference_ntriples(
    graph: LabeledGraph,
    path: str | os.PathLike,
    namespace: str = "http://example.org/gmark/",
) -> int:
    rdf_type = "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type>"
    written = 0
    with open(path, "w", encoding="utf-8") as handle:
        for type_name, type_range in graph.config.ranges.items():
            type_iri = f"<{namespace}type/{type_name}>"
            _write_id_lines(
                handle,
                f"<{_fmt(namespace)}n%d> {rdf_type} {_fmt(type_iri)} .\n",
                type_range.start,
                type_range.stop,
            )
            written += type_range.stop - type_range.start
        for label in graph.labels():
            sources, targets = graph.edge_arrays(label)
            predicate = f"<{namespace}p/{label}>"
            _write_pair_lines(
                handle,
                f"<{_fmt(namespace)}n%d> {_fmt(predicate)} <{_fmt(namespace)}n%d> .\n",
                sources,
                targets,
            )
            written += len(sources)
    return written


def reference_edge_list(graph: LabeledGraph, path: str | os.PathLike) -> int:
    written = 0
    with open(path, "w", encoding="utf-8") as handle:
        for label in graph.labels():
            sources, targets = graph.edge_arrays(label)
            _write_pair_lines(handle, f"%d {_fmt(label)} %d\n", sources, targets)
            written += len(sources)
    return written


def reference_csv_tables(
    graph: LabeledGraph, directory: str | os.PathLike
) -> dict[str, str]:
    os.makedirs(directory, exist_ok=True)
    files: dict[str, str] = {}
    for label in graph.labels():
        path = os.path.join(str(directory), f"{label}.csv")
        sources, targets = graph.edge_arrays(label)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("source,target\n")
            _write_pair_lines(handle, "%d,%d\n", sources, targets)
        files[label] = path
    return files


def read_edge_list(
    path: str | os.PathLike, config
) -> LabeledGraph:
    """Load a graph previously written by :func:`write_edge_list`.

    Lines are batched per label and bulk-appended as arrays, so loading
    goes through the same columnar path as generation.
    """
    graph = LabeledGraph(config)
    batches: dict[str, tuple[list[int], list[int]]] = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            parts = line.split()
            if not parts:
                continue
            sources, targets = batches.setdefault(parts[1], ([], []))
            sources.append(int(parts[0]))
            targets.append(int(parts[2]))
    for label, (sources, targets) in batches.items():
        graph.add_edges(
            label,
            np.asarray(sources, dtype=np.int64),
            np.asarray(targets, dtype=np.int64),
        )
    return graph


def iter_ntriples(lines: Iterable[str]):
    """Parse N-triples lines into (subject, predicate, object) strings.

    Minimal parser for round-trip tests; handles only the IRI-based
    triples this package writes.
    """
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if not line.endswith("."):
            continue
        parts = line[:-1].split()
        if len(parts) != 3:
            continue
        yield tuple(part.strip("<>") for part in parts)
