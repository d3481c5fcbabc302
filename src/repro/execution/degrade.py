"""Chunked streaming fallbacks: graceful degradation kernels.

When a frontier gather would blow the row/memory cap, the direct path
(one :func:`~repro.columnar.expand_indptr` over the whole frontier)
materialises arrays proportional to the *raw* gather size — which for
duplicate-heavy frontiers is far larger than the deduplicated result.
The degraded path processes the frontier in row slices, deduplicates
each slice immediately, and merges the partial sorted columns, bounding
peak transient memory by the chunk size while producing byte-identical
results (the parity tests pin this).

These kernels consult the budget's :meth:`degrade_plan` hook; a plain
:class:`~repro.execution.budget.ResourceBudget` always answers None
(direct path, original abort behaviour), so only an
:class:`~repro.execution.context.ExecutionContext` pays for chunking.

NOTE: this module imports :mod:`repro.columnar` and must therefore not
be imported from ``repro.execution.__init__`` (columnar registers fault
points via :mod:`repro.execution.faults` at import time).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.columnar import (
    EMPTY_I64,
    expand_indptr,
    merge_keys,
    pack_pairs,
    sorted_unique,
    sorted_unique_keys,
)
from repro.execution.budget import ResourceBudget


def row_slices(counts: np.ndarray, chunk: int) -> Iterator[tuple[int, int]]:
    """Half-open index ranges over ``counts`` of ~``chunk`` total rows.

    Greedy cuts on the cumulative row count: each slice gathers at
    least ``chunk`` rows (except the last) and at most ``chunk`` plus
    one node's own count, so a single huge adjacency row forms its own
    slice instead of forcing empty ones.
    """
    if counts.size == 0:
        return
    ends = np.cumsum(counts)
    total = int(ends[-1])
    if total <= chunk:
        yield 0, int(counts.size)
        return
    cuts = np.searchsorted(ends, np.arange(chunk, total, chunk), side="left") + 1
    cuts = sorted_unique(np.concatenate((cuts, [counts.size])))
    start = 0
    for stop in cuts.tolist():
        stop = int(stop)
        if stop > start:
            yield start, stop
            start = stop


def split_ranges(nrows: int, pieces: int) -> Iterator[tuple[int, int]]:
    """``pieces`` near-even half-open row ranges covering ``[0, nrows)``."""
    pieces = max(1, min(pieces, nrows))
    step = -(-nrows // pieces)
    for start in range(0, nrows, step):
        yield start, min(start + step, nrows)


def gather_pair_keys(
    sources: np.ndarray,
    nodes: np.ndarray,
    indptr: np.ndarray,
    payload: np.ndarray,
    budget: ResourceBudget,
    site: str = "frontier.gather",
) -> tuple[np.ndarray, int]:
    """Packed ``(source, successor)`` candidate keys of one CSR gather.

    Returns ``(candidates, raw_total)``.  Direct path: one
    :func:`expand_indptr` (raw keys, unsorted — the caller's
    ``advance_frontier`` deduplicates).  Degraded path: the frontier is
    sliced, each slice's keys deduplicated and merged, and the merged
    size charged against the row cap — so a genuinely oversized
    *result* still aborts while transient blowups survive.
    """
    lo = indptr[nodes]
    counts = indptr[nodes + 1] - lo
    total = int(counts.sum())
    plan = budget.degrade_plan(total)
    if plan is None:
        budget.check_rows(total)
        if total == 0:
            return EMPTY_I64, 0
        probe_index = np.repeat(np.arange(nodes.size), counts)
        offsets = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
        successors = payload[np.repeat(lo, counts) + offsets]
        return pack_pairs(sources[probe_index], successors), total
    merged = EMPTY_I64
    chunks = 0
    for start, stop in row_slices(counts, plan):
        probe_index, successors = expand_indptr(
            nodes[start:stop], indptr, payload
        )
        chunks += 1
        if successors.size == 0:
            continue
        keys = sorted_unique_keys(sources[start:stop][probe_index], successors)
        merged = merge_keys(merged, keys)
        budget.check_rows(merged.size)
        budget.check_bytes(merged.nbytes)
        budget.check_time()
    budget.record_degraded(site, rows=total, chunks=chunks)
    return merged, total


def gather_values(
    nodes: np.ndarray,
    indptr: np.ndarray,
    payload: np.ndarray,
    budget: ResourceBudget,
    site: str = "frontier.gather_values",
) -> np.ndarray:
    """Successor values of one single-colour CSR gather (may dedup).

    The plain-node variant of :func:`gather_pair_keys` used by the
    single-colour reachability sweep: the degraded path returns the
    sorted unique successor column (its consumer deduplicates anyway).
    """
    lo = indptr[nodes]
    counts = indptr[nodes + 1] - lo
    total = int(counts.sum())
    plan = budget.degrade_plan(total)
    if plan is None:
        budget.check_rows(total)
        if total == 0:
            return EMPTY_I64
        offsets = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
        return payload[np.repeat(lo, counts) + offsets]
    merged = EMPTY_I64
    chunks = 0
    for start, stop in row_slices(counts, plan):
        _, successors = expand_indptr(nodes[start:stop], indptr, payload)
        chunks += 1
        if successors.size == 0:
            continue
        merged = merge_keys(merged, sorted_unique(successors))
        budget.check_rows(merged.size)
        budget.check_time()
    budget.record_degraded(site, rows=total, chunks=chunks)
    return merged
