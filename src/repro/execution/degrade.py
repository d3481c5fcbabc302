"""Chunked streaming fallbacks: graceful degradation kernels.

Two split-and-retry paths, each charging what it keeps:

* **frontier gathers** (:func:`gather_pair_keys`).  When a gather would
  blow the row/memory cap, the direct path (one
  :func:`~repro.columnar.expand_ranges` over the whole frontier)
  materialises arrays proportional to the *raw* gather size — which for
  duplicate-heavy frontiers is far larger than the deduplicated result.
  The degraded path processes the frontier in row slices, deduplicates
  each slice immediately, and merges the partial sorted columns.
* **binding tables** (:func:`run_in_slices`).  Both binding-table
  drivers (``engine/joins.py`` and ``engine/isomorphic.py``) hand an
  oversized table here; each row slice runs through the rest of the
  rule and comes back projected onto the head, and the slices merge
  into one deduplicated answer under the row and byte caps.

Either way the evaluated answer equals the direct path's (the parity
tests pin this), and an answer larger than the cap still aborts.

The gather consults the budget's :meth:`degrade_plan` hook, and the
drivers its :meth:`slice_plan` / :meth:`should_degrade` hooks; a plain
:class:`~repro.execution.budget.ResourceBudget` always declines (direct
path, original abort behaviour), so only an
:class:`~repro.execution.context.ExecutionContext` pays for chunking.

NOTE: this module imports :mod:`repro.columnar` and must therefore not
be imported from ``repro.execution.__init__`` (columnar registers fault
points via :mod:`repro.execution.faults` at import time).
"""

from __future__ import annotations

from typing import Callable, Iterator

import numpy as np

from repro.columnar import (
    EMPTY_I64,
    expand_ranges,
    merge_keys,
    pack_pairs,
    sorted_unique,
    sorted_unique_keys,
    unique_rows,
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
    :func:`expand_ranges` (raw keys, unsorted — the caller's
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
        probe_index, successors = expand_ranges(
            lo, counts, payload, budget.check_rows
        )
        return pack_pairs(sources[probe_index], successors), total
    merged = EMPTY_I64
    chunks = 0
    for start, stop in row_slices(counts, plan):
        probe_index, successors = expand_ranges(
            lo[start:stop], counts[start:stop], payload
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


def run_in_slices(
    nrows: int,
    pieces: int,
    run_slice: Callable[[int, int], np.ndarray],
    width: int,
    budget: ResourceBudget,
    site: str,
    **info,
) -> np.ndarray:
    """Stream an ``nrows``-row binding table through the rest of a rule.

    ``run_slice(start, stop)`` evaluates rows ``[start, stop)`` to the
    end of the rule and returns that slice's ``width``-column head
    projection.  Slices run one at a time; each is merged into the
    deduplicated answer (:func:`~repro.columnar.unique_rows`) and the
    merge is charged against the row and byte caps before the next
    slice starts, so an answer larger than the cap aborts instead of
    accumulating.  One degraded event is recorded per call.
    """
    budget.record_degraded(site, rows=int(nrows), pieces=int(pieces), **info)
    answer = np.zeros((0, width), dtype=np.int64)
    for start, stop in split_ranges(nrows, pieces):
        part = run_slice(start, stop)
        if part.shape[0] == 0:
            continue
        answer = unique_rows(np.concatenate((answer, part)))
        budget.check_rows(answer.shape[0])
        budget.check_bytes(answer.nbytes)
    return answer
