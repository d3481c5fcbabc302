"""Shared columnar pair-set primitives (the CSR storage substrate).

Both the graph's per-label edge stores (:mod:`repro.generation.graph`)
and the engines' binary relations (:mod:`repro.engine.relations`) hold
*sets of integer pairs*.  This module fixes one canonical physical
representation for such a set — a sorted ``int64`` array of packed
``(first << 32) | second`` keys — and the handful of vector kernels
everything else is built from:

* packing/unpacking between pair columns and keys;
* sorted-set algebra (union, difference, merge) via ``sort()`` + an
  adjacent-difference mask (:func:`sorted_unique`) and
  ``np.searchsorted`` — on the write side and the read side alike (the
  frontier sweep, seeds, closures, result normalisation) — not
  ``np.unique``, whose hash path on NumPy >= 2.3 is 3x (n = 100) to 27x
  (n = 400 k) slower on ``int64`` keys (measured on 2.4.6).  Row
  matrices (k-ary results, G's head projection) get the same treatment
  with ``np.lexsort`` in place of ``sort()`` (:func:`unique_rows`,
  :func:`rows_in`), not ``np.unique`` with ``axis=0``;
* CSR gathers: because keys sort lexicographically by the first
  column, the unpacked ``first`` column is itself sorted, so the pairs
  of one source are a contiguous slice.  A point lookup finds it by
  binary search; a batch probe indexes a lazily built ``indptr`` (one
  ``bincount`` + ``cumsum``) and gathers every row at once
  (:func:`expand_indptr`) — the one way a pair set is probed.

Node ids must fit in 31 bits (``0 <= id < 2**31``); graphs of up to two
billion nodes, far beyond what a single in-memory instance can hold.
"""

from __future__ import annotations

import numpy as np

from repro.execution.faults import FAULTS, fault_point
from repro.observability.metrics import METRICS

# Always-on store counters (one integer add each; see README glossary).
_BATCH_MERGES = METRICS.counter("columnar.batch_merges")
_CSR_BUILDS = METRICS.counter("columnar.csr_builds")

# Chaos-test injection points (disarmed: one None check per hit).
_FP_BATCH_MERGE = fault_point("columnar.batch_merge")
_FP_CSR_BUILD = fault_point("columnar.csr_build")

#: Bit width of one packed coordinate.
KEY_BITS = 32
#: Exclusive upper bound on a packable id.
MAX_ID = 1 << 31

#: The canonical empty column (shared, frozen).
EMPTY_I64 = np.empty(0, dtype=np.int64)
EMPTY_I64.setflags(write=False)


def as_id_array(values) -> np.ndarray:
    """Coerce to an int64 id column (no copy when already one)."""
    return np.ascontiguousarray(values, dtype=np.int64)


def _check_range(arr: np.ndarray, limit: int) -> None:
    if arr.size and (int(arr.min()) < 0 or int(arr.max()) >= limit):
        raise ValueError(
            f"ids must be in [0, {limit}); "
            f"got range [{int(arr.min())}, {int(arr.max())}]"
        )


def pack_pairs(first, second, limit: int = MAX_ID) -> np.ndarray:
    """Pack parallel id columns into a fresh key column (not deduplicated).

    ``limit`` tightens the id bound (to a store's ``domain_size``) inside
    the min/max pass the packing check makes anyway.
    """
    first = as_id_array(first)
    second = as_id_array(second)
    if first.ndim != 1 or first.shape != second.shape:
        raise ValueError(
            "pair columns must be 1-D and of equal length; "
            f"got shapes {first.shape} and {second.shape}"
        )
    _check_range(first, limit)
    _check_range(second, limit)
    return (first << KEY_BITS) | second


def unpack_keys(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unpack a key column into ``(first, second)`` id columns."""
    return keys >> KEY_BITS, keys & ((1 << KEY_BITS) - 1)


def sorted_unique(keys) -> np.ndarray:
    """Sorted unique ``int64`` column of any integer array-like.

    The one way a 1-D column becomes a set, on the write and read side
    alike: copy, in-place ``sort()``, adjacent mask.  The input is never
    mutated; the result is fresh and writable.
    """
    column = np.array(keys, dtype=np.int64, order="C").reshape(-1)
    column.sort()
    return dedup_sorted(column)


def sorted_unique_keys(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Pack + sort + deduplicate pair columns in one step."""
    keys = pack_pairs(first, second)
    keys.sort()  # in place only because pack_pairs always allocates
    return dedup_sorted(keys)


def frozen(arr: np.ndarray) -> np.ndarray:
    """Mark an array read-only (views handed to callers stay safe)."""
    arr.setflags(write=False)
    return arr


def dedup_sorted(keys: np.ndarray) -> np.ndarray:
    """Drop adjacent duplicates from a sorted column."""
    if keys.size < 2:
        return keys
    return keys[np.concatenate(([True], keys[1:] != keys[:-1]))]


def merge_keys(existing: np.ndarray, extra: np.ndarray) -> np.ndarray:
    """Sorted-set union of two key columns (both sorted and unique).

    Neither input is mutated: the concatenation of the two sorted runs
    is stable-sorted — timsort's galloping merge makes this near-linear
    in the output, ~4× faster than ``np.union1d``'s full re-sort for a
    large existing column.
    """
    if existing.size == 0:
        return extra
    if extra.size == 0:
        return existing
    combined = np.concatenate((existing, extra))
    combined.sort(kind="stable")
    return dedup_sorted(combined)


def keys_contain_many(keys: np.ndarray, probes: np.ndarray) -> np.ndarray:
    """Boolean membership mask of a probe column in a sorted key column."""
    if keys.size == 0:
        return np.zeros(probes.shape, dtype=bool)
    positions = np.minimum(np.searchsorted(keys, probes), keys.size - 1)
    return keys[positions] == probes


def keys_difference(candidates: np.ndarray, existing: np.ndarray) -> np.ndarray:
    """Sorted candidates not present in the sorted existing column."""
    if candidates.size == 0 or existing.size == 0:
        return candidates
    positions = np.searchsorted(existing, candidates)
    positions = np.minimum(positions, existing.size - 1)
    return candidates[existing[positions] != candidates]


def slice_bounds(sorted_column: np.ndarray, value: int) -> tuple[int, int]:
    """Half-open bounds of ``value``'s run in a sorted column."""
    lo = int(np.searchsorted(sorted_column, value, side="left"))
    hi = int(np.searchsorted(sorted_column, value, side="right"))
    return lo, hi


def indptr_for(sorted_column: np.ndarray, domain_size: int) -> np.ndarray:
    """CSR row-pointer array over a sorted id column."""
    counts = np.bincount(sorted_column, minlength=domain_size)
    indptr = np.zeros(domain_size + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr


def expand_indptr(
    nodes: np.ndarray,
    indptr: np.ndarray,
    payload: np.ndarray,
    check_rows=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Batch CSR gather: the payload rows of a whole frontier at once.

    ``payload[indptr[v]:indptr[v + 1]]`` holds the row of node ``v``;
    this expands every row of ``nodes`` in one vectorized pass and
    returns ``(probe_index, values)`` where ``values[i]`` belongs to
    ``nodes[probe_index[i]]``.  Every relation probe — path steps,
    frontier levels, join steps, compositions, closure lookups — is
    this gather over a :class:`PairStore`'s row-pointer array.

    ``check_rows`` (typically ``EvaluationBudget.check_rows``) is called
    with the gathered size — the sum of the probed rows' lengths —
    before the output arrays are materialised, so a budget stops a
    runaway join while it is still two ``indptr`` lookups.
    """
    lo = indptr[nodes]
    return expand_ranges(lo, indptr[nodes + 1] - lo, payload, check_rows)


def expand_ranges(
    lo: np.ndarray,
    counts: np.ndarray,
    payload: np.ndarray,
    check_rows=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Batch gather of the payload ranges ``[lo[i], lo[i] + counts[i])``.

    The kernel under :func:`expand_indptr`, for callers that hold the
    range starts and lengths already: returns ``(probe_index, values)``
    where ``values`` concatenates the ranges in order and
    ``probe_index[j]`` is the range ``values[j]`` came from.
    ``check_rows`` sees the gathered size before anything is built.
    """
    ends = np.cumsum(counts)
    total = int(ends[-1]) if ends.size else 0
    if check_rows is not None:
        check_rows(total)
    if total == 0:
        return EMPTY_I64, EMPTY_I64
    probe_index = np.repeat(np.arange(counts.size), counts)
    # Output slot j belongs to range i = probe_index[j] and reads
    # payload[lo[i] + j - (ends[i] - counts[i])].
    index = np.arange(total)
    index += (lo - ends + counts)[probe_index]
    return probe_index, payload[index]


def advance_frontier(
    candidates: np.ndarray, visited: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One level-synchronous BFS step as sorted-set algebra.

    ``candidates`` (unsorted, possibly duplicated) are the keys reached
    this level; ``visited`` is the sorted unique column of keys already
    seen.  Returns ``(fresh, new_visited)``: the sorted unique
    candidates not yet visited, and ``visited`` with them merged in.
    Works for any packed key domain — plain node ids or packed
    (source, node) pair keys alike.
    """
    if candidates.size == 0:
        return EMPTY_I64, visited
    candidates = sorted_unique(candidates)
    fresh = keys_difference(candidates, visited)
    if fresh.size == 0:
        return EMPTY_I64, visited
    return fresh, merge_keys(visited, fresh)


def segmented_weighted_choice(
    weights: np.ndarray,
    counts: np.ndarray,
    rng: np.random.Generator,
    ends: np.ndarray | None = None,
) -> np.ndarray:
    """One weighted draw per segment of a flat weight column.

    ``weights`` concatenates per-segment weight runs of lengths
    ``counts`` (every segment non-empty with positive total).  Returns
    the selected *flat* index per segment: one cumulative sum, one
    uniform draw per segment, and one ``searchsorted`` — the
    level-synchronous transition step of the batch path walk, where each
    walker picks its next edge weighted by the ``nb_path`` counts.
    ``ends`` may pass a precomputed ``np.cumsum(counts)``.

    Segments are normalised to unit total *before* the cumulative sum
    (one ``reduceat``): a raw running sum across segments of wildly
    different magnitude (path counts grow exponentially with length)
    would exhaust float64 resolution and silently collapse small-weight
    segments onto a single boundary element.  Normalised, the column
    tops out at the segment count and every segment keeps ~1e-16
    relative resolution.
    """
    if ends is None:
        ends = np.cumsum(counts)
    starts = ends - counts
    weights = np.asarray(weights, dtype=np.float64)
    totals = np.add.reduceat(weights, starts)
    cum = np.cumsum(weights / np.repeat(totals, counts))
    base = np.where(starts > 0, cum[starts - 1], 0.0)
    points = base + rng.random(counts.size) * (cum[ends - 1] - base)
    picks = np.searchsorted(cum, points, side="right")
    return np.minimum(np.maximum(picks, starts), ends - 1)


def _row_order(table: np.ndarray) -> np.ndarray:
    """Stable lexicographic row order, the first column as primary key
    (``np.lexsort`` takes its *last* key as primary)."""
    return np.lexsort(table.T[::-1])


def unique_rows(table: np.ndarray) -> np.ndarray:
    """Lexicographically sorted unique rows of an ``(n, k)`` matrix.

    The k-ary generalisation of a sorted key column: result rows hold
    the same invariant (sorted, deduplicated) that packed keys give the
    binary case, so k-ary result groups share the merge/difference
    algebra below.  Lexsort + adjacent mask — a sorted row is kept when
    it differs from its predecessor — gives exactly what ``np.unique``
    with ``axis=0`` gives, at ~3x its speed (20 k ``(n, 2)`` rows:
    3.9 vs 12.4 ms, NumPy 2.4.6 on a 2-core Xeon).  The input is never
    mutated; the result is a fresh C-contiguous ``int64`` matrix.
    Zero-width rows are all equal, so a ``(n, 0)`` table (a Boolean
    head) keeps at most one.
    """
    table = np.asarray(table, dtype=np.int64)
    if table.shape[1] == 0:
        return np.zeros((min(table.shape[0], 1), 0), dtype=np.int64)
    if table.shape[0] < 2:
        return np.array(table, order="C")
    rows = table[_row_order(table)]
    return rows[np.concatenate(([True], np.any(rows[1:] != rows[:-1], axis=1)))]


def rows_in(candidates: np.ndarray, existing: np.ndarray) -> np.ndarray:
    """Boolean row-membership mask of one unique-row matrix in another.

    Lexsort + adjacent mask over ``existing`` then ``candidates``.  Both
    inputs must be unique-row matrices (:func:`unique_rows`), so a row
    equal to its sorted predecessor is a row present in both; the sort
    is stable, so the ``existing`` copy comes first and the repeat is
    the candidate's.  No per-row hashing or tuple construction.
    """
    if existing.shape[0] == 0 or candidates.shape[0] == 0:
        return np.zeros(candidates.shape[0], dtype=bool)
    combined = np.concatenate((existing, candidates))
    order = _row_order(combined)
    rows = combined[order]
    found = np.zeros(combined.shape[0], dtype=bool)
    found[order[1:][np.all(rows[1:] == rows[:-1], axis=1)]] = True
    return found[existing.shape[0]:]


class PairStore:
    """Sorted-key pair set: the shared physical core.

    One canonical representation backs both the graph's per-label edge
    stores and the engines' binary relations: a sorted unique key column
    (``keys``) and its unpacked ``first`` / ``second`` id columns, all
    read-only and replaced whole by each bulk merge.  ``domain_size``
    (when given) enables CSR row-pointer construction over a dense id
    domain.
    """

    __slots__ = (
        "domain_size",
        "keys",
        "first",
        "second",
        "_bwd",
        "_fwd_indptr",
        "_bwd_indptr",
    )

    def __init__(self, domain_size: int | None = None):
        self.domain_size = domain_size
        self._set_keys(EMPTY_I64)

    @classmethod
    def from_keys(cls, keys: np.ndarray, domain_size: int | None = None):
        """Adopt a sorted unique key column (zero-copy)."""
        store = cls(domain_size)
        store._set_keys(keys)
        return store

    def _set_keys(self, keys: np.ndarray) -> None:
        # Derive every dependent column *before* publishing any of them:
        # an allocation failure mid-unpack must leave the store on its
        # previous, fully consistent state (the chaos suite pins this).
        first, second = unpack_keys(keys)
        self.keys = frozen(keys)
        self.first = frozen(first)
        self.second = frozen(second)
        self._bwd: tuple[np.ndarray, np.ndarray] | None = None
        self._fwd_indptr: np.ndarray | None = None
        self._bwd_indptr: np.ndarray | None = None

    def add_batch(self, first, second) -> int:
        """Pack + merge parallel columns; returns the number of new
        pairs.  The merge exploits the existing column's sort order
        (see :func:`merge_keys`), so repeated batches on one store stay
        near-linear.  Columns not 1-D and equally long, or with ids
        outside ``[0, domain_size)``, raise before the store is touched."""
        limit = MAX_ID if self.domain_size is None else self.domain_size
        batch = pack_pairs(first, second, min(limit, MAX_ID))
        _BATCH_MERGES.inc()
        FAULTS.hit(_FP_BATCH_MERGE)
        before = self.keys.size
        batch.sort()  # in place only because pack_pairs always allocates
        self._set_keys(merge_keys(self.keys, dedup_sorted(batch)))
        return self.keys.size - before

    # -- columns and indexes ------------------------------------------

    def __len__(self) -> int:
        return self.keys.size

    @property
    def nbytes(self) -> int:
        """Live bytes of the key/id columns (excludes lazy CSR caches)."""
        return self.keys.nbytes + self.first.nbytes + self.second.nbytes

    def self_check(self) -> None:
        """Assert internal invariants (chaos-suite consistency probe).

        Verifies the key column is sorted-unique and the unpacked id
        columns agree with it.  Raises :class:`AssertionError` on any
        violation.
        """
        keys = self.keys
        assert keys.size == self.first.size == self.second.size
        if keys.size:
            assert bool(np.all(keys[1:] > keys[:-1])), "keys not sorted-unique"
            repacked = (self.first << KEY_BITS) | self.second
            assert bool(np.all(repacked == keys)), "id columns out of sync"

    def backward(self) -> tuple[np.ndarray, np.ndarray]:
        """(sorted second column, first column in that order).

        One sort of the swapped keys ``(second << KEY_BITS) | first``:
        the keys are unique, so ties on ``second`` come out ordered by
        ``first``, exactly as a stable argsort of ``second`` leaves them.
        """
        if self._bwd is None:
            _CSR_BUILDS.inc()
            FAULTS.hit(_FP_CSR_BUILD)
            swapped = (self.second << KEY_BITS) | self.first
            swapped.sort()
            seconds, firsts = unpack_keys(swapped)
            self._bwd = (frozen(seconds), frozen(firsts))
        return self._bwd

    def slice_of(self, first_value: int) -> np.ndarray:
        """Seconds paired with one first value: read-only CSR slice."""
        lo, hi = slice_bounds(self.first, first_value)
        return self.second[lo:hi]

    def backward_slice_of(self, second_value: int) -> np.ndarray:
        """Firsts paired with one second value (inverse index slice)."""
        seconds, firsts = self.backward()
        lo, hi = slice_bounds(seconds, second_value)
        return firsts[lo:hi]

    def forward_indptr(self) -> np.ndarray:
        if self._fwd_indptr is None:
            self._fwd_indptr = self._indptr(self.first)
        return self._fwd_indptr

    def backward_indptr(self) -> np.ndarray:
        seconds, _ = self.backward()
        if self._bwd_indptr is None:
            self._bwd_indptr = self._indptr(seconds)
        return self._bwd_indptr

    def _indptr(self, sorted_column: np.ndarray) -> np.ndarray:
        _CSR_BUILDS.inc()
        FAULTS.hit(_FP_CSR_BUILD)
        return frozen(indptr_for(sorted_column, self.domain_size))
