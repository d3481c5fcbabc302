"""The sort-merge lookup join the engines probed relations with before
every probe became a CSR gather: the gather tests' parity reference.

``expand_join`` binary-searches each probe value in a sorted column
(two ``np.searchsorted`` calls per probe row) instead of indexing a
row-pointer array.  It charges the same raw total as
:func:`repro.columnar.expand_indptr` — the sum of match counts — before
it builds anything, which the parity tests pin per call.
"""

from __future__ import annotations

import numpy as np

from repro.columnar import EMPTY_I64


def expand_join(
    probe: np.ndarray,
    build_sorted: np.ndarray,
    check_rows=None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized lookup-join of a probe column against a sorted column.

    Returns ``(counts, probe_index, build_index)`` where row ``i`` of the
    join output pairs ``probe[probe_index[i]]`` with
    ``build_sorted[build_index[i]]``; ``counts[j]`` is the number of
    matches of ``probe[j]``.  ``check_rows`` is called with the raw
    output size *before* the index arrays are materialised.
    """
    lo = np.searchsorted(build_sorted, probe, side="left")
    hi = np.searchsorted(build_sorted, probe, side="right")
    counts = hi - lo
    total = int(counts.sum())
    if check_rows is not None:
        check_rows(total)
    if total == 0:
        return counts, EMPTY_I64, EMPTY_I64
    probe_index = np.repeat(np.arange(probe.size), counts)
    offsets = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
    build_index = np.repeat(lo, counts) + offsets
    return counts, probe_index, build_index
