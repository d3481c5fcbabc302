"""Uniform sampling of label paths in ``G_S`` (paper §5.2.4).

"drawing uniformly at random paths of a certain length in G_sel can be
done efficiently with a two-step algorithm: first, each node n is
associated with a function nb_path(n, i) that gives the number of paths
of length i that can be generated starting from n [...] to generate a
path of length l, the algorithm picks a starting node with a random
draw weighted by nb_path(n, l), and then picks the label of an outgoing
edge to a node n' with a random draw weighted by nb_path(n', l-1), etc."

Here ``nb_path(n, i)`` counts length-``i`` paths from ``n`` that *end in
an acceptable target node* (e.g. the nodes whose triple realises the
requested selectivity class); sampling then walks forward with counts
as weights, which yields an exactly uniform draw over all valid paths.

Everything runs on the schema graph's indexed view:

* a ``nb_path`` table is a ``(levels, n_nodes)`` count matrix — level
  ``i + 1`` is one integer matvec ``adjacency_counts @ level_i`` —
  memoised **per target set** and extended *in place* whenever a larger
  ``max_length`` is requested (the seed sampler re-keyed and re-built a
  whole table per ``(targets, length)`` pair);
* counts that would no longer fit in ``int64`` switch the table to
  ``float64`` weights with a loud :class:`NbPathOverflowWarning`
  instead of silently wrapping — draws stay proportional, exact
  integer counting is forfeited;
* ``sample_paths`` draws **K paths in one call**: a vectorized weighted
  start choice over the count row, then one level-synchronous
  transition per step for all K walkers at once (CSR gather of every
  walker's successor run + one segmented cumulative-weight
  ``searchsorted``; :func:`repro.columnar.segmented_weighted_choice`).

The seed-era dict implementation survives unchanged as the
parity/uniformity oracle under ``tests/oracles/``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence
import warnings

import numpy as np

from repro.columnar import segmented_weighted_choice
from repro.observability.log import get_logger
from repro.observability.metrics import METRICS
from repro.rng import ensure_rng
from repro.selectivity.schema_graph import SchemaGraph, SchemaGraphNode

_log = get_logger("selectivity.sampler")
_TABLE_EXTENSIONS = METRICS.counter("sampler.table_extensions")
_BATCH_DRAWS = METRICS.counter("sampler.batch_draws")


class NbPathOverflowWarning(RuntimeWarning):
    """Path counts exceeded int64: weights continue in float64."""


#: Largest level maximum that is guaranteed not to overflow int64 in the
#: next saturation step (divided by the max labeled out-degree later).
_INT64_SAFE = np.iinfo(np.int64).max


@dataclass(frozen=True)
class SampledPath:
    """A label path through ``G_S``: symbols plus the visited nodes."""

    symbols: tuple[str, ...]
    nodes: tuple[SchemaGraphNode, ...]  # length == len(symbols) + 1

    @property
    def start(self) -> SchemaGraphNode:
        return self.nodes[0]

    @property
    def end(self) -> SchemaGraphNode:
        return self.nodes[-1]

    @property
    def length(self) -> int:
        return len(self.symbols)

    def __repr__(self) -> str:
        return f"SampledPath({'.'.join(self.symbols) or 'ε'})"


class _NbPathTable:
    """One target set's ``nb_path`` matrix, grown level by level."""

    __slots__ = ("rows", "overflowed", "_stack", "_edge_flat", "_edge_offset")

    def __init__(self, base: np.ndarray):
        self.rows: list[np.ndarray] = [base]
        self.overflowed = False
        self._stack: np.ndarray | None = None
        self._edge_flat: np.ndarray | None = None
        self._edge_offset: float = 1.0

    def stacked(self) -> np.ndarray:
        """The table as one ``(levels, n)`` float64 weight matrix.

        Lets the mixed-length walk gather per-walker weights with a
        single 2-D fancy index (``stack[remaining, successor]``);
        rebuilt lazily after the row list grows.
        """
        if self._stack is None or self._stack.shape[0] < len(self.rows):
            self._stack = np.asarray(self.rows, dtype=np.float64)
            self._edge_flat = None
        return self._stack


class PathSampler:
    """``nb_path`` tables and weighted path sampling over one ``G_S``.

    Tables are memoised per target set and extended in place, so
    repeated sampling for the same selectivity class costs one
    saturation pass regardless of how many lengths are requested.
    """

    def __init__(self, schema_graph: SchemaGraph):
        self.schema_graph = schema_graph
        self._n = len(schema_graph)
        self._indptr = schema_graph.succ_indptr
        self._succ = schema_graph.succ_node_ids
        self._symbol_ids = schema_graph.succ_symbol_ids
        self._counts_matrix = schema_graph.adjacency_counts
        # Per-step growth bound: next_max <= max_out_degree * prev_max.
        degree_max = int(self._counts_matrix.sum(axis=1).max()) if self._n else 0
        self._safe_level_max = _INT64_SAFE // max(degree_max, 1)
        self._tables: dict[bytes, _NbPathTable] = {}
        # Owner node of each CSR edge (for per-run weight normalisation).
        degrees = np.diff(self._indptr)
        self._edge_owner = np.repeat(np.arange(self._n, dtype=np.int64), degrees)
        # Object columns: id matrices turn into symbol/node rows with
        # one fancy index instead of a per-element Python lookup.
        self._symbol_objs = np.array(schema_graph.symbols, dtype=object)
        self._node_objs = np.array(schema_graph.nodes, dtype=object)

    def _edge_cumulative(self, table: _NbPathTable) -> tuple[np.ndarray, float]:
        """Flattened per-level cumulative edge weights ``(flat, offset)``.

        Row ``i`` of the underlying ``(levels, E)`` matrix holds the
        running sum of each node's successor-edge weights at level ``i``,
        with every node's run normalised to unit total — the run total
        of node ``v`` at level ``i`` is exactly ``nb_path(v, i + 1)``
        (the saturation recurrence), so the normaliser is one gather
        from the next level's count row.  Normalisation is what keeps
        the column numerically sound: raw counts grow exponentially
        with the level, and a shared running sum over them would lose
        all float64 resolution for low-level weights (degenerating
        draws to a fixed edge).  Adding ``i * offset`` per row keeps
        the flattened column globally non-decreasing, so a walker at
        level ``i`` picks its edge with a single ``searchsorted`` probe
        — no per-step gather/expand of successor runs at all.
        """
        stack = table.stacked()
        if (
            table._edge_flat is None
            or table._edge_flat.size != stack.shape[0] * self._succ.size
        ):
            weights = stack[:, self._succ]
            denominators = np.ones_like(weights)
            if stack.shape[0] > 1:
                # Level i runs are consulted by walkers whose current
                # count row is level i + 1; the last level has no
                # consumer and keeps a dummy unit denominator.
                denominators[:-1] = stack[1:][:, self._edge_owner]
            normalised = np.divide(
                weights,
                denominators,
                out=np.zeros_like(weights),
                where=denominators > 0,
            )
            cum = np.cumsum(normalised, axis=1)
            offset = float(self._n + 2)
            cum += offset * np.arange(stack.shape[0])[:, None]
            table._edge_flat = cum.ravel()
            table._edge_offset = offset
        return table._edge_flat, table._edge_offset

    # -- counting ------------------------------------------------------

    def _target_ids(self, targets) -> np.ndarray:
        """Dense-id column of a target specification.

        Duplicates and ordering are immaterial — targets only seed the
        level-0 indicator — so id arrays pass through untouched (their
        bytes key the table cache; the generator reuses the same
        arrays, keeping keys stable).  Unknown nodes drop out, matching
        the dict oracle's absent-key-means-zero semantics.
        """
        return self.schema_graph.ids_of(targets)

    def _table(self, target_ids: np.ndarray, max_length: int) -> _NbPathTable:
        key = target_ids.tobytes()
        table = self._tables.get(key)
        if table is None:
            base = np.zeros(self._n, dtype=np.int64)
            base[target_ids] = 1
            table = _NbPathTable(base)
            self._tables[key] = table
        while len(table.rows) <= max_length:
            previous = table.rows[-1]
            if not table.overflowed and int(previous.max(initial=0)) > self._safe_level_max:
                _log.warning(
                    "nb_path counts exceed int64 at level %d; falling back "
                    "to float64 weights",
                    len(table.rows),
                )
                warnings.warn(
                    "nb_path counts exceed int64; falling back to float64 "
                    "weights (draws stay proportional, exact counting is "
                    "forfeited)",
                    NbPathOverflowWarning,
                    stacklevel=3,
                )
                table.overflowed = True
                previous = previous.astype(np.float64)
            _TABLE_EXTENSIONS.inc()
            table.rows.append(self._counts_matrix @ previous)
        return table

    def path_counts(self, targets, max_length: int) -> list[np.ndarray]:
        """``nb_path`` rows: ``result[i][v]`` = #length-``i`` paths from
        node id ``v`` ending in ``targets`` (a dense count vector per
        level; ``float64`` after an overflow fallback)."""
        return self._table(self._target_ids(targets), max_length).rows[
            : max_length + 1
        ]

    def count_from(
        self,
        start: SchemaGraphNode,
        targets: Iterable[SchemaGraphNode],
        length: int,
    ) -> int:
        """Number of length-``length`` paths from ``start`` to ``targets``."""
        start_id = self.schema_graph.index_of(start)
        if start_id is None:
            return 0
        rows = self.path_counts(targets, length)
        return int(rows[length][start_id])

    # -- batch sampling --------------------------------------------------

    def sample_paths(
        self,
        starts,
        targets,
        length: int,
        count: int,
        rng: int | np.random.Generator | None = None,
    ) -> list[SampledPath]:
        """``count`` uniform length-``length`` draws in one batch.

        Returns the empty list when no valid path exists.  ``starts``
        and ``targets`` accept node sequences or dense-id arrays.
        """
        rng = ensure_rng(rng)
        start_ids = self.schema_graph.ids_of(starts)
        if start_ids.size == 0 or count <= 0:
            return []
        table = self._table(self._target_ids(targets), length)
        if float(table.rows[length][start_ids].sum()) <= 0:
            return []
        lengths = np.full(count, length, dtype=np.int64)
        return self._walk_batch(start_ids, table, lengths, rng)

    def sample_paths_in_range(
        self,
        starts,
        targets,
        l_min: int,
        l_max: int,
        count: int,
        rng: int | np.random.Generator | None = None,
        relax_to: int | None = None,
    ) -> list[SampledPath]:
        """``count`` draws with lengths in ``[l_min, l_max]`` in one batch.

        Each draw's length is weighted by its path count, so the batch
        is uniform over *all* valid paths of any admissible length.
        When the interval admits no path and ``relax_to`` is given,
        lengths above ``l_max`` and then below ``l_min`` are tried in
        the §5.2.4 relaxation order; the whole batch lands on the first
        feasible length.  Empty list when infeasible.
        """
        rng = ensure_rng(rng)
        start_ids = self.schema_graph.ids_of(starts)
        if start_ids.size == 0 or count <= 0:
            return []
        target_ids = self._target_ids(targets)
        horizon = max(l_max, relax_to or 0)
        table = self._table(target_ids, horizon)
        rows = table.rows

        lengths = np.arange(l_min, l_max + 1)
        weights = table.stacked()[np.ix_(lengths, start_ids)].sum(axis=1)
        total = weights.sum()
        if total > 0:
            drawn = rng.choice(lengths, size=count, p=weights / total)
        else:
            relaxed = self._relaxed_length(rows, start_ids, l_min, l_max, relax_to)
            if relaxed is None:
                return []
            drawn = np.full(count, relaxed, dtype=np.int64)
        return self._walk_batch(start_ids, table, drawn, rng)

    def _relaxed_length(
        self,
        rows: list[np.ndarray],
        start_ids: np.ndarray,
        l_min: int,
        l_max: int,
        relax_to: int | None,
    ) -> int | None:
        if relax_to is None:
            return None
        for length in range(l_max + 1, relax_to + 1):
            if float(rows[length][start_ids].sum()) > 0:
                return length
        for length in range(l_min - 1, -1, -1):
            if float(rows[length][start_ids].sum()) > 0:
                return length
        return None

    def _walk_batch(
        self,
        start_ids: np.ndarray,
        table: _NbPathTable,
        lengths: np.ndarray,
        rng: np.random.Generator,
    ) -> list[SampledPath]:
        """Level-synchronous weighted walk of the whole batch at once.

        ``lengths`` holds each walker's drawn path length (the caller
        guarantees every length admits a path from ``start_ids``).
        Walkers of different lengths advance together — a walker whose
        length is exhausted simply stops transitioning — so one batch is
        one walk no matter how the range draw split the lengths.
        """
        count = lengths.size
        max_len = int(lengths.max(initial=0))
        _BATCH_DRAWS.inc()
        stack = table.stacked()

        # Longest walks first: at every step the still-walking walkers
        # are a contiguous prefix, so the loop below runs on plain
        # slices instead of boolean masks.
        order = np.argsort(-lengths, kind="stable")
        lengths = lengths[order]
        neg_lengths = -lengths

        # Vectorized weighted start choice: one weight row per walker
        # (its length's count row over the start set), one segmented
        # draw across the whole (walker, start) weight matrix.
        start_weights = stack[np.ix_(lengths, start_ids)]
        flat_picks = segmented_weighted_choice(
            start_weights.ravel(),
            np.full(count, start_ids.size, dtype=np.int64),
            rng,
        )
        current = start_ids[flat_picks - np.arange(count) * start_ids.size]

        # Zero-init: entries past a walker's length stay a valid id for
        # the object-column gather below and are sliced away.
        symbol_cols = np.zeros((max_len, count), dtype=np.int64)
        node_cols = np.zeros((max_len + 1, count), dtype=np.int64)
        node_cols[0] = current
        if max_len:
            edge_flat, offset = self._edge_cumulative(table)
            edge_count = self._succ.size
        for step in range(max_len):
            active = int(np.searchsorted(neg_lengths, -step, side="left"))
            cur = current[:active]
            remaining = lengths[:active] - step - 1
            lo = self._indptr[cur]
            hi = self._indptr[cur + 1]
            # Each walker's successor run is a contiguous slice of its
            # level's cumulative row; one searchsorted into the shared
            # flattened column replaces the per-run expand + choice.
            row_start = remaining * edge_count
            base = np.where(
                lo > 0, edge_flat[row_start + lo - 1], remaining * offset
            )
            totals = edge_flat[row_start + hi - 1] - base
            points = base + rng.random(active) * totals
            chosen = np.searchsorted(edge_flat, points, side="right") - row_start
            chosen = np.minimum(np.maximum(chosen, lo), hi - 1)
            symbol_cols[step, :active] = self._symbol_ids[chosen]
            current[:active] = self._succ[chosen]
            node_cols[step + 1] = current
        paths = self._materialise(symbol_cols, node_cols, lengths)
        out: list[SampledPath | None] = [None] * count
        for position, path in zip(order.tolist(), paths):
            out[position] = path
        return out

    def _materialise(
        self,
        symbol_cols: np.ndarray,
        node_cols: np.ndarray,
        lengths: np.ndarray,
    ) -> list[SampledPath]:
        symbol_rows = self._symbol_objs[symbol_cols.T].tolist()
        node_rows = self._node_objs[node_cols.T].tolist()
        return [
            SampledPath(
                tuple(symbol_rows[k][:length]),
                tuple(node_rows[k][: length + 1]),
            )
            for k, length in enumerate(lengths.tolist())
        ]

    # -- single-draw interface (the seed API) ----------------------------

    def sample_path(
        self,
        starts: Sequence[SchemaGraphNode],
        targets: Iterable[SchemaGraphNode],
        length: int,
        rng: int | np.random.Generator | None = None,
    ) -> SampledPath | None:
        """Uniformly sample a length-``length`` path, or None if none exist.

        ``starts`` are the admissible origins (weighted by their path
        counts); ``targets`` the admissible final nodes.
        """
        batch = self.sample_paths(starts, targets, length, 1, rng)
        return batch[0] if batch else None

    def sample_path_in_range(
        self,
        starts: Sequence[SchemaGraphNode],
        targets: Iterable[SchemaGraphNode],
        l_min: int,
        l_max: int,
        rng: int | np.random.Generator | None = None,
        relax_to: int | None = None,
    ) -> SampledPath | None:
        """Sample a path whose length lies in ``[l_min, l_max]``.

        Lengths are weighted by their path counts, so the draw is uniform
        over *all* valid paths of any admissible length.  When no length
        in the interval admits a path and ``relax_to`` is given, lengths
        up to ``relax_to`` are tried in increasing order — the §5.2.4
        relaxation: "we choose to relax the path length in order to
        ensure accurate selectivity estimation".
        """
        batch = self.sample_paths_in_range(
            starts, targets, l_min, l_max, 1, rng, relax_to=relax_to
        )
        return batch[0] if batch else None

    def nodes_matching(
        self, predicate: Callable[[SchemaGraphNode], bool]
    ) -> list[SchemaGraphNode]:
        """Schema-graph nodes satisfying ``predicate`` (target helpers)."""
        return [node for node in self.schema_graph.nodes if predicate(node)]
