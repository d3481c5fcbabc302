"""The seed-era dict-based path sampler, retained as the oracle.

This is the pre-vectorization implementation of §5.2.4 sampling: the
``nb_path`` tables are lists of per-level ``{node: count}`` dicts keyed
by ``(target set, max length)`` pairs (so every distinct length
re-saturates and re-caches a whole table — the cache-churn behaviour
the vectorized sampler fixes), and each draw is one Python walk with a
per-successor accumulation.  It exists as the **parity oracle** —
``tests/test_sampler_parity.py`` checks that the batch sampler draws
from exactly the same valid-path support, with the same uniform
distribution and the same relaxation behaviour.

The batch entry points (``sample_paths`` / ``sample_paths_in_range``)
are plain Python loops over the single-draw methods.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

from repro.rng import ensure_rng
from repro.selectivity.path_sampler import SampledPath
from repro.selectivity.schema_graph import SchemaGraph, SchemaGraphNode


class ReferencePathSampler:
    """Dict-table ``nb_path`` counting and per-path weighted walks."""

    def __init__(self, schema_graph: SchemaGraph):
        self.schema_graph = schema_graph
        self._tables: dict[tuple[frozenset[SchemaGraphNode], int], list[dict]] = {}

    # -- counting ------------------------------------------------------

    def path_counts(
        self, targets: Iterable[SchemaGraphNode], max_length: int
    ) -> list[dict[SchemaGraphNode, int]]:
        """``nb_path`` table: ``result[i][n]`` = #length-``i`` paths
        from ``n`` ending in ``targets`` (absent keys mean zero)."""
        target_set = frozenset(self._as_nodes(targets))
        key = (target_set, max_length)
        cached = self._tables.get(key)
        if cached is not None:
            return cached

        table: list[dict[SchemaGraphNode, int]] = [
            {node: 1 for node in target_set if node in self.schema_graph}
        ]
        for _ in range(max_length):
            previous = table[-1]
            level: dict[SchemaGraphNode, int] = {}
            for node in self.schema_graph.nodes:
                total = 0
                for _, successor in self.schema_graph.successors(node):
                    total += previous.get(successor, 0)
                if total:
                    level[node] = total
            table.append(level)
        self._tables[key] = table
        return table

    def count_from(
        self,
        start: SchemaGraphNode,
        targets: Iterable[SchemaGraphNode],
        length: int,
    ) -> int:
        """Number of length-``length`` paths from ``start`` to ``targets``."""
        table = self.path_counts(targets, length)
        return table[length].get(start, 0)

    def _as_nodes(self, nodes) -> list[SchemaGraphNode]:
        """Accept node sequences or dense-id arrays (sampler interface)."""
        if isinstance(nodes, np.ndarray):
            all_nodes = self.schema_graph.nodes
            return [all_nodes[int(i)] for i in nodes]
        return list(nodes)

    # -- sampling -------------------------------------------------------

    def sample_path(
        self,
        starts: Sequence[SchemaGraphNode],
        targets: Iterable[SchemaGraphNode],
        length: int,
        rng: int | np.random.Generator | None = None,
    ) -> SampledPath | None:
        """Uniformly sample a length-``length`` path, or None if none exist."""
        rng = ensure_rng(rng)
        starts = self._as_nodes(starts)
        table = self.path_counts(targets, length)

        weights = [table[length].get(node, 0) for node in starts]
        total = sum(weights)
        if total == 0:
            return None
        start = _weighted_choice(starts, weights, total, rng)

        symbols: list[str] = []
        nodes: list[SchemaGraphNode] = [start]
        current = start
        for remaining in range(length, 0, -1):
            options = self.schema_graph.successors(current)
            option_weights = [
                table[remaining - 1].get(successor, 0) for _, successor in options
            ]
            option_total = sum(option_weights)
            if option_total == 0:
                return None  # cannot happen if the table is consistent
            symbol, current = _weighted_choice(
                options, option_weights, option_total, rng
            )
            symbols.append(symbol)
            nodes.append(current)
        return SampledPath(tuple(symbols), tuple(nodes))

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
        rng = ensure_rng(rng)
        starts = self._as_nodes(starts)
        target_list = self._as_nodes(targets)
        table = self.path_counts(target_list, max(l_max, relax_to or 0))

        length_weights = []
        lengths = list(range(l_min, l_max + 1))
        for length in lengths:
            level = table[length]
            length_weights.append(sum(level.get(node, 0) for node in starts))
        total = sum(length_weights)
        if total > 0:
            length = _weighted_choice(lengths, length_weights, total, rng)
            return self.sample_path(starts, target_list, length, rng)

        if relax_to is not None:
            for length in range(l_max + 1, relax_to + 1):
                if sum(table[length].get(node, 0) for node in starts) > 0:
                    return self.sample_path(starts, target_list, length, rng)
            for length in range(l_min - 1, -1, -1):
                if sum(table[length].get(node, 0) for node in starts) > 0:
                    return self.sample_path(starts, target_list, length, rng)
        return None

    # -- batch interface (loops; the vectorized sampler's contract) -----

    def sample_paths(
        self,
        starts,
        targets,
        length: int,
        count: int,
        rng: int | np.random.Generator | None = None,
    ) -> list[SampledPath]:
        """``count`` independent draws; empty list when no path exists."""
        rng = ensure_rng(rng)
        out: list[SampledPath] = []
        for _ in range(count):
            path = self.sample_path(starts, targets, length, rng)
            if path is None:
                return []
            out.append(path)
        return out

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
        """``count`` independent range draws; empty when infeasible."""
        rng = ensure_rng(rng)
        out: list[SampledPath] = []
        for _ in range(count):
            path = self.sample_path_in_range(
                starts, targets, l_min, l_max, rng, relax_to=relax_to
            )
            if path is None:
                return []
            out.append(path)
        return out

    def nodes_matching(
        self, predicate: Callable[[SchemaGraphNode], bool]
    ) -> list[SchemaGraphNode]:
        """Schema-graph nodes satisfying ``predicate`` (target helpers)."""
        return [node for node in self.schema_graph.nodes if predicate(node)]


_I64_MAX = np.iinfo(np.int64).max


def _weighted_choice(items, weights, total, rng: np.random.Generator):
    """Pick one item with probability weight/total (ints stay exact).

    Python-int path counts can outgrow int64 (``rng.integers`` rejects
    such bounds — the seed implementation crashed there); draws then
    degrade to float64 proportionality, matching the vectorized
    sampler's overflow fallback.
    """
    if total <= _I64_MAX:
        pick = int(rng.integers(0, total))
    else:
        pick = int(rng.random() * total)
    acc = 0
    for item, weight in zip(items, weights):
        acc += weight
        if pick < acc:
            return item
    return items[-1]
