"""The dict-of-sets graph backend retained as a reference oracle.

This is the seed implementation the columnar CSR core of
:mod:`repro.generation.graph` replaced: edges live per label in
``source -> set(targets)`` / ``target -> set(sources)`` dictionaries
built one edge at a time.  It is kept, as a test fixture, for the
**parity property tests** — identical ``statistics()``, degree arrays,
``neighbours`` results, and engine answer sets on seeded instances
prove the CSR backend is a drop-in replacement.

The public API mirrors :class:`~repro.generation.graph.LabeledGraph`,
including the ``*_array``, ``edge_keys`` and ``csr_arrays`` accessors
(materialised from the sets on demand), so every engine runs unchanged
on either backend.  Navigation methods return fresh sets on hit and
miss alike — the seed's behaviour of leaking its internal mutable sets
on the hit path is fixed here too.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from repro.columnar import EMPTY_I64, indptr_for, pack_pairs
from repro.generation.graph import GraphStatistics
from repro.schema.config import GraphConfiguration


class ReferenceLabeledGraph:
    """Object-native (dict-of-sets) labeled graph: the parity oracle."""

    def __init__(self, config: GraphConfiguration):
        self.config = config
        self.n = config.total_nodes
        self._forward: dict[str, dict[int, set[int]]] = defaultdict(
            lambda: defaultdict(set)
        )
        self._backward: dict[str, dict[int, set[int]]] = defaultdict(
            lambda: defaultdict(set)
        )
        self._edge_counts: dict[str, int] = defaultdict(int)

    # -- construction ------------------------------------------------

    def add_edge(self, source: int, label: str, target: int) -> bool:
        """Insert one edge; returns False if it was already present."""
        targets = self._forward[label][source]
        if target in targets:
            return False
        targets.add(target)
        self._backward[label][target].add(source)
        self._edge_counts[label] += 1
        return True

    def add_edges(self, label: str, sources: np.ndarray, targets: np.ndarray) -> int:
        """Per-edge insertion of parallel arrays (the seed's bulk path)."""
        inserted = 0
        for source, target in zip(sources.tolist(), targets.tolist()):
            if self.add_edge(source, label, target):
                inserted += 1
        return inserted

    # -- navigation ---------------------------------------------------

    def labels(self) -> list[str]:
        return [label for label, count in self._edge_counts.items() if count]

    def successors(self, node: int, label: str) -> set[int]:
        """Targets of ``label``-edges leaving ``node`` (fresh set)."""
        by_source = self._forward.get(label)
        if by_source is None:
            return set()
        return set(by_source.get(node, ()))

    def predecessors(self, node: int, label: str) -> set[int]:
        """Sources of ``label``-edges entering ``node`` (fresh set)."""
        by_target = self._backward.get(label)
        if by_target is None:
            return set()
        return set(by_target.get(node, ()))

    def neighbours(self, node: int, symbol: str) -> set[int]:
        if symbol.endswith("-"):
            return self.predecessors(node, symbol[:-1])
        return self.successors(node, symbol)

    def _as_array(self, members: set[int]) -> np.ndarray:
        if not members:
            return EMPTY_I64
        arr = np.fromiter(members, dtype=np.int64, count=len(members))
        arr.sort()
        return arr

    def successors_array(self, node: int, label: str) -> np.ndarray:
        by_source = self._forward.get(label)
        return self._as_array(by_source.get(node, set()) if by_source else set())

    def predecessors_array(self, node: int, label: str) -> np.ndarray:
        by_target = self._backward.get(label)
        return self._as_array(by_target.get(node, set()) if by_target else set())

    def neighbours_array(self, node: int, symbol: str) -> np.ndarray:
        if symbol.endswith("-"):
            return self.predecessors_array(node, symbol[:-1])
        return self.successors_array(node, symbol)

    def edges_with_label(self, label: str) -> list[tuple[int, int]]:
        """All (source, target) pairs carrying ``label``, sorted."""
        by_source = self._forward.get(label, {})
        return sorted(
            (s, t) for s, targets in by_source.items() for t in targets
        )

    def edge_arrays(self, label: str) -> tuple[np.ndarray, np.ndarray]:
        pairs = self.edges_with_label(label)
        if not pairs:
            return EMPTY_I64, EMPTY_I64
        arr = np.asarray(pairs, dtype=np.int64)
        return arr[:, 0], arr[:, 1]

    def edge_keys(self, label: str) -> np.ndarray:
        """Packed sorted (source, target) key column of one label."""
        return pack_pairs(*self.edge_arrays(label))

    def csr_arrays(self, symbol: str) -> tuple[np.ndarray, np.ndarray] | None:
        """``(indptr, payload)`` CSR index of one ``Sigma±`` symbol."""
        first, payload = self.edge_arrays(symbol.removesuffix("-"))
        if first.size == 0:
            return None
        if symbol.endswith("-"):
            order = np.argsort(payload, kind="stable")
            first, payload = payload[order], first[order]
        return indptr_for(first, self.n), payload

    def out_degree(self, node: int, label: str) -> int:
        return len(self.successors(node, label))

    def in_degree(self, node: int, label: str) -> int:
        return len(self.predecessors(node, label))

    def out_degrees(self, label: str) -> np.ndarray:
        degrees = np.zeros(self.n, dtype=np.int64)
        for source, targets in self._forward.get(label, {}).items():
            degrees[source] = len(targets)
        return degrees

    def in_degrees(self, label: str) -> np.ndarray:
        degrees = np.zeros(self.n, dtype=np.int64)
        for target, sources in self._backward.get(label, {}).items():
            degrees[target] = len(sources)
        return degrees

    def type_of(self, node: int) -> str:
        return self.config.type_of(node)

    def nodes_of_type(self, type_name: str) -> range:
        type_range = self.config.ranges[type_name]
        return range(type_range.start, type_range.stop)

    # -- aggregates ---------------------------------------------------

    @property
    def edge_count(self) -> int:
        return sum(self._edge_counts.values())

    def statistics(self) -> GraphStatistics:
        return GraphStatistics(
            nodes=self.n,
            edges=self.edge_count,
            labels=len(self.labels()),
            edges_per_label={
                label: count
                for label, count in self._edge_counts.items()
                if count
            },
            nodes_per_type={
                name: r.count for name, r in self.config.ranges.items()
            },
        )

    def __repr__(self) -> str:
        return f"ReferenceLabeledGraph(n={self.n}, edges={self.edge_count})"
