"""In-memory directed edge-labeled graph instances (columnar CSR core).

The generator produces a :class:`LabeledGraph`: node ids are dense
integers partitioned into per-type ranges by the configuration, and
edges are stored per label in a **columnar store** — one sorted,
deduplicated ``int64`` key column per label (see :mod:`repro.columnar`)
from which forward and backward CSR indexes are materialised lazily.
Engines and the selectivity validation consume whole columns
(:meth:`LabeledGraph.edge_arrays`) or CSR slices
(:meth:`LabeledGraph.successors_array`) instead of Python objects.

Storage layers, in materialisation order:

1. **edge stream** — the generator emits ``(label, sources, targets)``
   array batches (Fig. 5 runs one constraint at a time);
2. **columnar store** — each batch is packed, merged, and deduplicated
   into the label's sorted key column (sort + adjacent-mask set
   semantics: gMark evaluation is set-oriented per §3.3, so parallel
   identical edges would never be observable through queries);
3. **CSR indexes** — built on first navigation access per direction:
   the key column already *is* the forward CSR payload (keys sort by
   source, then target), the backward index is one ``argsort``;
4. **relations** — :class:`~repro.engine.relations.BinaryRelation`
   wraps the same columns zero-copy via
   :meth:`~repro.engine.relations.BinaryRelation.from_arrays`.

The dict-of-sets implementation this replaced survives as the parity
oracle under ``tests/oracles/``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.columnar import EMPTY_I64, PairStore, as_id_array
from repro.observability.trace import TRACER
from repro.schema.config import GraphConfiguration


@dataclass(frozen=True)
class GraphStatistics:
    """Summary statistics of an instance (used by tests and reports)."""

    nodes: int
    edges: int
    labels: int
    edges_per_label: dict[str, int]
    nodes_per_type: dict[str, int]

    def __repr__(self) -> str:
        return (
            f"GraphStatistics(nodes={self.nodes}, edges={self.edges}, "
            f"labels={self.labels})"
        )


class LabeledGraph:
    """A directed edge-labeled graph with typed integer nodes.

    The structure keeps one columnar :class:`~repro.columnar.PairStore`
    per label (sources as the first column, targets as the second).
    Edges go in as bulk columns (:meth:`add_edges`), which collapses
    duplicate (source, label, target) triples, and come out as read-only
    columns: whole labels (:meth:`edge_arrays`, :meth:`edge_keys`), CSR
    indexes (:meth:`csr_arrays`) or one node's CSR slice (the ``*_array``
    methods).
    """

    def __init__(self, config: GraphConfiguration):
        self.config = config
        self.n = config.total_nodes
        self._stores: dict[str, PairStore] = {}

    def _store(self, label: str) -> PairStore:
        store = self._stores.get(label)
        if store is None:
            store = self._stores[label] = PairStore(domain_size=self.n)
        return store

    # -- construction ------------------------------------------------

    def add_edges(self, label: str, sources: np.ndarray, targets: np.ndarray) -> int:
        """Bulk-insert parallel arrays of endpoints; returns #inserted.

        This is the generator's path: one packed sort + adjacent-mask
        merge per constraint batch instead of a Python loop over pairs.
        Ragged, non-1-D or out-of-``[0, n)`` columns raise ``ValueError``.
        """
        sources = as_id_array(sources)
        targets = as_id_array(targets)
        if sources.size == 0 and targets.size == 0:
            return 0
        with TRACER.span("graph.add_edges", label=label) as span:
            try:
                inserted = self._store(label).add_batch(sources, targets)
            except ValueError as error:
                raise ValueError(f"label {label!r}: {error}") from None
            if span:
                span.set(batch=int(sources.size), inserted=inserted)
        return inserted

    # -- navigation ---------------------------------------------------

    def labels(self) -> list[str]:
        """Labels that occur on at least one edge."""
        return [label for label, store in self._stores.items() if len(store)]

    def successors_array(self, node: int, label: str) -> np.ndarray:
        """Targets of ``label``-edges leaving ``node``: read-only slice."""
        store = self._stores.get(label)
        if store is None:
            return EMPTY_I64
        return store.slice_of(node)

    def predecessors_array(self, node: int, label: str) -> np.ndarray:
        """Sources of ``label``-edges entering ``node``: read-only slice."""
        store = self._stores.get(label)
        if store is None:
            return EMPTY_I64
        return store.backward_slice_of(node)

    def neighbours_array(self, node: int, symbol: str) -> np.ndarray:
        """One ``Sigma±`` step as a read-only CSR slice.

        A trailing ``-`` denotes the inverse predicate (paper §3.3), so
        ``neighbours_array(v, "a-")`` follows ``a``-edges backwards.
        """
        if symbol.endswith("-"):
            return self.predecessors_array(node, symbol[:-1])
        return self.successors_array(node, symbol)

    def csr_arrays(self, symbol: str) -> tuple[np.ndarray, np.ndarray] | None:
        """Full CSR index of one ``Sigma±`` symbol: ``(indptr, payload)``.

        ``payload[indptr[v]:indptr[v + 1]]`` are the ``symbol``-
        neighbours of node ``v`` (read-only views); ``None`` when the
        label carries no edges.  The frontier kernels gather successors
        of whole frontier arrays through this in one pass
        (:func:`repro.columnar.expand_indptr`) instead of slicing per
        node.
        """
        with TRACER.span("graph.csr_arrays", symbol=symbol):
            if symbol.endswith("-"):
                store = self._stores.get(symbol[:-1])
                if store is None or not len(store):
                    return None
                _, firsts = store.backward()
                return store.backward_indptr(), firsts
            store = self._stores.get(symbol)
            if store is None or not len(store):
                return None
            return store.forward_indptr(), store.second

    def edge_arrays(self, label: str) -> tuple[np.ndarray, np.ndarray]:
        """(sources, targets) columns, sorted by (source, target).

        Read-only zero-copy views of the columnar store — the engine
        and relation fast path.
        """
        store = self._stores.get(label)
        if store is None or not len(store):
            return EMPTY_I64, EMPTY_I64
        return store.first, store.second

    def edge_keys(self, label: str) -> np.ndarray:
        """Packed sorted (source, target) key column (see repro.columnar)."""
        store = self._stores.get(label)
        if store is None:
            return EMPTY_I64
        return store.keys

    def out_degree(self, node: int, label: str) -> int:
        return int(self.successors_array(node, label).size)

    def in_degree(self, node: int, label: str) -> int:
        return int(self.predecessors_array(node, label).size)

    def out_degrees(self, label: str) -> np.ndarray:
        """Out-degree of every node for ``label`` (distribution tests)."""
        store = self._stores.get(label)
        if store is None:
            return np.zeros(self.n, dtype=np.int64)
        indptr = store.forward_indptr()
        return np.diff(indptr)

    def in_degrees(self, label: str) -> np.ndarray:
        """In-degree of every node for ``label``."""
        store = self._stores.get(label)
        if store is None:
            return np.zeros(self.n, dtype=np.int64)
        indptr = store.backward_indptr()
        return np.diff(indptr)

    def type_of(self, node: int) -> str:
        """Node type of a node id (delegates to the configuration)."""
        return self.config.type_of(node)

    def nodes_of_type(self, type_name: str) -> range:
        """Node ids of one type, as a range (no materialisation)."""
        type_range = self.config.ranges[type_name]
        return range(type_range.start, type_range.stop)

    # -- aggregates ---------------------------------------------------

    @property
    def edge_count(self) -> int:
        return sum(len(store) for store in self._stores.values())

    @property
    def nbytes(self) -> int:
        """Live bytes of every label's columnar store (memory governance)."""
        return sum(store.nbytes for store in self._stores.values())

    def self_check(self) -> None:
        """Assert every label store's invariants (chaos-suite probe)."""
        for store in self._stores.values():
            store.self_check()

    def statistics(self) -> GraphStatistics:
        """Aggregate statistics used by reports and property tests."""
        edges_per_label = {
            label: len(store)
            for label, store in self._stores.items()
            if len(store)
        }
        return GraphStatistics(
            nodes=self.n,
            edges=sum(edges_per_label.values()),
            labels=len(edges_per_label),
            edges_per_label=edges_per_label,
            nodes_per_type={
                name: r.count for name, r in self.config.ranges.items()
            },
        )

    def __repr__(self) -> str:
        return f"LabeledGraph(n={self.n}, edges={self.edge_count})"
