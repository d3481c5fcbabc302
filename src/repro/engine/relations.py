"""Binary relations: the columnar pair sets P and D evaluate into.

A :class:`BinaryRelation` is a set of (source, target) integer pairs
stored **columnar**: one :class:`~repro.columnar.PairStore` (a sorted,
deduplicated ``int64`` key column), exactly the physical layout of the
graph's per-label CSR stores — :meth:`BinaryRelation.from_graph_symbol`
adopts a label's key column zero-copy, and an inverse label's packed
backward index without re-sorting.  Union is sorted-set algebra
(``merge_keys``).  A relation carries its node domain, so its store
builds a forward / backward CSR on first use, and it is probed two
ways only: :meth:`~BinaryRelation.gather` (every partner of a value
column, one :func:`~repro.columnar.expand_indptr`) and
:meth:`~BinaryRelation.contains_many` (a pair-membership filter).  The
conjunct join, :meth:`~BinaryRelation.compose` (P's star fixpoint) and
G's variable-length steps all probe through them; paths extend through
the graph's own CSR (:func:`repro.engine.base.disjunction_relation`).
Gather sizes are charged against the budget *before* the output arrays
are materialised, so runaway joins surface as
:class:`~repro.errors.EngineBudgetExceeded`.  D's stars are the
closure's business (:mod:`repro.engine.closure`), which answers the
same two probes.

Relations are built from columns (:meth:`BinaryRelation.from_arrays`,
:meth:`~BinaryRelation.from_keys`) and read as columns
(:attr:`~BinaryRelation.source_array`, :attr:`~BinaryRelation.
target_array`, :attr:`~BinaryRelation.key_array`); there is no
tuple-at-a-time surface.
"""

from __future__ import annotations

import numpy as np

from repro.columnar import (
    PairStore,
    as_id_array,
    dedup_sorted,
    expand_indptr,
    frozen,
    keys_contain_many,
    merge_keys,
    pack_pairs,
    sorted_unique_keys,
)
from repro.engine.budget import EvaluationBudget, unlimited
from repro.generation.graph import LabeledGraph
from repro.queries.ast import is_inverse


class BinaryRelation:
    """An immutable set of integer pairs with columnar two-way indexes.

    ``BinaryRelation(n)`` is the empty relation over ``n`` nodes; every
    other relation comes from a ``from_*`` constructor.  Every
    constructor takes the node domain ``[0, node_count)``, which sizes
    the lazy CSR that :meth:`gather` probes.
    """

    __slots__ = ("_store",)

    def __init__(self, domain_size: int):
        self._store = PairStore(domain_size)

    # -- construction ---------------------------------------------------

    @classmethod
    def from_keys(cls, keys: np.ndarray, domain_size: int) -> "BinaryRelation":
        """Adopt a sorted unique packed key column zero-copy.

        The packed-key fast path: frontier sweeps and closure kernels
        that already operate on key columns hand their result over
        without unpacking.
        """
        relation = cls.__new__(cls)
        relation._store = PairStore.from_keys(keys, domain_size)
        return relation

    @classmethod
    def from_arrays(cls, sources, targets, domain_size: int) -> "BinaryRelation":
        """Build from parallel endpoint columns (deduplicates)."""
        sources = as_id_array(sources)
        if sources.size == 0:
            return cls(domain_size)
        return cls.from_keys(sorted_unique_keys(sources, targets), domain_size)

    @classmethod
    def from_graph_symbol(cls, graph: LabeledGraph, symbol: str) -> "BinaryRelation":
        """Relation of one symbol in ``Sigma±`` (inverse swaps columns).

        A label adopts its sorted key column zero-copy.  An inverse
        packs the label's backward CSR index (:meth:`LabeledGraph.
        csr_arrays`): the store stable-sorts it on target, so the packed
        ``(target, source)`` keys are already sorted and unique.
        """
        if not is_inverse(symbol):
            return cls.from_keys(graph.edge_keys(symbol), graph.n)
        csr = graph.csr_arrays(symbol)
        if csr is None:
            return cls(graph.n)
        indptr, sources = csr
        targets = np.repeat(np.arange(indptr.size - 1), np.diff(indptr))
        return cls.from_keys(pack_pairs(targets, sources), graph.n)

    @classmethod
    def identity(cls, node_count: int) -> "BinaryRelation":
        """The ε relation over ``node_count`` nodes: each to itself."""
        ids = np.arange(node_count, dtype=np.int64)
        return cls.from_keys(pack_pairs(ids, ids), node_count)

    # -- columnar views ---------------------------------------------------

    @property
    def source_array(self) -> np.ndarray:
        """Source column, sorted (read-only)."""
        return self._store.first

    @property
    def target_array(self) -> np.ndarray:
        """Target column, in source-sorted order (read-only)."""
        return self._store.second

    @property
    def key_array(self) -> np.ndarray:
        """Packed sorted (source, target) keys (read-only)."""
        return self._store.keys

    @property
    def node_count(self) -> int:
        """Size of the node domain the ids lie in."""
        return self._store.domain_size

    # -- probes -----------------------------------------------------------

    def gather(
        self,
        values: np.ndarray | None,
        forward: bool,
        check_rows=None,
        check_bytes=None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Every partner of each value: ``(probe_index, partners)``.

        ``forward`` reads ``values`` as sources and returns their
        targets; otherwise as targets, returning their sources.  One
        :func:`~repro.columnar.expand_indptr` over the store's lazy
        forward / backward CSR; ``check_rows`` sees the gathered size
        before anything is built.  Values must lie in the node domain;
        ``None`` probes every node in order, so the probe index is the
        node id — here the relation's own columns.  Both columns are
        read-only.  ``check_bytes`` charges nothing here: the store's
        CSR is left out of byte accounting, as it is from :attr:`nbytes`
        (a closure charges its reach, :meth:`ClosureRelation.gather`).
        """
        store = self._store
        if values is None:
            if check_rows is not None:
                check_rows(len(store))
            return (store.first, store.second) if forward else store.backward()
        if forward:
            indptr, payload = store.forward_indptr(), store.second
        else:
            indptr, payload = store.backward_indptr(), store.backward()[1]
        probe_index, partners = expand_indptr(values, indptr, payload, check_rows)
        return frozen(probe_index), frozen(partners)

    def contains_many(self, sources: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """Membership mask of parallel (source, target) id columns."""
        return keys_contain_many(self.key_array, pack_pairs(sources, targets))

    # -- inspection -------------------------------------------------------

    def __len__(self) -> int:
        return len(self._store)

    @property
    def nbytes(self) -> int:
        """Live bytes of the underlying columnar store."""
        return self._store.nbytes

    def __bool__(self) -> bool:
        return len(self._store) > 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, BinaryRelation):
            return NotImplemented
        return np.array_equal(self.key_array, other.key_array)

    def sources(self) -> np.ndarray:
        """Distinct sources (read-only sorted array)."""
        return frozen(dedup_sorted(self._store.first))

    # -- algebra ----------------------------------------------------------

    def union(self, other: "BinaryRelation") -> "BinaryRelation":
        return BinaryRelation.from_keys(
            merge_keys(self.key_array, other.key_array), self.node_count
        )

    def compose(
        self, other: "BinaryRelation", budget: EvaluationBudget | None = None
    ) -> "BinaryRelation":
        """``{(a, c) | (a, b) ∈ self, (b, c) ∈ other}``.

        P's star fixpoint joins its accumulated relation with the base
        through this: this relation's target column gathers through the
        other's forward CSR, and the raw join size is charged against
        the budget *before* materialisation.
        """
        budget = budget or unlimited()
        if len(self) == 0 or len(other) == 0:
            return BinaryRelation(self.node_count)
        probe_index, targets = other.gather(
            self.target_array, True, budget.check_rows
        )
        budget.check_time()
        return BinaryRelation.from_arrays(
            self.source_array[probe_index], targets, self.node_count
        )

    def __repr__(self) -> str:
        return f"BinaryRelation({len(self)} pairs)"
