"""Binary relations: the columnar pair sets P and D evaluate into.

A :class:`BinaryRelation` is a set of (source, target) integer pairs
stored **columnar**: one :class:`~repro.columnar.PairStore` (a sorted,
deduplicated ``int64`` key column), exactly the physical layout of the
graph's per-label CSR stores — :meth:`BinaryRelation.from_graph_symbol`
adopts a label's key column zero-copy, and an inverse label's packed
backward index without re-sorting.  Union and inverse are sorted-set
algebra (``merge_keys``, ``sorted_unique_keys``).  Paths extend through
the graph's CSR (:func:`repro.engine.base.extend_path`); :meth:`~
BinaryRelation.compose`, a sort-merge ``np.searchsorted`` join of two
relations, serves P's star fixpoint only.  Join sizes are charged
against the budget *before* the output arrays are materialised, so
runaway joins surface as :class:`~repro.errors.EngineBudgetExceeded`.
D's stars are the closure's business (:mod:`repro.engine.closure`).

Relations are built from columns (:meth:`BinaryRelation.from_arrays`,
:meth:`~BinaryRelation.from_keys`) and read as columns
(:attr:`~BinaryRelation.source_array`, :attr:`~BinaryRelation.
target_array`, :attr:`~BinaryRelation.key_array`); there is no
tuple-at-a-time surface.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.columnar import (
    PairStore,
    as_id_array,
    dedup_sorted,
    expand_join,
    frozen,
    merge_keys,
    pack_pairs,
    sorted_unique,
    sorted_unique_keys,
)
from repro.engine.budget import EvaluationBudget, unlimited
from repro.generation.graph import LabeledGraph
from repro.queries.ast import is_inverse


class BinaryRelation:
    """An immutable set of integer pairs with columnar two-way indexes.

    ``BinaryRelation()`` is the empty relation; every other relation
    comes from a ``from_*`` constructor.
    """

    __slots__ = ("_store",)

    def __init__(self):
        self._store = PairStore()

    # -- construction ---------------------------------------------------

    @classmethod
    def from_keys(cls, keys: np.ndarray) -> "BinaryRelation":
        """Adopt a sorted unique packed key column zero-copy.

        The packed-key fast path: frontier sweeps and closure kernels
        that already operate on key columns hand their result over
        without unpacking.
        """
        relation = cls.__new__(cls)
        relation._store = PairStore.from_keys(keys)
        return relation

    @classmethod
    def from_arrays(cls, sources, targets) -> "BinaryRelation":
        """Build from parallel endpoint columns (deduplicates)."""
        sources = as_id_array(sources)
        if sources.size == 0:
            return cls()
        return cls.from_keys(sorted_unique_keys(sources, targets))

    @classmethod
    def from_graph_symbol(cls, graph: LabeledGraph, symbol: str) -> "BinaryRelation":
        """Relation of one symbol in ``Sigma±`` (inverse swaps columns).

        A label adopts its sorted key column zero-copy.  An inverse
        packs the label's backward CSR index (:meth:`LabeledGraph.
        csr_arrays`): the store stable-sorts it on target, so the packed
        ``(target, source)`` keys are already sorted and unique.
        """
        if not is_inverse(symbol):
            return cls.from_keys(graph.edge_keys(symbol))
        csr = graph.csr_arrays(symbol)
        if csr is None:
            return cls()
        indptr, sources = csr
        targets = np.repeat(np.arange(indptr.size - 1), np.diff(indptr))
        return cls.from_keys(pack_pairs(targets, sources))

    @classmethod
    def identity(cls, nodes: Iterable[int]) -> "BinaryRelation":
        """The ε relation: every node related to itself."""
        if isinstance(nodes, range):
            ids = np.arange(nodes.start, nodes.stop, nodes.step, dtype=np.int64)
            ids = np.sort(ids)
        else:
            ids = sorted_unique(list(nodes))
        if ids.size == 0:
            return cls()
        return cls.from_keys(pack_pairs(ids, ids))

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

    def backward_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(sorted targets, sources in that order): the inverse index.

        Read-only columns for join probes against the target side.
        """
        return self._store.backward()

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
            merge_keys(self.key_array, other.key_array)
        )

    def inverse(self) -> "BinaryRelation":
        if self.key_array.size == 0:
            return BinaryRelation()
        return BinaryRelation.from_keys(
            sorted_unique_keys(self.target_array, self.source_array)
        )

    def compose(
        self, other: "BinaryRelation", budget: EvaluationBudget | None = None
    ) -> "BinaryRelation":
        """``{(a, c) | (a, b) ∈ self, (b, c) ∈ other}`` (sort-merge join).

        P's star fixpoint joins its accumulated relation with the base
        through this.  The probe side is this relation's target column,
        the build side the other's sorted source column; the raw join
        size is charged against the budget *before* materialisation.
        """
        budget = budget or unlimited()
        if len(self) == 0 or len(other) == 0:
            return BinaryRelation()
        _, probe_index, build_index = expand_join(
            self.target_array, other.source_array, budget.check_rows
        )
        budget.check_time()
        if probe_index.size == 0:
            return BinaryRelation()
        return BinaryRelation.from_arrays(
            self.source_array[probe_index], other.target_array[build_index]
        )

    def __repr__(self) -> str:
        return f"BinaryRelation({len(self)} pairs)"
