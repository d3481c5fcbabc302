"""SCC-condensation closure relations (the Datalog engine's recursion).

A reflexive-transitive closure ``R*`` can be represented without
materialising its (potentially quadratic) pair set: condense the graph
into strongly connected components (scipy's ``connected_components``),
compute component-level reachability bottom-up over the condensation
DAG — ``Reach = I ∪ E ∘ Reach``, one vectorised step per DAG level, the
semi-naive fixpoint of a Datalog engine — and answer pair queries
through the component maps.  Because gMark regular
expressions only allow Kleene star at the *outermost* level, a closure
is never composed further — it flows straight into the conjunct join,
which probes it exactly as it probes a :class:`BinaryRelation`:
:meth:`~ClosureRelation.contains_many` (a both-bound filter answered
from the component-level reach keys) and :meth:`~ClosureRelation.gather`
(every partner of each bound row, gathered component by component
through the reach's forward or backward CSR and then the member CSR).

This mirrors how mature Datalog engines survive the paper's recursive
workload (Table 4) while the naive SQL:1999 fixpoint drowns.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from repro.columnar import (
    EMPTY_I64,
    expand_indptr,
    expand_ranges,
    frozen,
    indptr_for,
    keys_contain_many,
    pack_pairs,
    sorted_unique_keys,
    unpack_keys,
)
from repro.engine.budget import EvaluationBudget, unlimited
from repro.engine.relations import BinaryRelation


class ClosureRelation:
    """``R* = identity ∪ R⁺`` over a fixed node domain, SCC-compressed."""

    def __init__(
        self,
        base: BinaryRelation,
        node_count: int,
        budget: EvaluationBudget | None = None,
    ):
        budget = budget or unlimited()
        self.node_count = node_count
        sources = base.source_array
        targets = base.target_array
        if sources.size:
            data = np.ones(sources.size, dtype=np.int8)
            adjacency = csr_matrix(
                (data, (sources, targets)), shape=(node_count, node_count)
            )
            _, labels = connected_components(
                adjacency, directed=True, connection="strong"
            )
        else:
            labels = np.arange(node_count, dtype=np.int64)
        budget.check_time()

        #: node -> component id.
        self._labels = np.asarray(labels, dtype=np.int64)
        component_count = int(self._labels.max()) + 1 if node_count else 0

        # component -> members, as a CSR over the label-sorted node ids.
        self._member_order = np.argsort(self._labels, kind="stable")
        self._member_indptr = indptr_for(self._labels, component_count)

        # Condensation DAG edges: map endpoints to components and
        # deduplicate cross-component pairs in one vectorized pass.
        source_components = self._labels[sources]
        target_components = self._labels[targets]
        cross = source_components != target_components
        dag = BinaryRelation.from_arrays(
            source_components[cross], target_components[cross], component_count
        )
        budget.check_time()

        #: Component-level reachability (includes self) as a packed-key
        #: relation over component ids — the only reach representation:
        #: membership is one binary search, a probe one gather through
        #: its forward or backward CSR.
        self._reach = _component_reach(dag, component_count, budget)
        self._size: int | None = None

    # -- relation API -----------------------------------------------------

    def __len__(self) -> int:
        if self._size is None:
            # |R*| = Σ_{(c, d) ∈ reach} |c| · |d|.
            sizes = np.diff(self._member_indptr)
            reach = self._reach
            self._size = int(
                (sizes[reach.source_array] * sizes[reach.target_array]).sum()
            )
        return self._size

    def __bool__(self) -> bool:
        return self.node_count > 0

    def contains_many(self, sources: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """Membership mask of parallel (source, target) id columns.

        Answered at component level — ``labels[sources], labels[targets]``
        against the reach keys — so nothing node-level is built however
        large the components are.  Ids must lie in the node domain (the
        join's columns come from relations over the same graph).
        """
        probes = pack_pairs(self._labels[sources], self._labels[targets])
        return keys_contain_many(self._reach.key_array, probes)

    def gather(
        self,
        values: np.ndarray | None,
        forward: bool,
        check_rows=None,
        check_bytes=None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Every ``R*`` partner of each value: ``(probe_index, partners)``.

        :meth:`BinaryRelation.gather`'s contract (``None`` probes every
        node, read-only outputs), answered at component level: each
        value's component gathers its reached components through the
        reach's forward CSR (``forward``) or backward CSR, and each of
        those gathers its members.  ``check_rows`` sees the (value,
        component) pairs, then the final size — never more than the
        final size — before each gather builds.  A backward gather first
        charges the reach's bytes to ``check_bytes``: it reads the
        reach re-sorted on target.
        """
        if values is None:
            values = np.arange(self.node_count, dtype=np.int64)
        if not forward and check_bytes is not None:
            check_bytes(self._reach.nbytes)
        row, components = self._reach.gather(
            self._labels[values], forward, check_rows
        )
        member, partners = expand_indptr(
            components, self._member_indptr, self._member_order, check_rows
        )
        return frozen(row[member]), frozen(partners)

    def __repr__(self) -> str:
        return (
            f"ClosureRelation({self.node_count} nodes, "
            f"{self._member_indptr.size - 1} SCCs)"
        )


def _component_reach(
    dag: BinaryRelation, component_count: int, budget: EvaluationBudget
) -> BinaryRelation:
    """Reflexive reachability over the condensation DAG, level by level.

    ``Reach = I ∪ E ∘ Reach`` bottom-up, in reverse topological order:
    the DAG is peeled from its sinks, and a component joins a level once
    every successor is finished.  A level is one batch step on the
    columnar kernels — gather the successors' finished reach rows (a
    forward :meth:`~BinaryRelation.gather` over the DAG, then
    :func:`expand_ranges` over the reach buffer), add ``(c, c)``,
    deduplicate the packed keys, append the rows to one growing buffer —
    so a level costs its edges plus the rows it gathers, never the
    component count.  A backward gather counts down each parent's
    unfinished successors.  ``check_time`` is polled once per level.
    """
    pending = np.bincount(dag.source_array, minlength=component_count)
    start = np.zeros(component_count, dtype=np.int64)
    count = np.zeros(component_count, dtype=np.int64)
    reach = np.empty(component_count, dtype=np.int64)  # every c reaches c
    used = 0
    level = np.flatnonzero(pending == 0)
    while level.size:
        budget.check_time()
        owner, successors = dag.gather(level, True)
        row, reached = expand_ranges(start[successors], count[successors], reach)
        keys = sorted_unique_keys(
            np.concatenate((level, level[owner[row]])),
            np.concatenate((level, reached)),
        )
        owners, targets = unpack_keys(keys)
        firsts, lengths = _runs(owners)
        start[owners[firsts]] = used + firsts
        count[owners[firsts]] = lengths
        end = used + keys.size
        if end > reach.size:  # amortised doubling; only [:used] is read
            reach = np.resize(reach, max(2 * reach.size, end))
        reach[used:end] = targets
        used = end
        _, parents = dag.gather(level, False)
        level = _finished(parents, pending)
    components, targets = expand_ranges(start, count, reach)
    return BinaryRelation.from_keys(pack_pairs(components, targets), component_count)


def _runs(sorted_column: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start index and length of each run of a non-empty sorted column."""
    firsts = np.flatnonzero(
        np.concatenate(([True], sorted_column[1:] != sorted_column[:-1]))
    )
    return firsts, np.diff(np.append(firsts, sorted_column.size))


def _finished(parents: np.ndarray, pending: np.ndarray) -> np.ndarray:
    """Count one finished successor off each entry of ``parents``; return
    the sorted distinct parents left with none unfinished."""
    if parents.size == 0:
        return EMPTY_I64
    parents = np.sort(parents)
    firsts, lengths = _runs(parents)
    distinct = parents[firsts]
    pending[distinct] -= lengths
    return distinct[pending[distinct] == 0]
