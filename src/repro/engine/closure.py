"""SCC-condensation closure relations (the Datalog engine's recursion).

A reflexive-transitive closure ``R*`` can be represented without
materialising its (potentially quadratic) pair set: condense the graph
into strongly connected components (scipy's ``connected_components``),
compute component-level reachability over the condensation DAG, and
answer pair queries through the component maps.  Because gMark regular
expressions only allow Kleene star at the *outermost* level, a closure
is never composed further — it flows straight into the conjunct join,
which it faces through two array methods: :meth:`contains_many` (a
both-bound filter answered from the component-level reach keys) and
:meth:`restrict` (the part of ``R*`` a binding table can reach,
materialised as an ordinary packed-key relation).

This mirrors how mature Datalog engines survive the paper's recursive
workload (Table 4) while the naive SQL:1999 fixpoint drowns.
"""

from __future__ import annotations

import copy

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from repro.columnar import (
    expand_indptr,
    expand_join,
    indptr_for,
    keys_contain_many,
    pack_pairs,
    sorted_unique,
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
        dag_successors: dict[int, list[int]] = {}
        if sources.size:
            source_components = self._labels[sources]
            target_components = self._labels[targets]
            cross = source_components != target_components
            dag = BinaryRelation.from_arrays(
                source_components[cross], target_components[cross]
            )
            for cs, ct in zip(
                dag.source_array.tolist(), dag.target_array.tolist()
            ):
                dag_successors.setdefault(cs, []).append(ct)
        budget.check_time()

        #: Component-level reachability (includes self) as a packed-key
        #: relation over component ids — the only reach representation:
        #: membership is one binary search, the inverse one re-sort.
        self._reach = _component_reach(dag_successors, component_count, budget)
        self._size: int | None = None
        self._inverse: ClosureRelation | None = None

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

    def restrict(
        self, sources: np.ndarray | None, budget: EvaluationBudget
    ) -> BinaryRelation:
        """``{(s, t) ∈ R* | s ∈ sources}`` materialised (None: every node).

        Two batch CSR gathers — distinct source → reachable components
        → their members — each charged to the budget *before* its
        columns are built.  The conjunct join only asks for the distinct
        bound values of its table, each of which owns at least one row,
        so the restriction never exceeds the extension it feeds.
        """
        if sources is None:
            distinct = np.arange(self.node_count, dtype=np.int64)
        else:
            distinct = sorted_unique(sources)
            distinct = distinct[distinct < self.node_count]
        budget.check_time()
        _, source_index, reach_index = expand_join(
            self._labels[distinct], self._reach.source_array, budget.check_rows
        )
        member_index, members = expand_indptr(
            self._reach.target_array[reach_index],
            self._member_indptr,
            self._member_order,
            budget.check_rows,
        )
        return BinaryRelation.from_arrays(
            distinct[source_index[member_index]], members
        )

    def inverse(self, budget: EvaluationBudget | None = None) -> "ClosureRelation":
        """Closure of the reversed base: the transposed component reach."""
        if self._inverse is None:
            if budget is not None:
                budget.check_time()
                budget.check_bytes(self._reach.nbytes)
            inverse = copy.copy(self)
            inverse._reach = self._reach.inverse()
            inverse._inverse = self
            self._inverse = inverse
        return self._inverse

    def __repr__(self) -> str:
        return (
            f"ClosureRelation({self.node_count} nodes, "
            f"{self._member_indptr.size - 1} SCCs)"
        )


def _component_reach(
    dag_successors: dict[int, list[int]],
    component_count: int,
    budget: EvaluationBudget,
) -> BinaryRelation:
    """Reflexive reachability over the condensation DAG.

    Post-order DFS with memoised descendant sets held as sorted id
    columns, so each component's reach is one :func:`sorted_unique` over
    its successors' — the same sorted-set algebra as the frontier kernels.
    """
    reach: dict[int, np.ndarray] = {}
    state = np.zeros(component_count, dtype=np.int8)  # 0 new, 1 open, 2 done
    for root in range(component_count):
        if state[root] == 2:
            continue
        stack = [root]
        while stack:
            component = stack[-1]
            if state[component] == 0:
                state[component] = 1
                for successor in dag_successors.get(component, ()):
                    if state[successor] == 0:
                        stack.append(successor)
            else:
                stack.pop()
                if state[component] == 2:
                    continue
                state[component] = 2
                successors = dag_successors.get(component, ())
                own = np.array([component], dtype=np.int64)
                if successors:
                    reach[component] = sorted_unique(
                        np.concatenate([own] + [reach[s] for s in successors])
                    )
                else:
                    reach[component] = own
                budget.check_time()
    if not reach:
        return BinaryRelation()
    columns = [reach[c] for c in range(component_count)]
    components = np.repeat(
        np.arange(component_count), [column.size for column in columns]
    )
    return BinaryRelation.from_keys(
        pack_pairs(components, np.concatenate(columns))
    )
