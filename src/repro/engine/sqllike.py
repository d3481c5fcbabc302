"""The PostgreSQL-like engine ("P" in the paper's §7).

Vectorised relational evaluation: per-label relations are sorted
packed-key columns, path concatenations are sort-merge joins and
disjunctions are sorted-set unions (the relation algebra D shares) —
which is why P "typically shows superior performance across a broad
class of [non-recursive] queries" (§7.2).

Recursion uses the straightforward SQL:1999 ``WITH RECURSIVE ... UNION``
translation evaluated as a *naive* fixpoint (each round joins the whole
accumulated table against the base relation and re-deduplicates), the
classic behaviour of the standard relational encoding — and the reason
P degrades so badly on the recursive workload (Table 4).
"""

from __future__ import annotations

import numpy as np

from repro.columnar import expand_join
from repro.engine.base import (
    Engine,
    SymbolRelationCache,
    disjunction_relation,
    register_engine,
)
from repro.engine.budget import EvaluationBudget
from repro.engine.relations import BinaryRelation
from repro.generation.graph import LabeledGraph


def _dedup(rows: np.ndarray) -> np.ndarray:
    """Sort + deduplicate a (n, 2) pair array (SQL's UNION)."""
    if len(rows) == 0:
        return rows.reshape(0, 2)
    return np.unique(rows, axis=0)


def _merge_join(left: np.ndarray, right: np.ndarray, budget: EvaluationBudget) -> np.ndarray:
    """Join on ``left.trg == right.src`` -> (left.src, right.trg) pairs."""
    if len(left) == 0 or len(right) == 0:
        return np.zeros((0, 2), dtype=np.int64)
    order = np.argsort(right[:, 0], kind="stable")
    right_sorted = right[order]
    _, probe_index, build_index = expand_join(
        left[:, 1], right_sorted[:, 0], budget.check_rows
    )
    if probe_index.size == 0:
        return np.zeros((0, 2), dtype=np.int64)
    budget.check_time()
    return np.column_stack(
        (left[probe_index, 0], right_sorted[build_index, 1])
    )


@register_engine
class PostgresLikeEngine(Engine):
    """Sorted-array relational evaluation with naive SQL recursion."""

    name = "postgres"
    paper_system = "P"
    conjunct_cache = SymbolRelationCache

    def conjunct_relation(self, regex, graph, budget, cache):
        relation = disjunction_relation(regex, cache, budget)
        if not regex.starred:
            return relation
        base = np.column_stack((relation.source_array, relation.target_array))
        return _to_relation(self._recursive_closure(base, graph, budget))

    def _recursive_closure(
        self, base: np.ndarray, graph: LabeledGraph, budget: EvaluationBudget
    ) -> np.ndarray:
        """Naive WITH RECURSIVE fixpoint: join the *whole* accumulated
        table against the base every round, then UNION-deduplicate."""
        ids = np.arange(graph.n, dtype=np.int64)
        result = _dedup(np.vstack((np.column_stack((ids, ids)), base)))
        while True:
            budget.check_time()
            budget.check_rows(len(result))
            budget.check_bytes(result.nbytes)
            expanded = _merge_join(result, base, budget)
            combined = _dedup(np.vstack((result, expanded)))
            if len(combined) == len(result):
                return combined
            result = combined


def _to_relation(rows: np.ndarray) -> BinaryRelation:
    if len(rows) == 0:
        return BinaryRelation()
    return BinaryRelation.from_arrays(rows[:, 0], rows[:, 1])
