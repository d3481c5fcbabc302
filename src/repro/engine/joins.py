"""Conjunct joining: turn per-conjunct relations into rule answers.

Every homomorphic engine evaluates a rule the same way once the
conjunct relations are known: join them on shared variables and project
onto the head.  The join *order* matters; the default is a greedy
smallest-relation-first, most-connected-next order, and the naive
left-deep order is kept for the join-planning ablation bench.

The binding table lives as a unique-row ``int64`` matrix (one column
per bound variable) for the whole join and is extended one conjunct at
a time through the two probes every relation answers — a
:class:`~repro.engine.relations.BinaryRelation` and the SCC-compressed
:class:`~repro.engine.closure.ClosureRelation` alike, so the driver
never asks which it holds: a both-bound step filters the table with
``contains_many``, a one-bound step gathers each row's partners through
the relation's CSR (``gather``, one
:func:`~repro.columnar.expand_indptr` over the whole table), and an
unbound step takes the product with the relation's full gather.  Rows
stay unique by construction — every extension either filters rows or
appends distinct values per row — so no intermediate deduplication is
needed.  The head projection is handed
to :class:`~repro.engine.resultset.ResultSet` as column groups: no
Python tuple is ever built on the evaluation path.
"""

from __future__ import annotations

import numpy as np

from repro.engine.budget import EvaluationBudget, unlimited
from repro.engine.closure import ClosureRelation
from repro.engine.relations import BinaryRelation
from repro.engine.resultset import ResultSet
from repro.errors import EngineBudgetExceeded
from repro.execution.degrade import run_in_slices
from repro.queries.ast import QueryRule


def greedy_join_order(
    rule: QueryRule, relations: list[BinaryRelation]
) -> list[int]:
    """Conjunct order: smallest relation first, then connected-smallest.

    Keeping every intermediate bound to already-seen variables avoids
    accidental Cartesian products; among the connected candidates the
    smallest relation goes first.
    """
    remaining = set(range(len(rule.body)))
    order: list[int] = []
    bound_vars: set[str] = set()
    while remaining:
        connected = [
            index
            for index in remaining
            if not bound_vars
            or rule.body[index].source in bound_vars
            or rule.body[index].target in bound_vars
        ]
        candidates = connected or list(remaining)
        best = min(candidates, key=lambda index: len(relations[index]))
        order.append(best)
        remaining.discard(best)
        bound_vars.add(rule.body[best].source)
        bound_vars.add(rule.body[best].target)
    return order


def naive_join_order(rule: QueryRule, relations: list[BinaryRelation]) -> list[int]:
    """Left-deep order exactly as written (ablation baseline)."""
    return list(range(len(rule.body)))


def _plan_steps(
    rule: QueryRule, order: list[int]
) -> tuple[list[tuple[int, int | None, int | None, bool]], list[str]]:
    """Precompute the per-conjunct binding positions and final schema.

    The schema evolution depends only on the rule and the join order, so
    the sliced (degraded) re-runs of a table share one plan — and every
    slice's final table has the same column layout and head positions.
    """
    schema: list[str] = []
    steps: list[tuple[int, int | None, int | None, bool]] = []
    for index in order:
        conjunct = rule.body[index]
        source, target = conjunct.source, conjunct.target
        src_pos = schema.index(source) if source in schema else None
        trg_pos = schema.index(target) if target in schema else None
        self_loop = target == source
        if src_pos is None:
            schema.append(source)
        if trg_pos is None and not self_loop and target not in schema:
            schema.append(target)
        steps.append((index, src_pos, trg_pos, self_loop))
    return steps, schema


def _extend_step(
    table: np.ndarray,
    relation: BinaryRelation | ClosureRelation,
    src_pos: int | None,
    trg_pos: int | None,
    self_loop: bool,
    budget: EvaluationBudget,
) -> np.ndarray:
    """One conjunct extension over the whole binding table at once."""
    if self_loop:
        trg_pos = src_pos
    if src_pos is not None and trg_pos is not None:
        return table[relation.contains_many(table[:, src_pos], table[:, trg_pos])]
    if src_pos is not None or trg_pos is not None:
        forward = src_pos is not None
        probe_index, values = relation.gather(
            table[:, src_pos if forward else trg_pos],
            forward,
            budget.check_rows,
            budget.check_bytes,
        )
        return np.column_stack((table[probe_index], values))
    if self_loop:
        ids = np.arange(relation.node_count, dtype=np.int64)
        columns = (ids[relation.contains_many(ids, ids)],)
        budget.check_rows(table.shape[0] * columns[0].size)
    else:
        # The product's size is known before the full gather builds it;
        # gathering every node, the probe index is the source column.
        budget.check_rows(table.shape[0] * len(relation))
        columns = relation.gather(None, True)
    repeated = np.repeat(table, columns[0].size, axis=0)
    tiled = [np.tile(column, table.shape[0]) for column in columns]
    return np.column_stack((repeated, *tiled))


def _join_from(
    steps: list,
    relations: list,
    head: list[int],
    step: int,
    table: np.ndarray,
    budget: EvaluationBudget,
) -> np.ndarray:
    """Run conjunct steps ``step:`` over ``table``; its ``head`` columns.

    Degradation happens here, at the step boundary: *proactively* when
    the budget's :meth:`slice_plan` asks for the table to be processed
    in slices, and *reactively* when an extension's row/byte charge
    aborts — every extension kernel charges the budget **before**
    mutating or materialising, so the pre-step table is intact and can
    be re-run in halves.  :func:`~repro.execution.degrade.run_in_slices`
    streams the slices through the remaining steps and returns their
    deduplicated head rows, merged under the caps; a 1-row table that
    still blows the cap re-raises — the result itself is oversized, not
    just a transient.  The direct path returns the head projection of
    the final table as is (its rows may repeat).
    """
    for position in range(step, len(steps)):
        if table.shape[0] == 0:
            return np.zeros((0, len(head)), dtype=np.int64)
        pieces = budget.slice_plan(table.shape[0])
        if pieces is None:
            index, src_pos, trg_pos, self_loop = steps[position]
            try:
                extended = _extend_step(
                    table, relations[index], src_pos, trg_pos, self_loop, budget
                )
                budget.check_rows(extended.shape[0])
                budget.check_bytes(extended.nbytes)
            except EngineBudgetExceeded as exc:
                if table.shape[0] <= 1 or not budget.should_degrade(exc):
                    raise
                pieces = 2
            else:
                table = extended
                budget.check_time()
                continue
        return run_in_slices(
            table.shape[0],
            pieces,
            lambda start, stop: _join_from(
                steps, relations, head, position, table[start:stop], budget
            ),
            len(head),
            budget,
            "join.binding_table",
            step=position,
        )
    return table[:, head]


def join_rule(
    rule: QueryRule,
    relations: list[BinaryRelation],
    budget: EvaluationBudget | None = None,
    order: list[int] | None = None,
) -> ResultSet:
    """Join conjunct relations and project onto the rule head.

    ``relations[i]`` must be the relation of ``rule.body[i]``.  Returns
    the head projection as a columnar :class:`ResultSet` (Boolean rules
    collapse to the 0-ary unit/empty result, i.e. "true"/"false").

    Under an :class:`~repro.execution.context.ExecutionContext` with
    degradation enabled, a binding table whose extension blows the
    row/byte cap is split and streamed through the remaining conjuncts
    slice by slice (see :func:`_join_from`); each slice is projected
    onto the head and merged under the caps, so degraded and direct
    runs produce identical results whenever the answer fits.
    """
    budget = budget or unlimited()
    if order is None:
        order = greedy_join_order(rule, relations)

    # Bindings: a schema (ordered variable tuple) plus a unique-row
    # matrix with one column per schema variable (one empty row = the
    # unit binding).
    steps, schema = _plan_steps(rule, order)
    positions = [schema.index(var) for var in rule.head]
    table = np.zeros((1, 0), dtype=np.int64)
    rows = _join_from(steps, relations, positions, 0, table, budget)

    if rows.shape[0] == 0:
        return ResultSet.empty(len(rule.head))
    if not positions:
        return ResultSet.unit()
    return ResultSet.from_table(rows)
