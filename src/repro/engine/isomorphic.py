"""The openCypher-like engine ("G" in the paper's §7), vectorized.

Two deliberate semantic gaps mirror §7.1's description of system G:

* **edge-isomorphic matching** — within one pattern match, no edge may
  be used twice (openCypher's relationship uniqueness), whereas all
  other engines use homomorphic semantics; and
* **restricted recursion** — variable-length patterns support neither
  inverse symbols nor concatenation; the translator's workaround (keep
  the non-inverse symbol and/or the first symbol of a concatenation) is
  applied, so recursive answers may differ or come back empty — exactly
  the behaviour the paper reports for G.

Evaluation is a **columnar binding-table join**: a match branch keeps
one ``int64`` matrix with a column per bound pattern variable, and
extends the whole table one step at a time with the shared sorted-key
kernels —

* CSR gathers (:func:`repro.columnar.expand_indptr`) for the
  bound-source / bound-target hop cases,
* ``searchsorted`` semi-joins (:func:`repro.columnar.keys_contain_many`)
  for both-bound filters,
* the frontier sweep's pair relation
  (:func:`repro.engine.frontier.frontier_reachable_pairs`) for
  variable-length steps, which the table's rows gather through
  (:meth:`repro.engine.relations.BinaryRelation.gather`), and
* vectorized duplicate-edge masking replacing the seed's per-match
  ``used_edges`` frozenset.  A label's edges are unique
  ``(source, target)`` pairs, so a matched edge *is* the pair of
  variable columns its endpoints bound: each step records its
  ``(a_pos, b_pos)`` columns, and a later same-label step drops the
  rows whose endpoints equal an earlier step's on both columns.

Each branch projects its head rows into a :class:`ResultSet` (packed
sorted keys for a 2-ary head), and the branches fold by sorted-key
union, charged against the row cap after each branch.

Steps are ordered **most-selective-first** from per-label edge counts
and bound-endpoint degree estimates — the first bite of
selectivity-driven planning: filters before expansions, cheap
expansions before expensive ones, Cartesian steps last.

The seed's backtracking matcher survives in
``tests/oracles/reference_isomorphic.py`` as the parity oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Sequence, TypeAlias

import numpy as np

from repro.columnar import (
    expand_indptr,
    keys_contain_many,
    pack_pairs,
    sorted_unique,
)
from repro.engine.automaton import NFA
from repro.engine.base import Engine, register_engine
from repro.engine.budget import EvaluationBudget
from repro.engine.frontier import (
    SymbolCSRCache,
    frontier_reachable_pairs,
    frontier_regex_relation,
)
from repro.engine.relations import BinaryRelation
from repro.engine.resultset import ResultSet
from repro.errors import EngineBudgetExceeded, EngineCapabilityError
from repro.execution.degrade import run_in_slices
from repro.generation.graph import LabeledGraph
from repro.observability.trace import TRACER
from repro.queries.ast import (
    PathExpression,
    Query,
    QueryRule,
    RegularExpression,
    inverse_symbol,
    is_inverse,
    symbol_base,
)

#: Cap on the per-rule cross product of disjunct choices (as in the
#: translator: a real system would refuse queries beyond this).
MAX_BRANCHES = 128

#: Cost multiplier for variable-length steps in the step order: a
#: reachability sweep touches a multiple of the base edge count.
RECURSION_COST = 8.0


@dataclass(frozen=True)
class _EdgeStep:
    """One single-symbol hop between two pattern variables."""

    source: str
    symbol: str
    target: str


@dataclass(frozen=True)
class _VarLengthStep:
    """A variable-length hop ``-[:l1|l2*0..]->`` (forward labels only)."""

    source: str
    labels: tuple[str, ...]
    target: str


_Step: TypeAlias = _EdgeStep | _VarLengthStep


# -- branch construction (shared with the reference backtracker) ---------


class _FreshVars:
    def __init__(self) -> None:
        self._counter = 0

    def next(self) -> str:
        self._counter += 1
        return f"?_g{self._counter}"


def _path_steps(
    source: str, path: PathExpression, target: str, fresh: _FreshVars
) -> list[_Step]:
    if path.is_epsilon:
        # ε: equate the endpoints with a zero-length var-length step.
        return [_VarLengthStep(source, (), target)]
    steps: list[_Step] = []
    current = source
    for index, symbol in enumerate(path.symbols):
        nxt = target if index == len(path.symbols) - 1 else fresh.next()
        steps.append(_EdgeStep(current, symbol, nxt))
        current = nxt
    return steps


def _approximate_labels(regex: RegularExpression) -> tuple[str, ...]:
    """§7.1 workaround: non-inverse symbol / first symbol of a concat."""
    labels: list[str] = []
    for path in regex.disjuncts:
        if path.is_epsilon:
            continue
        label = symbol_base(path.symbols[0])
        if label not in labels:
            labels.append(label)
    return tuple(labels)


def _expand_branches(rule: QueryRule) -> list[list[_Step]]:
    """Expand disjunctions into per-branch step lists."""
    per_conjunct: list[list[list[_Step]]] = []
    fresh = _FreshVars()
    for conjunct in rule.body:
        regex = conjunct.regex
        if regex.starred:
            steps: list[list[_Step]] = [
                [
                    _VarLengthStep(
                        conjunct.source,
                        _approximate_labels(regex),
                        conjunct.target,
                    )
                ]
            ]
        else:
            steps = [
                _path_steps(conjunct.source, path, conjunct.target, fresh)
                for path in regex.disjuncts
            ]
        per_conjunct.append(steps)
    branches = [
        [step for steps in choice for step in steps]
        for choice in product(*per_conjunct)
    ]
    if len(branches) > MAX_BRANCHES:
        raise EngineCapabilityError(
            f"query expands to {len(branches)} match branches (cap {MAX_BRANCHES})"
        )
    return branches


# -- per-evaluation graph access ----------------------------------------


class _EvalContext:
    """One evaluation's graph, budget and symbol cache (the engine's
    ``conjunct_cache``): every branch of every rule probes the same
    per-label CSR indexes, resolved once per evaluation."""

    __slots__ = ("graph", "budget", "csr")

    def __init__(
        self, graph: LabeledGraph, budget: EvaluationBudget, csr: SymbolCSRCache
    ):
        self.graph = graph
        self.budget = budget
        self.csr = csr


# -- selectivity-driven step order --------------------------------------


def _step_text(step: _Step) -> str:
    """Compact step description used in span attributes."""
    if isinstance(step, _EdgeStep):
        return f"{step.source}-[{step.symbol}]->{step.target}"
    labels = "|".join(step.labels) or "ε"
    return f"{step.source}-[{labels}*]->{step.target}"


def _order_steps(
    steps: Sequence[_Step],
    ctx: _EvalContext,
    decisions: list[dict] | None = None,
) -> list[_Step]:
    """Cardinality-driven greedy order: most selective extension first.

    Each candidate step is scored against the variables bound so far:

    * rank 0 — pure **filters** (every endpoint already bound): they
      only shrink the table, so they run as early as possible;
    * rank 1 — **expansions** from one bound endpoint, costed by the
      expected fan-out ``edges / nodes`` (the bound-endpoint degree
      estimate; variable-length steps pay :data:`RECURSION_COST`);
    * rank 2 — **Cartesian** steps with no bound endpoint, costed by
      the full per-label edge count — the first step picks the most
      selective relation, later steps avoid products entirely while a
      connected alternative exists.

    This replaces the seed's blind connectivity greedy (retained in
    ``tests/oracles/reference_isomorphic.py``) with the worst-case-
    optimal flavour the selectivity machinery suggests: extend by the
    most selective conjunct first.
    """
    n = max(ctx.graph.n, 1)

    def cost(step: _Step, bound: set[str]) -> tuple[int, float]:
        src_bound = step.source in bound
        trg_bound = step.target in bound
        if isinstance(step, _EdgeStep):
            edges = ctx.graph.edge_keys(symbol_base(step.symbol)).size
            if (src_bound and trg_bound) or (
                step.source == step.target and src_bound
            ):
                return (0, edges / (n * n))
            if src_bound or trg_bound:
                return (1, edges / n)
            return (2, float(edges))
        edges = sum(ctx.graph.edge_keys(label).size for label in step.labels)
        if not step.labels:
            # ε: equality filter / column copy / node-domain product.
            if (src_bound and trg_bound) or (
                step.source == step.target and src_bound
            ):
                return (0, 0.0)
            if src_bound or trg_bound:
                return (1, 1.0)
            return (2, float(n))
        if step.source == step.target:
            # (v, v) always reachable in >= 0 hops: filter or product.
            return (0, 0.0) if src_bound else (2, float(n))
        if src_bound and trg_bound:
            return (0, RECURSION_COST * edges / n)
        if src_bound or trg_bound:
            return (1, RECURSION_COST * edges / n)
        return (2, float(n) + RECURSION_COST * edges)

    remaining = list(steps)
    ordered: list[_Step] = []
    bound: set[str] = set()
    while remaining:
        best = min(remaining, key=lambda step: cost(step, bound))
        if decisions is not None:
            rank, estimate = cost(best, bound)
            decisions.append(
                {"step": _step_text(best), "rank": rank, "cost": estimate}
            )
        remaining.remove(best)
        ordered.append(best)
        bound.add(best.source)
        bound.add(best.target)
    return ordered


# -- the binding table ---------------------------------------------------


class _BindingTable:
    """One match branch's state: an ``int64`` matrix plus column maps.

    ``rows`` holds one column per bound pattern variable (positions in
    ``var_pos``).  ``edge_cols`` lists, per label, the ``(a_pos, b_pos)``
    source / target variable columns of every matched edge step — the
    columnar replacement of the seed's per-match ``used_edges``
    frozenset, since within one label an edge is its
    ``(source, target)`` pair.  Columns only ever append, so recorded
    positions stay valid across row filters and expansions.
    """

    __slots__ = ("rows", "var_pos", "edge_cols")

    def __init__(self) -> None:
        self.rows = np.zeros((1, 0), dtype=np.int64)
        self.var_pos: dict[str, int] = {}
        self.edge_cols: dict[str, list[tuple[int, int]]] = {}

    @property
    def row_count(self) -> int:
        return self.rows.shape[0]

    def append_column(self, var: str, column: np.ndarray, rows: np.ndarray) -> None:
        self.var_pos[var] = rows.shape[1]
        self.rows = np.column_stack((rows, column))

    def slice(self, start: int, stop: int) -> "_BindingTable":
        """An independent table over a row range (column maps copied).

        The row matrix is a view; every extension replaces ``rows``
        wholesale, so slices never write through to the parent.
        """
        piece = _BindingTable()
        piece.rows = self.rows[start:stop]
        piece.var_pos = dict(self.var_pos)
        piece.edge_cols = {label: list(cols) for label, cols in self.edge_cols.items()}
        return piece

    def snapshot(self) -> tuple:
        """Capture state for transactional restore around one step."""
        return (
            self.rows,
            dict(self.var_pos),
            {label: list(cols) for label, cols in self.edge_cols.items()},
        )

    def restore(self, state: tuple) -> None:
        self.rows, self.var_pos, self.edge_cols = state


def _cross_product(
    table: np.ndarray,
    columns: tuple[np.ndarray, ...],
    budget: EvaluationBudget,
) -> np.ndarray:
    """Cartesian product of the table with parallel value columns."""
    count = columns[0].size
    budget.check_rows(table.shape[0] * count)
    repeated = np.repeat(table, count, axis=0)
    tiled = [np.tile(column, table.shape[0]) for column in columns]
    return np.column_stack((repeated, *tiled))


def _extend_edge_step(
    bt: _BindingTable, step: _EdgeStep, ctx: _EvalContext
) -> None:
    """Extend the binding table by one single-symbol hop.

    Works on the *physical* edge orientation: an inverse symbol swaps
    which pattern variable sits on the source side.  After the rows are
    extended/filtered, edge-isomorphism drops every row whose
    ``(a, b)`` endpoints equal an already-matched same-label step's
    ``(a_pos, b_pos)`` columns, and the step records its own pair (a
    loop step records ``(a_pos, a_pos)``).  No column is appended.
    """
    label = symbol_base(step.symbol)
    budget = ctx.budget
    if is_inverse(step.symbol):
        a_var, b_var = step.target, step.source
    else:
        a_var, b_var = step.source, step.target
    table = bt.rows
    a_pos = bt.var_pos.get(a_var)
    b_pos = bt.var_pos.get(b_var)

    if a_var == b_var:
        # The pattern equates both endpoints: only loop edges match.
        if a_pos is not None:
            values = table[:, a_pos]
            mask = keys_contain_many(
                ctx.graph.edge_keys(label), pack_pairs(values, values)
            )
            bt.rows = table[mask]
        else:
            sources, targets = ctx.graph.edge_arrays(label)
            loops = sources[sources == targets]
            bt.append_column(
                a_var, *_cross_split(table, loops, budget)
            )
        a_pos = b_pos = bt.var_pos[a_var]
    elif a_pos is not None and b_pos is not None:
        probe = pack_pairs(table[:, a_pos], table[:, b_pos])
        bt.rows = table[keys_contain_many(ctx.graph.edge_keys(label), probe)]
    elif a_pos is not None:
        entry = ctx.csr.get(label)
        if entry is None:
            bt.rows = np.zeros((0, table.shape[1]), dtype=np.int64)
            return
        probe_index, values = expand_indptr(
            table[:, a_pos], entry[0], entry[1], budget.check_rows
        )
        bt.append_column(b_var, values, table[probe_index])
        b_pos = bt.var_pos[b_var]
    elif b_pos is not None:
        entry = ctx.csr.get(label + "-")
        if entry is None:
            bt.rows = np.zeros((0, table.shape[1]), dtype=np.int64)
            return
        probe_index, values = expand_indptr(
            table[:, b_pos], entry[0], entry[1], budget.check_rows
        )
        bt.append_column(a_var, values, table[probe_index])
        a_pos = bt.var_pos[a_var]
    else:
        sources, targets = ctx.graph.edge_arrays(label)
        bt.rows = _cross_product(table, (sources, targets), budget)
        a_pos = table.shape[1]
        b_pos = table.shape[1] + 1
        bt.var_pos[a_var] = a_pos
        bt.var_pos[b_var] = b_pos

    if bt.row_count == 0:
        return
    previous = bt.edge_cols.setdefault(label, [])
    if previous:
        rows = bt.rows
        a, b = rows[:, a_pos], rows[:, b_pos]
        keep = np.ones(rows.shape[0], dtype=bool)
        for pa, pb in previous:
            keep &= (rows[:, pa] != a) | (rows[:, pb] != b)
        if not keep.all():
            bt.rows = rows[keep]
    previous.append((a_pos, b_pos))


def _cross_split(
    table: np.ndarray, column: np.ndarray, budget: EvaluationBudget
) -> tuple[np.ndarray, np.ndarray]:
    """(new value column, repeated table) of a one-column product."""
    budget.check_rows(table.shape[0] * column.size)
    repeated = np.repeat(table, column.size, axis=0)
    return np.tile(column, table.shape[0]), repeated


def _extend_var_step(
    bt: _BindingTable, step: _VarLengthStep, ctx: _EvalContext
) -> None:
    """Extend the binding table by one variable-length (>= 0 hop) step.

    Bound endpoints seed a pair-relation frontier sweep
    (:func:`frontier_reachable_pairs`) whose keys the table's rows
    gather through (or filter against, when both ends are bound); the
    both-unbound case runs the full one-state product sweep once and
    takes a Cartesian product.
    Variable-length steps never consume edge identities (matching the
    seed semantics), so no edge column is appended.
    """
    graph, budget, csr = ctx.graph, ctx.budget, ctx.csr
    table = bt.rows
    src_pos = bt.var_pos.get(step.source)
    trg_pos = bt.var_pos.get(step.target)

    if not step.labels:
        # ε: the endpoints must be equal.
        if step.source == step.target:
            if src_pos is None:
                ids = np.arange(graph.n, dtype=np.int64)
                bt.append_column(
                    step.source, *_cross_split(table, ids, budget)
                )
            return
        if src_pos is not None and trg_pos is not None:
            bt.rows = table[table[:, src_pos] == table[:, trg_pos]]
        elif src_pos is not None:
            bt.append_column(step.target, table[:, src_pos], table)
        elif trg_pos is not None:
            bt.append_column(step.source, table[:, trg_pos], table)
        else:
            ids = np.arange(graph.n, dtype=np.int64)
            budget.check_rows(table.shape[0] * graph.n)
            repeated = np.repeat(table, graph.n, axis=0)
            tiled = np.tile(ids, table.shape[0])
            bt.var_pos[step.source] = table.shape[1]
            bt.var_pos[step.target] = table.shape[1] + 1
            bt.rows = np.column_stack((repeated, tiled, tiled))
        return

    if step.source == step.target:
        # (v, v) holds for every v at zero hops: a no-op when bound,
        # the full node domain when not.
        if src_pos is None:
            ids = np.arange(graph.n, dtype=np.int64)
            bt.append_column(step.source, *_cross_split(table, ids, budget))
        return

    if src_pos is not None and trg_pos is not None:
        seeds = sorted_unique(table[:, src_pos])
        keys = frontier_reachable_pairs(seeds, step.labels, csr, budget)
        probe = pack_pairs(table[:, src_pos], table[:, trg_pos])
        bt.rows = table[keys_contain_many(keys, probe)]
    elif src_pos is not None or trg_pos is not None:
        # Sweep from the bound end (backwards through inverse labels
        # from a bound target); the rows gather their reached nodes.
        if src_pos is not None:
            pos, labels, var = src_pos, step.labels, step.target
        else:
            pos, var = trg_pos, step.source
            labels = tuple(inverse_symbol(label) for label in step.labels)
        keys = frontier_reachable_pairs(
            sorted_unique(table[:, pos]), labels, csr, budget
        )
        probe_index, values = BinaryRelation.from_keys(keys, graph.n).gather(
            table[:, pos], True, budget.check_rows
        )
        bt.append_column(var, values, table[probe_index])
    else:
        relation = frontier_regex_relation(
            _star_nfa(step.labels), graph, budget, csr
        )
        bt.rows = _cross_product(
            table, (relation.source_array, relation.target_array), budget
        )
        bt.var_pos[step.source] = table.shape[1]
        bt.var_pos[step.target] = table.shape[1] + 1


def _star_nfa(labels: tuple[str, ...]) -> NFA:
    """The one-state automaton of ``(l1 | ... | lk)*``."""
    return NFA(1, 0, frozenset({0}), {0: [(label, 0) for label in labels]})


# -- the engine ----------------------------------------------------------


@register_engine
class CypherLikeEngine(Engine):
    """Binding-table-join edge-isomorphic matcher with the §7.1 workaround."""

    name = "cypher"
    paper_system = "G"
    homomorphic = False

    def _evaluate(
        self,
        query: Query,
        graph: LabeledGraph,
        budget: EvaluationBudget,
    ) -> ResultSet:
        ctx = _EvalContext(graph, budget, self.conjunct_cache(graph))
        result = ResultSet.empty(query.rules[0].arity)
        for rule in query.rules:
            for branch in _expand_branches(rule):
                part = self._join_branch(rule, branch, ctx)
                if part:
                    result = result.union(part)
                    budget.check_rows(len(result))
                    if budget.wants_partial:
                        budget.stash_partial(result)
                budget.check_time()
        return result

    def _join_branch(
        self, rule: QueryRule, steps: list[_Step], ctx: _EvalContext
    ) -> ResultSet:
        """Evaluate one branch: extend the table a step at a time and
        project onto the head (a deduplicated :class:`ResultSet`)."""
        with TRACER.span("engine.branch", steps=len(steps)) as branch:
            decisions: list[dict] | None = [] if branch else None
            ordered = _order_steps(steps, ctx, decisions)
            if branch:
                branch.set(order=decisions)
            rows = _run_steps(_BindingTable(), ordered, 0, rule.head, ctx)
        return ResultSet.from_table(rows)


def _run_steps(
    bt: _BindingTable,
    ordered: list[_Step],
    position: int,
    head: Sequence[str],
    ctx: _EvalContext,
) -> np.ndarray:
    """Run steps ``position:`` over the table; its ``head`` columns.

    The degradation seam of the isomorphic engine: *proactively*, the
    budget's :meth:`slice_plan` may ask for the table to stream through
    the remaining steps in row slices; *reactively*, a row/byte abort
    during one step restores the pre-step snapshot (extensions may have
    partially mutated the table) and re-runs it in halves.  Either way
    :func:`~repro.execution.degrade.run_in_slices` drives the slices and
    returns their deduplicated head rows, merged under the caps.  The
    direct path returns the head projection of the final table as is
    (its rows may repeat).
    """
    budget = ctx.budget
    for pos in range(position, len(ordered)):
        if bt.row_count == 0:
            break
        pieces = budget.slice_plan(bt.row_count)
        if pieces is None:
            step = ordered[pos]
            state = bt.snapshot()
            try:
                with TRACER.span("engine.step") as span:
                    if isinstance(step, _EdgeStep):
                        _extend_edge_step(bt, step, ctx)
                    else:
                        _extend_var_step(bt, step, ctx)
                    if span:
                        span.set(
                            step=_step_text(step),
                            height=bt.row_count,
                            width=int(bt.rows.shape[1]),
                        )
                budget.check_rows(bt.row_count)
                budget.check_bytes(bt.rows.nbytes)
            except EngineBudgetExceeded as exc:
                bt.restore(state)
                if bt.row_count <= 1 or not budget.should_degrade(exc):
                    raise
                pieces = 2
            else:
                budget.check_time()
                continue
        return run_in_slices(
            bt.row_count,
            pieces,
            lambda start, stop: _run_steps(
                bt.slice(start, stop), ordered, pos, head, ctx
            ),
            len(head),
            budget,
            "iso.binding_table",
            step=pos,
        )
    if bt.row_count == 0:
        return np.zeros((0, len(head)), dtype=np.int64)
    return bt.rows[:, [bt.var_pos[var] for var in head]]
