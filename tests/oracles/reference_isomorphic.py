"""The seed's backtracking G engine, retained as a reference oracle.

This is the tuple-at-a-time strategy
:class:`repro.engine.isomorphic.CypherLikeEngine` replaced: expand a
rule into match branches, order steps with a blind connectivity greedy,
and backtrack one variable assignment at a time through Python dicts,
threading a ``frozenset`` of used edge ids to enforce openCypher's
relationship uniqueness.  It is kept (not registered in the engine
registry) for the **parity property tests** — the columnar
binding-table join must return the identical answer set on random
graphs × query shapes, including the edge-isomorphic dedup and the
§7.1 restricted-recursion workaround's deliberate gaps
(``tests/test_iso_parity.py``).

Branch construction (disjunct expansion, the §7.1 label approximation)
is shared with the vectorized engine — both must evaluate the *same*
branches for parity to be meaningful.
"""

from __future__ import annotations

from repro.engine.base import Engine
from repro.engine.budget import EvaluationBudget
from repro.engine.frontier import SymbolCSRCache, frontier_regex_relation
from repro.engine.isomorphic import (
    _EdgeStep,
    _Step,
    _expand_branches,
    _VarLengthStep,
)
from repro.engine.automaton import NFA
from repro.engine.resultset import ResultSet
from repro.generation.graph import LabeledGraph
from repro.queries.ast import Query, QueryRule, is_inverse, symbol_base

#: Rows materialised per step when streaming a full edge column.
EDGE_CHUNK = 8192


class ReferenceCypherEngine(Engine):
    """Backtracking edge-isomorphic matcher (the seed's G engine)."""

    name = "cypher_reference"
    paper_system = "G"
    homomorphic = False

    def _evaluate(
        self,
        query: Query,
        graph: LabeledGraph,
        budget: EvaluationBudget,
    ) -> ResultSet:
        # Backtracking is inherently tuple-at-a-time (matches surface one
        # assignment at a time), so the reference accumulates a Python
        # set and wraps it columnar once at the boundary.
        answers: set[tuple[int, ...]] = set()
        # One CSR resolution per evaluation: every var-length hop in
        # every branch probes the same per-symbol indexes.
        csr = SymbolCSRCache(graph)
        for rule in query.rules:
            for branch in _expand_branches(rule):
                self._match_branch(rule, branch, graph, budget, answers, csr)
                budget.check_time()
        return ResultSet.from_rows(answers, arity=len(query.rules[0].head))

    # -- matching ----------------------------------------------------------

    def _match_branch(
        self,
        rule: QueryRule,
        steps: list[_Step],
        graph: LabeledGraph,
        budget: EvaluationBudget,
        answers: set[tuple[int, ...]],
        csr: SymbolCSRCache | None = None,
    ) -> None:
        csr = csr or SymbolCSRCache(graph)
        ordered = _order_steps(steps)

        def backtrack(
            index: int,
            assignment: dict[str, int],
            used_edges: frozenset[tuple[int, str, int]],
        ) -> None:
            budget.check_time()
            if index == len(ordered):
                answers.add(tuple(assignment[v] for v in rule.head))
                budget.check_rows(len(answers))
                return
            step = ordered[index]
            if isinstance(step, _EdgeStep):
                for src, trg, edge in _edge_candidates(step, assignment, graph):
                    if edge in used_edges:
                        continue
                    new_assignment = _extend(assignment, step.source, src)
                    if new_assignment is None:
                        continue
                    new_assignment = _extend(new_assignment, step.target, trg)
                    if new_assignment is None:
                        continue
                    backtrack(index + 1, new_assignment, used_edges | {edge})
            else:
                for src, trg in _reachable_candidates(
                    step, assignment, graph, budget, csr
                ):
                    new_assignment = _extend(assignment, step.source, src)
                    if new_assignment is None:
                        continue
                    new_assignment = _extend(new_assignment, step.target, trg)
                    if new_assignment is None:
                        continue
                    backtrack(index + 1, new_assignment, used_edges)

        backtrack(0, {}, frozenset())


def _order_steps(steps: list[_Step]) -> list[_Step]:
    """The seed's blind greedy order (var-length hops last when possible).

    Connectivity-only — no cardinality information.  The vectorized
    engine's :func:`repro.engine.isomorphic._order_steps` replaces this
    with a selectivity-driven order; the seed heuristic stays here so
    the oracle is the seed strategy unchanged.
    """
    remaining = list(steps)
    ordered: list[_Step] = []
    bound: set[str] = set()
    while remaining:
        def score(step: _Step) -> tuple[int, int]:
            connected = int(step.source in bound or step.target in bound)
            fixed = int(isinstance(step, _EdgeStep))
            return (-connected if bound else 0, -fixed)

        best = min(remaining, key=score)
        remaining.remove(best)
        ordered.append(best)
        bound.add(best.source)
        bound.add(best.target)
    return ordered


def _extend(
    assignment: dict[str, int], var: str, value: int
) -> dict[str, int] | None:
    existing = assignment.get(var)
    if existing is None:
        new_assignment = dict(assignment)
        new_assignment[var] = value
        return new_assignment
    if existing != value:
        return None
    return assignment


def _edge_candidates(step: _EdgeStep, assignment: dict[str, int], graph: LabeledGraph):
    """Yield (src_value, trg_value, edge_id) for one pattern edge."""
    label = symbol_base(step.symbol)
    inverse = is_inverse(step.symbol)
    src_val = assignment.get(step.source)
    trg_val = assignment.get(step.target)

    if inverse:
        # (source)<-[:label]-(target): a physical edge target -> source.
        if src_val is not None:
            for trg in graph.predecessors_array(src_val, label).tolist():
                if trg_val is None or trg == trg_val:
                    yield src_val, trg, (trg, label, src_val)
        elif trg_val is not None:
            for src in graph.successors_array(trg_val, label).tolist():
                yield src, trg_val, (trg_val, label, src)
        else:
            for src, trg in _edge_stream(graph, label):
                yield trg, src, (src, label, trg)
    else:
        if src_val is not None:
            for trg in graph.successors_array(src_val, label).tolist():
                if trg_val is None or trg == trg_val:
                    yield src_val, trg, (src_val, label, trg)
        elif trg_val is not None:
            for src in graph.predecessors_array(trg_val, label).tolist():
                yield src, trg_val, (src, label, trg_val)
        else:
            for src, trg in _edge_stream(graph, label):
                yield src, trg, (src, label, trg)


def _edge_stream(graph: LabeledGraph, label: str):
    """Stream a label's (source, target) pairs in bounded chunks.

    Backtracking usually aborts after a handful of candidates, so only
    ``EDGE_CHUNK`` rows are ever materialised at a time.
    """
    sources, targets = graph.edge_arrays(label)
    for start in range(0, sources.size, EDGE_CHUNK):
        stop = start + EDGE_CHUNK
        yield from zip(
            sources[start:stop].tolist(), targets[start:stop].tolist()
        )


def _reachable_candidates(
    step: _VarLengthStep,
    assignment: dict[str, int],
    graph: LabeledGraph,
    budget: EvaluationBudget,
    csr: SymbolCSRCache | None = None,
):
    """(src, trg) pairs of a forward variable-length pattern."""
    csr = csr or SymbolCSRCache(graph)
    src_val = assignment.get(step.source)
    trg_val = assignment.get(step.target)

    if src_val is not None:
        for trg in _forward_reachable(src_val, step.labels, graph, budget, csr):
            if trg_val is None or trg == trg_val:
                yield src_val, trg
    elif trg_val is not None:
        for src in _backward_reachable(trg_val, step.labels, graph, budget, csr):
            yield src, trg_val
    else:
        # Both ends free: run the pair-level frontier sweep with the
        # trivial one-state automaton (every label loops on the start
        # state) — the whole reachability relation is computed on the
        # first candidate request, with the sweep's own budget hooks
        # bounding runaways.
        nfa = NFA(
            1, 0, frozenset({0}), {0: [(label, 0) for label in step.labels]}
        )
        relation = frontier_regex_relation(nfa, graph, budget, csr)
        sources, targets = relation.source_array, relation.target_array
        for start in range(0, sources.size, EDGE_CHUNK):
            stop = start + EDGE_CHUNK
            yield from zip(
                sources[start:stop].tolist(), targets[start:stop].tolist()
            )


def _reachable(
    seed: int,
    symbols: tuple[str, ...],
    graph: LabeledGraph,
    budget: EvaluationBudget,
    csr: SymbolCSRCache | None,
) -> set[int]:
    """Nodes reachable from ``seed`` along any of ``symbols`` (>= 0 hops).

    A plain depth-first search over the symbols' CSR rows, one node at a
    time — independent of the engine's frontier sweeps.
    """
    csr = csr or SymbolCSRCache(graph)
    rows = [entry for entry in map(csr.get, symbols) if entry is not None]
    seen = {seed}
    stack = [seed]
    while stack:
        budget.check_time()
        node = stack.pop()
        for indptr, payload in rows:
            for successor in payload[indptr[node]:indptr[node + 1]].tolist():
                if successor not in seen:
                    seen.add(successor)
                    stack.append(successor)
    return seen


def _forward_reachable(
    source: int,
    labels: tuple[str, ...],
    graph: LabeledGraph,
    budget: EvaluationBudget,
    csr: SymbolCSRCache | None = None,
) -> set[int]:
    """Nodes reachable from ``source`` along the labels."""
    return _reachable(source, labels, graph, budget, csr)


def _backward_reachable(
    target: int,
    labels: tuple[str, ...],
    graph: LabeledGraph,
    budget: EvaluationBudget,
    csr: SymbolCSRCache | None = None,
) -> set[int]:
    """Nodes reaching ``target`` along the labels (inverse symbols)."""
    symbols = tuple(label + "-" for label in labels)
    return _reachable(target, symbols, graph, budget, csr)
