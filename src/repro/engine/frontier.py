"""Frontier-relation BFS: level-synchronous sweeps as sorted-set algebra.

The evaluation counterpart of the columnar CSR store.  Instead of
walking the graph one Python (node, state) pair at a time, a sweep
keeps one packed key column per "colour" (an NFA state, or just the
single colour of plain reachability) and advances *all* of its members
per level in a handful of numpy passes:

1. **gather** — :func:`repro.execution.degrade.gather_pair_keys`
   expands the whole frontier's successor rows through a symbol's
   ``(indptr, payload)`` CSR index at once (falling back to chunked
   slices under an :class:`~repro.execution.context.ExecutionContext`
   when the gather would blow the row/memory cap);
2. **route** — candidates are packed ``(source, node)`` keys and
   appended to every NFA target state of the transition;
3. **dedup + difference + merge** —
   :func:`repro.columnar.advance_frontier` drops duplicates (sort +
   adjacent mask, :func:`~repro.columnar.sorted_unique`) and
   already-visited keys and merges the rest into the visited column.

:func:`frontier_regex_relation` runs the product automaton of a
compiled NFA and the graph for *all* sources simultaneously: the
frontier of a state is a packed (source, node) *relation*, so one
(level, state, symbol) step costs one CSR gather regardless of how many
sources are still alive.  :func:`frontier_reachable_pairs` is the
seeded variant (multi-label reachability from a seed column) behind the
Cypher engine's variable-length patterns.

The seed's per-source BFS survives in ``tests/oracles/reference_bfs.py``
as the parity oracle.
"""

from __future__ import annotations

import numpy as np

from repro.columnar import (
    EMPTY_I64,
    advance_frontier,
    merge_keys,
    pack_pairs,
    sorted_unique,
    unpack_keys,
)
from repro.engine.automaton import NFA
from repro.engine.budget import EvaluationBudget
from repro.engine.relations import BinaryRelation
from repro.execution.degrade import gather_pair_keys
from repro.execution.faults import FAULTS, fault_point
from repro.observability.metrics import METRICS
from repro.observability.trace import TRACER

_SWEEPS = METRICS.counter("frontier.sweeps")
_FP_ADVANCE = fault_point("frontier.advance")


class SymbolCSRCache:
    """Per-evaluation cache of each symbol's CSR index and relation.

    Every engine's ``conjunct_cache``.  :meth:`get` resolves through
    :meth:`LabeledGraph.csr_arrays` (zero-copy views of the columnar
    store's lazy CSR indexes; ``None`` marks a symbol with no edges).
    """

    __slots__ = ("graph", "_entries", "_relations")

    def __init__(self, graph):
        self.graph = graph
        self._entries: dict[str, tuple[np.ndarray, np.ndarray] | None] = {}
        self._relations: dict[str, BinaryRelation] = {}

    def get(self, symbol: str) -> tuple[np.ndarray, np.ndarray] | None:
        entry = self._entries.get(symbol, False)
        if entry is not False:
            return entry
        entry = self._entries[symbol] = self.graph.csr_arrays(symbol)
        return entry

    def relation(self, symbol: str) -> BinaryRelation:
        relation = self._relations.get(symbol)
        if relation is None:
            relation = self._relations[symbol] = BinaryRelation.from_graph_symbol(
                self.graph, symbol
            )
        return relation


def frontier_regex_relation(
    nfa: NFA,
    graph,
    budget: EvaluationBudget,
    csr: SymbolCSRCache | None = None,
) -> BinaryRelation:
    """Full relation of an NFA's language: one multi-source sweep.

    Every graph node starts at the NFA start state, so the start
    frontier is the identity relation packed into one key column; the
    sweep then advances each state's (source, node) frontier relation
    level-synchronously until no state discovers new pairs.  The union
    of the accepting states' visited columns *is* the answer relation —
    it adopts the packed keys zero-copy.

    Matches the per-source BFS oracle
    (``tests/oracles/reference_bfs.py``) pair for pair.  The budget is
    charged twice over: each raw gather size *before* its arrays are
    materialised (the :func:`repro.columnar.expand_indptr` convention —
    a runaway level stops as two ``indptr`` lookups), and the
    cumulative count of visited product pairs per level, which is what
    the oracle charges for its ``visited`` sets.
    """
    n = graph.n
    if n == 0:
        return BinaryRelation(0)
    ids = np.arange(n, dtype=np.int64)
    identity = pack_pairs(ids, ids)
    # Per NFA state: visited = sorted unique (source, node) key column,
    # frontier = the slice of it discovered last level.
    visited: dict[int, np.ndarray] = {nfa.start: identity}
    frontier: dict[int, np.ndarray] = {nfa.start: identity}
    table = nfa.transition_table()
    csr = csr or SymbolCSRCache(graph)
    total_pairs = identity.size
    _SWEEPS.inc()
    # Per-level frontier sizes / visited growth and per-(state, symbol)
    # expansion counts are only gathered when tracing is on; the
    # disabled path pays one falsy check per level.
    sweep = TRACER.span("frontier.sweep", states=len(table))
    levels: list[dict] = []
    expansions: dict[str, int] = {}

    with sweep:
        while frontier:
            budget.check_time()
            FAULTS.hit(_FP_ADVANCE)
            gathered: dict[int, list[np.ndarray]] = {}
            for state, keys in frontier.items():
                moves = table.get(state)
                if not moves:
                    continue
                sources, nodes = unpack_keys(keys)
                for symbol, target_states in moves:
                    entry = csr.get(symbol)
                    if entry is None:
                        continue
                    indptr, payload = entry
                    candidates, raw_total = gather_pair_keys(
                        sources, nodes, indptr, payload, budget
                    )
                    if candidates.size == 0:
                        continue
                    if sweep:
                        edge = f"{state}:{symbol}"
                        expansions[edge] = expansions.get(edge, 0) + raw_total
                    for target_state in target_states:
                        gathered.setdefault(target_state, []).append(candidates)
            frontier = {}
            for state, chunks in gathered.items():
                candidates = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
                fresh, merged = advance_frontier(
                    candidates, visited.get(state, EMPTY_I64)
                )
                if fresh.size:
                    visited[state] = merged
                    frontier[state] = fresh
                    total_pairs += fresh.size
            budget.check_rows(total_pairs)
            budget.check_bytes(total_pairs * 8)
            if sweep:
                levels.append(
                    {
                        "level": len(levels),
                        "frontier": sum(int(k.size) for k in frontier.values()),
                        "states": len(frontier),
                        "visited": total_pairs,
                    }
                )

        accept_keys = EMPTY_I64
        for state in nfa.accepting:
            state_keys = visited.get(state)
            if state_keys is not None:
                accept_keys = merge_keys(accept_keys, state_keys)
        if sweep:
            sweep.set(
                levels=levels,
                expansions=expansions,
                visited_pairs=total_pairs,
                result_pairs=int(accept_keys.size),
            )
    return BinaryRelation.from_keys(accept_keys, n)


def frontier_reachable_pairs(
    seeds: np.ndarray,
    symbols: tuple[str, ...],
    csr: SymbolCSRCache,
    budget: EvaluationBudget,
) -> np.ndarray:
    """Sorted ``(seed, node)`` keys with node reachable from seed (≥0 hops).

    The pair-relation sweep restricted to the given seed column: every
    seed starts at itself (the identity slice of the closure), and each
    level costs one CSR gather per symbol for the *whole* frontier
    relation.  This is what the binding-table join consumes for
    variable-length steps with a bound endpoint — the keys become a
    relation whose forward CSR the table's rows gather through.
    """
    seeds = sorted_unique(seeds)
    if seeds.size == 0:
        return EMPTY_I64
    _SWEEPS.inc()
    with TRACER.span(
        "frontier.reachable_pairs", seeds=int(seeds.size), symbols=list(symbols)
    ) as sweep:
        levels: list[dict] = []
        visited = pack_pairs(seeds, seeds)
        frontier = visited
        total_pairs = visited.size
        while frontier.size:
            budget.check_time()
            FAULTS.hit(_FP_ADVANCE)
            sources, nodes = unpack_keys(frontier)
            chunks: list[np.ndarray] = []
            for symbol in symbols:
                entry = csr.get(symbol)
                if entry is None:
                    continue
                candidates, _ = gather_pair_keys(
                    sources, nodes, entry[0], entry[1], budget
                )
                if candidates.size:
                    chunks.append(candidates)
            if not chunks:
                break
            candidates = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
            frontier, visited = advance_frontier(candidates, visited)
            total_pairs += frontier.size
            budget.check_rows(total_pairs)
            budget.check_bytes(total_pairs * 8)
            if sweep:
                levels.append(
                    {
                        "level": len(levels),
                        "frontier": int(frontier.size),
                        "visited": total_pairs,
                    }
                )
        if sweep:
            sweep.set(levels=levels, visited_pairs=int(visited.size))
    return visited

