"""The seed's per-source product BFS, retained as a reference oracle.

This is the scalar strategy :class:`repro.engine.bfs.SparqlLikeEngine`
replaced: compile the conjunct regex to an NFA and, *per source node*,
run a Python BFS over the product of the graph and the automaton,
marking visited (node, state) pairs one at a time.  It is kept (not
registered in the engine registry) for the **parity property tests** —
the frontier sweep must return the identical relation on random
graphs × random UCRPQ shapes (``tests/test_frontier_parity.py``).
"""

from __future__ import annotations

from collections import deque

from repro.engine.automaton import NFA, build_nfa
from repro.engine.base import Engine
from repro.engine.budget import EvaluationBudget
from repro.engine.relations import BinaryRelation
from repro.generation.graph import LabeledGraph
from repro.queries.ast import RegularExpression


class ReferenceSparqlEngine(Engine):
    """Per-source NFA-product BFS evaluation (the seed's S engine)."""

    name = "sparql_reference"
    paper_system = "S"

    def conjunct_relation(
        self,
        regex: RegularExpression,
        graph: LabeledGraph,
        budget: EvaluationBudget,
        cache,
    ) -> BinaryRelation:
        nfa = build_nfa(regex)
        pairs: set[tuple[int, int]] = set()
        start_accepting = nfa.is_accepting(frozenset({nfa.start}))
        visited_total = 0
        for source in range(graph.n):
            if start_accepting:
                pairs.add((source, source))
            visited_total += self._bfs_from(source, nfa, graph, pairs)
            if visited_total > budget.max_rows:
                budget.check_rows(visited_total)
            if source % 256 == 0:
                budget.check_time()
        sources = [source for source, _ in pairs]
        targets = [target for _, target in pairs]
        return BinaryRelation.from_arrays(sources, targets, graph.n)

    def _bfs_from(
        self,
        source: int,
        nfa: NFA,
        graph: LabeledGraph,
        pairs: set[tuple[int, int]],
    ) -> int:
        """Product BFS from one source; records accepting pairs."""
        start_pair = (source, nfa.start)
        visited: set[tuple[int, int]] = {start_pair}
        queue = deque([start_pair])
        while queue:
            node, state = queue.popleft()
            for symbol, next_state in nfa.transitions.get(state, []):
                # CSR slice, not a per-call set: the product BFS visits
                # every (node, state) pair once, so adjacency access
                # dominates this engine's runtime.
                for next_node in graph.neighbours_array(node, symbol).tolist():
                    pair = (next_node, next_state)
                    if pair in visited:
                        continue
                    visited.add(pair)
                    if next_state in nfa.accepting:
                        pairs.add((source, next_node))
                    queue.append(pair)
        return len(visited)
