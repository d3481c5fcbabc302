"""The SPARQL-like engine ("S" in the paper's §7), frontier edition.

The classic property-path strategy compiles each conjunct's regular
expression to an NFA and explores the product of the graph and the
automaton.  Where the seed walked that product one Python (node, state)
pair at a time per source, this engine runs **one level-synchronous,
multi-source sweep**: each NFA state carries a packed (source, node)
frontier *relation*, and every (level, state, symbol) step is a single
batch CSR gather plus sorted-set dedup/difference/merge
(:mod:`repro.engine.frontier`).  All sources advance at once, so the
cost per level is a handful of numpy passes regardless of how many
sources are still alive.

Cost still tracks the number of *reachable* product pairs rather than
intermediate join sizes — which is why S overtakes P on quadratic
queries and on linear queries over larger instances (Fig. 12), while
its exploration of closures exhausts memory budgets on recursive
workloads over bigger graphs (Table 4: S answered only the 2K
instance).  The seed's per-source BFS is retained as the parity oracle
under ``tests/oracles/``.
"""

from __future__ import annotations

from repro.engine.automaton import build_nfa
from repro.engine.base import Engine, register_engine
from repro.engine.frontier import frontier_regex_relation


@register_engine
class SparqlLikeEngine(Engine):
    """Multi-source product-automaton frontier sweep evaluation."""

    name = "sparql"
    paper_system = "S"

    def conjunct_relation(self, regex, graph, budget, cache):
        return frontier_regex_relation(build_nfa(regex), graph, budget, cache)
