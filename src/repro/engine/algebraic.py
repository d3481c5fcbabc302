"""The Datalog-like engine ("D" in the paper's §7).

Bottom-up evaluation: every conjunct regex is materialised as a binary
relation (paths by the CSR path step P shares, stars as an SCC-compressed
closure built one condensation-DAG level at a time), then the rule body
is joined by CSR gathers and membership filters.  The compressed closure
is why D is the only system that completes the recursive workload in
Table 4 — and why its constant/linear/quadratic times blur together in
Fig. 12 (it always pays full materialisation).
"""

from __future__ import annotations

from repro.engine.base import Engine, regex_to_relation, register_engine
from repro.engine.budget import EvaluationBudget
from repro.generation.graph import LabeledGraph
from repro.queries.ast import Query


@register_engine
class DatalogLikeEngine(Engine):
    """Bottom-up evaluation with full materialisation."""

    name = "datalog"
    paper_system = "D"

    def conjunct_relation(self, regex, graph, budget, cache):
        return regex_to_relation(regex, cache, budget)

    def count_distinct(
        self,
        query: Query,
        graph: LabeledGraph,
        budget: EvaluationBudget | None = None,
    ) -> int:
        """Aggregate fast path: stream the count for pure path queries.

        When the query is a single binary regular path query, its answer
        set *is* the conjunct's relation — a bottom-up engine computes
        ``#count`` without shipping the (possibly quadratic) tuples to
        the client.  This is what keeps D answering the recursive
        quadratic query of Table 4 at every size.  It runs behind the
        same engine boundary as :meth:`evaluate`, so a partial-result
        budget gets the partial count rather than an exception.
        """
        rule = query.rules[0]
        if (
            query.rule_count == 1
            and rule.conjunct_count == 1
            and rule.head == (rule.body[0].source, rule.body[0].target)
            and rule.body[0].source != rule.body[0].target
        ):
            counted = self._bounded(
                query,
                budget,
                lambda armed: len(
                    self.conjunct_relation(
                        rule.body[0].regex, graph, armed, self.conjunct_cache(graph)
                    )
                ),
            )
            return counted if isinstance(counted, int) else counted.count_distinct()
        return super().count_distinct(query, graph, budget)
