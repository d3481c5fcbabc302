"""The PostgreSQL-like engine ("P" in the paper's §7).

Vectorised relational evaluation: per-label relations are sorted
packed-key columns, path concatenations extend one label at a time
through the graph's CSR index and disjunctions are sorted-set unions
(the path step D shares, :func:`~repro.engine.base.disjunction_relation`)
— which is why P "typically shows superior performance across a broad
class of [non-recursive] queries" (§7.2).

Recursion uses the straightforward SQL:1999 ``WITH RECURSIVE ... UNION``
translation evaluated as a *naive* fixpoint over that same algebra: each
round composes the whole accumulated relation with the base relation
(``BinaryRelation.compose``) and unions the result back in, until nothing
new appears.  Unlike D's closure it never narrows a round to the previous
round's delta — the classic behaviour of the standard relational
encoding, and the reason P degrades so badly on the recursive workload
(Table 4).
"""

from __future__ import annotations

from repro.engine.base import Engine, disjunction_relation, register_engine
from repro.engine.relations import BinaryRelation


@register_engine
class PostgresLikeEngine(Engine):
    """Sorted-key relational evaluation with naive SQL recursion."""

    name = "postgres"
    paper_system = "P"

    def conjunct_relation(self, regex, graph, budget, cache):
        base = disjunction_relation(regex, cache, budget)
        if not regex.starred:
            return base
        # Naive, not semi-naive: every round joins the *whole* accumulated
        # relation against the base (Table 4 depends on it).
        result = BinaryRelation.identity(graph.n).union(base)
        while True:
            budget.check_time()
            budget.check_rows(len(result))
            budget.check_bytes(result.nbytes)
            combined = result.union(result.compose(base, budget))
            if len(combined) == len(result):
                return combined
            result = combined
