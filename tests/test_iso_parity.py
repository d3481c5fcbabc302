"""Edge-isomorphism parity: columnar binding-table join vs the seed backtracker.

The vectorized :class:`CypherLikeEngine` must be answer-for-answer
identical to :class:`ReferenceCypherEngine` (the retained seed
backtracker) on every query shape — including the two places where G's
semantics *deliberately* diverge from the homomorphic engines:

* **edge-isomorphism** — no physical edge used twice within one match
  (the binding table's ``(a_pos, b_pos)`` variable-column pairs per
  matched edge step vs the reference's ``used_edges`` frozenset);
* the **§7.1 restricted-recursion workaround** — inverse / concatenation
  under Kleene star approximated by label dropping, so recursive answers
  differ from the homomorphic engines in exactly the same way in both
  implementations.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.reference_isomorphic import ReferenceCypherEngine
from oracles.tuples import rows
from repro.engine.budget import EvaluationBudget, unlimited
from repro.engine.isomorphic import CypherLikeEngine
from repro.engine.resultset import ResultSet
from repro.errors import EngineBudgetExceeded
from repro.generation.graph import LabeledGraph
from repro.observability.trace import TRACER
from repro.queries.parser import parse_query
from repro.schema.config import GraphConfiguration
from repro.schema.constraints import proportion
from repro.schema.distributions import GaussianDistribution, ZipfianDistribution
from repro.schema.schema import GraphSchema


def _tiny_schema() -> GraphSchema:
    schema = GraphSchema(name="iso-parity")
    schema.add_type("T", proportion(1.0))
    for label in ("a", "b"):
        schema.add_edge(
            "T", "T", label,
            in_dist=GaussianDistribution(2.0, 1.0),
            out_dist=ZipfianDistribution(2.5, 2.0),
        )
    return schema


def _build_graph(n: int, edges: dict[str, list[tuple[int, int]]]) -> LabeledGraph:
    graph = LabeledGraph(GraphConfiguration(n, _tiny_schema()))
    for label, pair_list in edges.items():
        if pair_list:
            arr = np.asarray(pair_list, dtype=np.int64)
            graph.add_edges(label, arr[:, 0], arr[:, 1])
    return graph


def _both(query_text: str, graph: LabeledGraph) -> tuple[ResultSet, ResultSet]:
    query = parse_query(query_text)
    fast = CypherLikeEngine().evaluate(query, graph, unlimited())
    slow = ReferenceCypherEngine().evaluate(query, graph, unlimited())
    return fast, slow


N = 16
_edges = st.lists(
    st.tuples(st.integers(0, N - 1), st.integers(0, N - 1)),
    min_size=0,
    max_size=40,
)

#: Query shapes spanning every extension case of the binding-table join:
#: chains / stars / cycles (repeated labels force the edge-isomorphism mask),
#: inverse and concatenated symbols, self-loops, ε, variable-length
#: steps in all four binding states, Cartesian branches, Boolean heads,
#: multi-rule unions, and the §7.1 recursion workaround.
SHAPES = [
    "(?x, ?y) <- (?x, a, ?y)",
    "(?x, ?y) <- (?x, a-, ?y)",
    "(?x, ?z) <- (?x, a, ?y), (?y, b, ?z)",
    "(?x, ?w) <- (?x, a, ?y), (?y, a, ?z), (?z, a, ?w)",
    "(?y, ?z, ?w) <- (?x, a, ?y), (?x, a, ?z), (?x, b, ?w)",
    "(?x) <- (?x, a, ?y), (?y, a, ?z), (?z, a, ?x)",
    "(?x, ?y) <- (?x, a, ?y), (?y, a, ?x)",
    "(?x, ?y) <- (?x, a, ?y), (?y, a-, ?x)",
    "(?x, ?y) <- (?x, a, ?p), (?p, a-, ?y), (?y, a, ?q), (?q, a-, ?x)",
    "(?x, ?y) <- (?x, a-.b, ?y)",
    "(?x, ?y) <- (?x, (a.b + b-), ?y)",
    "(?x) <- (?x, a, ?x)",
    "(?x) <- (?x, (a)*, ?x)",
    "(?x, ?y) <- (?x, eps, ?y)",
    "(?x, ?y) <- (?x, (a)*, ?y)",
    "(?x, ?y) <- (?x, (a + b)*, ?y)",
    "(?x, ?y) <- (?x, a, ?z), (?z, (b)*, ?y)",
    "(?x, ?y) <- (?x, (a)*, ?z), (?z, b, ?y)",
    "(?x, ?y) <- (?x, (a)*, ?z), (?z, (b)*, ?y)",
    "(?x, ?y) <- (?x, (a-)*, ?y)",
    "(?x, ?y) <- (?x, (a.b)*, ?y)",
    "(?x, ?y) <- (?x, (a-.b + eps)*, ?y)",
    "() <- (?x, a, ?y), (?y, b, ?z)",
    "(?x, ?y) <- (?x, a.b, ?y)\n(?x, ?y) <- (?x, b, ?y)",
    "(?x, ?w) <- (?x, a, ?y), (?z, b, ?w)",
]


class TestColumnarMatchesBacktracker:
    @given(a_edges=_edges, b_edges=_edges, text=st.sampled_from(SHAPES))
    @settings(max_examples=80, deadline=None)
    def test_random_graphs_and_shapes(self, a_edges, b_edges, text):
        """Property: identical answer sets on random graphs × shapes."""
        graph = _build_graph(N, {"a": a_edges, "b": b_edges})
        fast, slow = _both(text, graph)
        assert fast == slow, text

    @pytest.mark.parametrize("text", SHAPES)
    def test_every_shape_on_a_dense_graph(self, text):
        """Each shape at least once on a fixed dense-ish graph."""
        rng = np.random.default_rng(11)
        edges = {
            label: list(zip(rng.integers(0, N, 60), rng.integers(0, N, 60)))
            for label in ("a", "b")
        }
        graph = _build_graph(N, edges)
        fast, slow = _both(text, graph)
        assert fast == slow, text


class TestEdgeReuseRejection:
    def test_inverse_step_cannot_reuse_the_same_edge(self):
        """x -a-> y matched forward and backward is ONE physical edge:
        the pattern needs two distinct edges and must fail."""
        graph = _build_graph(4, {"a": [(1, 2)]})
        fast, slow = _both("(?x, ?y) <- (?x, a, ?y), (?y, a-, ?x)", graph)
        assert fast.count() == 0
        assert fast == slow

    def test_two_parallel_edges_satisfy_the_cycle(self):
        """With a reciprocal pair the two steps bind distinct edges."""
        graph = _build_graph(4, {"a": [(1, 2), (2, 1)]})
        fast, slow = _both("(?x, ?y) <- (?x, a, ?y), (?y, a, ?x)", graph)
        assert fast == slow
        assert rows(fast) == {(1, 2), (2, 1)}

    def test_chain_through_distinct_edges_survives(self):
        graph = _build_graph(4, {"a": [(0, 1), (1, 2)]})
        fast, slow = _both("(?x, ?z) <- (?x, a, ?y), (?y, a, ?z)", graph)
        assert fast == slow
        assert rows(fast) == {(0, 2)}

    def test_different_labels_never_conflict(self):
        """Edge identity includes the label: a and b edges between the
        same endpoints are distinct."""
        graph = _build_graph(4, {"a": [(1, 2)], "b": [(1, 2)]})
        fast, slow = _both("(?x, ?y) <- (?x, a, ?y), (?x, b, ?y)", graph)
        assert fast == slow
        assert rows(fast) == {(1, 2)}

    def test_var_length_steps_do_not_consume_edges(self):
        """openCypher relationship uniqueness applies to fixed edge
        patterns; the approximated var-length step walks freely."""
        graph = _build_graph(4, {"a": [(1, 2)]})
        fast, slow = _both("(?x, ?y) <- (?x, a, ?y), (?x, (a)*, ?y)", graph)
        assert fast == slow
        assert rows(fast) == {(1, 2)}

    def test_loop_edge_is_not_reused_by_a_later_step(self):
        """The loop step records ``(x, x)``: the second step may not bind
        the loop edge ``(0, 0)`` again, so ``?y = 0`` is ruled out."""
        graph = _build_graph(4, {"a": [(0, 0), (0, 1)]})
        fast, slow = _both("(?x, ?y) <- (?x, a, ?x), (?x, a, ?y)", graph)
        assert fast == slow
        assert rows(fast) == {(0, 1)}

    def test_triangle_needs_three_distinct_edges(self):
        graph = _build_graph(4, {"a": [(0, 1), (1, 2), (2, 0)]})
        fast, slow = _both(
            "(?x) <- (?x, a, ?y), (?y, a, ?z), (?z, a, ?x)", graph
        )
        assert fast == slow
        assert rows(fast) == {(0,), (1,), (2,)}


class TestNarrowBindingTable:
    def test_step_width_is_the_bound_variable_count(self):
        """The table holds one column per bound variable and nothing
        else: edge-isomorphism reads the variable columns themselves."""
        graph = _build_graph(4, {"a": [(0, 1), (1, 2), (1, 1)]})
        query = parse_query("(?x, ?z) <- (?x, a, ?y), (?y, a, ?z)")
        with TRACER.recording() as capture:
            CypherLikeEngine().evaluate(query, graph, unlimited())
        steps, pending = [], list(capture.roots)
        while pending:
            span = pending.pop(0)
            if span.name == "engine.step":
                steps.append(span)
            pending.extend(span.children)
        assert [span.attributes["width"] for span in steps] == [2, 3]


class TestRestrictedRecursionWorkaround:
    """§7.1: no inverse / concatenation under star — G approximates."""

    def test_inverse_under_star_is_stripped(self):
        """(a-)* becomes (a)*: answers follow the *forward* edges."""
        graph = _build_graph(4, {"a": [(1, 2)]})
        fast, slow = _both("(?x, ?y) <- (?x, (a-)*, ?y)", graph)
        assert fast == slow
        identity = {(v, v) for v in range(4)}
        assert rows(fast) == identity | {(1, 2)}

    def test_concat_under_star_keeps_first_symbol(self):
        """(a.b)* becomes (a)*: the b hop is dropped."""
        graph = _build_graph(4, {"a": [(0, 1)], "b": [(1, 2)]})
        fast, slow = _both("(?x, ?y) <- (?x, (a.b)*, ?y)", graph)
        assert fast == slow
        identity = {(v, v) for v in range(4)}
        assert rows(fast) == identity | {(0, 1)}

    def test_epsilon_disjunct_under_star_is_dropped(self):
        graph = _build_graph(4, {"a": [(0, 1)], "b": [(2, 3)]})
        fast, slow = _both("(?x, ?y) <- (?x, (a- + eps + b.a)*, ?y)", graph)
        assert fast == slow
        identity = {(v, v) for v in range(4)}
        assert rows(fast) == identity | {(0, 1), (2, 3)}


class TestBudgetAbortMidJoin:
    def _dense_graph(self) -> LabeledGraph:
        nodes = np.arange(N, dtype=np.int64)
        src = np.repeat(nodes, N)
        trg = np.tile(nodes, N)
        graph = _build_graph(N, {})
        graph.add_edges("a", src, trg)
        return graph

    def test_row_budget_stops_the_join_mid_way(self):
        """The 2-step chain on the complete graph builds a 4096-row
        intermediate; the final projection is only 16 rows, so a 100-row
        cap must trip *during* the join, not at the boundary."""
        graph = self._dense_graph()
        query = parse_query("(?x) <- (?x, a, ?y), (?y, a, ?z)")
        budget = EvaluationBudget(timeout_seconds=60, max_rows=100).start()
        with pytest.raises(EngineBudgetExceeded):
            CypherLikeEngine().evaluate(query, graph, budget)

    def test_reference_trips_the_row_budget_on_answers(self):
        """The backtracker holds one assignment at a time, so it charges
        the budget on its growing answer set (256 > 100 here)."""
        graph = self._dense_graph()
        query = parse_query("(?x, ?z) <- (?x, a, ?y), (?y, a, ?z)")
        budget = EvaluationBudget(timeout_seconds=60, max_rows=100).start()
        with pytest.raises(EngineBudgetExceeded):
            ReferenceCypherEngine().evaluate(query, graph, budget)

    def test_timeout_aborts(self):
        graph = self._dense_graph()
        query = parse_query("(?x, ?y) <- (?x, (a)*, ?y), (?y, a, ?x)")
        budget = EvaluationBudget(timeout_seconds=0.0).start()
        with pytest.raises(EngineBudgetExceeded):
            CypherLikeEngine().evaluate(query, graph, budget)

    def test_generous_budget_passes(self):
        graph = self._dense_graph()
        query = parse_query("(?x) <- (?x, a, ?y), (?y, a, ?z)")
        budget = EvaluationBudget(timeout_seconds=60, max_rows=10_000_000).start()
        result = CypherLikeEngine().evaluate(query, graph, budget)
        assert result.count() == N
