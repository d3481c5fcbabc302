"""Tests for the SCC-condensed closure relation (Datalog recursion)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.budget import unlimited
from repro.engine.closure import ClosureRelation
from repro.engine.relations import BinaryRelation
from repro.engine.resultset import ResultSet

from oracles.tuples import pairs, rows


def closure_pair(edges, n):
    """(SCC-condensed, semi-naive reference) closures of the same base."""
    edges = np.array(edges, dtype=np.int64).reshape(-1, 2)
    base = BinaryRelation.from_arrays(edges[:, 0], edges[:, 1])
    return (
        ClosureRelation(base, n),
        base.transitive_closure(nodes=range(n)),
    )


class TestClosureRelation:
    def test_empty_base_is_identity(self):
        closed, reference = closure_pair([], 5)
        assert len(closed) == 5
        assert pairs(closed) == pairs(reference)

    def test_simple_chain(self):
        closed, reference = closure_pair([(0, 1), (1, 2)], 4)
        assert pairs(closed) == pairs(reference)
        assert (0, 2) in pairs(closed)
        assert (2, 0) not in pairs(closed)

    def test_cycle_collapses_to_component(self):
        closed, reference = closure_pair([(0, 1), (1, 2), (2, 0)], 4)
        assert pairs(closed) == pairs(reference)
        assert (2, 1) in pairs(closed)

    def test_restrict_to_one_source(self):
        closed, _ = closure_pair([(0, 1), (1, 2)], 4)
        reach = closed.restrict(np.array([0]), unlimited())
        assert reach.target_array.tolist() == [0, 1, 2]
        assert closed.restrict(np.array([3]), unlimited()).target_array.tolist() == [3]

    def test_inverse_matches_reference(self):
        closed, reference = closure_pair([(0, 1), (1, 2), (2, 0), (2, 3)], 5)
        assert pairs(closed.inverse()) == pairs(reference.inverse())

    def test_inverse_is_cached_and_involutive(self):
        closed, _ = closure_pair([(0, 1)], 3)
        assert closed.inverse().inverse() is closed

    def test_len_matches_pair_count(self):
        closed, reference = closure_pair([(0, 1), (1, 0), (1, 2), (3, 1)], 5)
        assert len(closed) == len(reference)

    def test_out_of_domain_sources_restrict_to_nothing(self):
        closed, _ = closure_pair([(0, 1)], 2)
        assert len(closed.restrict(np.array([5, 17]), unlimited())) == 0

    @given(
        n=st.integers(1, 12),
        edges=st.lists(
            st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=30
        ),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_semi_naive_reference(self, n, edges, data):
        """Property: SCC closure == semi-naive closure on random graphs."""
        edges = [(u % n, v % n) for u, v in edges]
        closed, reference = closure_pair(edges, n)
        assert pairs(closed) == pairs(reference)
        assert len(closed) == len(reference)
        node = data.draw(st.integers(0, n - 1))
        assert closed.restrict(np.array([node]), unlimited()) == (
            BinaryRelation.from_keys(reference.key_array[reference.source_array == node])
        )

    def test_used_by_datalog_engine_for_stars(self, bib_graph):
        """The engine's starred conjuncts answer through ClosureRelation
        identically to the materialised reference."""
        from repro.engine import evaluate_query
        from repro.queries.parser import parse_query

        query = parse_query("(?x, ?y) <- (?x, (publishedIn.publishedIn-)*, ?y)")
        via_engine = evaluate_query(query, bib_graph, "datalog")

        base = BinaryRelation.from_graph_symbol(bib_graph, "publishedIn").compose(
            BinaryRelation.from_graph_symbol(bib_graph, "publishedIn-")
        )
        reference = base.transitive_closure(nodes=range(bib_graph.n))
        assert via_engine == ResultSet.from_relation(reference)


class TestClosureInTheJoin:
    def test_inverse_honours_the_callers_budget(self):
        """A target-bound starred conjunct expands the *inverse* closure:
        building it must poll the caller's token, not ``unlimited()``."""
        from repro.errors import ExecutionCancelled
        from repro.execution import CancellationToken, ResourceBudget

        token = CancellationToken()
        token.cancel("client went away")
        closed, _ = closure_pair([(0, 1), (1, 2)], 4)
        with pytest.raises(ExecutionCancelled):
            closed.inverse(ResourceBudget(token=token))

    @pytest.mark.parametrize("engine", ["postgres", "sparql", "datalog"])
    def test_cancelled_token_stops_target_bound_star(self, bib_graph, engine):
        from repro.engine import evaluate_query
        from repro.errors import ExecutionCancelled
        from repro.execution import CancellationToken, ResourceBudget
        from repro.queries.parser import parse_query

        token = CancellationToken()
        token.cancel()
        query = parse_query(
            "(?x, ?z) <- (?x, authors, ?y), (?z, (extendedTo)*, ?y)"
        )
        with pytest.raises(ExecutionCancelled):
            evaluate_query(query, bib_graph, engine, ResourceBudget(token=token))

    def test_single_scc_cycle_filter_stays_linear(self, bib_config):
        """Table 4's memory property: a starred conjunct that *closes* a
        cycle is a both-bound filter answered from the component-level
        reach, so on a graph that is one SCC of n nodes D completes
        under ``max_rows = 4·n`` — a node-level materialisation of the
        filter would need n²."""
        from repro.engine import evaluate_query
        from repro.engine.budget import EvaluationBudget
        from repro.generation.graph import LabeledGraph
        from repro.queries.parser import parse_query

        n = bib_config.n
        graph = LabeledGraph(bib_config)
        graph.add_edges("extendedTo", np.arange(n), (np.arange(n) + 1) % n)
        query = parse_query(
            "(?x, ?z) <- (?x, extendedTo, ?y), (?y, extendedTo, ?z), "
            "(?z, (extendedTo)*, ?x)"
        )
        answers = evaluate_query(
            query, graph, "datalog", EvaluationBudget(max_rows=4 * n)
        )
        assert rows(answers) == {(v, (v + 2) % n) for v in range(n)}
