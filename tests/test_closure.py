"""Tests for the SCC-condensed closure relation (Datalog recursion).

The condensed closure is checked against the semi-naive oracle
(``tests/oracles/reference_closure.py``), which is itself checked
against networkx here.
"""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.budget import EvaluationBudget
from repro.engine.closure import ClosureRelation
from repro.engine.relations import BinaryRelation
from repro.engine.resultset import ResultSet
from repro.errors import EngineBudgetExceeded, ExecutionCancelled
from repro.execution import CancellationToken, ResourceBudget

from oracles.reference_closure import transitive_closure
from oracles.tuples import materialised, pairs, rows


def relation_of(edges, n) -> BinaryRelation:
    """The relation of an iterable of (source, target) tuples over
    ``n`` nodes."""
    columns = np.array(list(edges), dtype=np.int64).reshape(-1, 2)
    return BinaryRelation.from_arrays(columns[:, 0], columns[:, 1], n)


def closure_pair(edges, n, budget=None):
    """(SCC-condensed, semi-naive reference) closures of the same base."""
    base = relation_of(edges, n)
    return (
        ClosureRelation(base, n, budget),
        transitive_closure(base, nodes=range(n)),
    )


def transposed(relation: BinaryRelation) -> BinaryRelation:
    """The relation with its columns swapped."""
    return BinaryRelation.from_arrays(
        relation.target_array, relation.source_array, relation.node_count
    )


def assert_matches_reference(edges, n) -> None:
    """The condensed closure read forward, its length, one source's
    gather and the closure read backward equal the semi-naive oracle's."""
    closed, reference = closure_pair(edges, n)
    assert materialised(closed) == reference
    assert len(closed) == len(reference)
    node = n // 2
    assert materialised(closed, values=np.array([node])) == (
        BinaryRelation.from_keys(
            reference.key_array[reference.source_array == node], n
        )
    )
    assert materialised(closed, forward=False) == transposed(reference)


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

    def test_gather_from_one_source(self):
        closed, _ = closure_pair([(0, 1), (1, 2)], 4)
        probe_index, targets = closed.gather(np.array([0]), True)
        assert probe_index.tolist() == [0, 0, 0]
        assert sorted(targets.tolist()) == [0, 1, 2]
        assert closed.gather(np.array([3]), True)[1].tolist() == [3]

    def test_gather_per_row_keeps_repeated_values(self):
        """The gather runs on a table's rows as they are: a repeated
        value gathers its partners once per row."""
        closed, _ = closure_pair([(0, 1), (1, 2)], 4)
        probe_index, targets = closed.gather(np.array([2, 1, 2]), True)
        assert sorted(zip(probe_index.tolist(), targets.tolist())) == [
            (0, 2), (1, 1), (1, 2), (2, 2)
        ]

    def test_backward_gather_matches_reference(self):
        closed, reference = closure_pair([(0, 1), (1, 2), (2, 0), (2, 3)], 5)
        assert pairs(materialised(closed, forward=False)) == pairs(
            transposed(reference)
        )

    def test_len_matches_pair_count(self):
        closed, reference = closure_pair([(0, 1), (1, 0), (1, 2), (3, 1)], 5)
        assert len(closed) == len(reference)

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
        assert materialised(closed, values=np.array([node])) == (
            BinaryRelation.from_keys(
                reference.key_array[reference.source_array == node], n
            )
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
        reference = transitive_closure(base, nodes=range(bib_graph.n))
        assert via_engine == ResultSet.from_relation(reference)


class TestClosureInTheJoin:
    def test_target_bound_step_honours_the_callers_budget(self):
        """A target-bound starred conjunct gathers the closure backwards
        under the caller's budget, not ``unlimited()``: its rows are
        charged to the caller's cap, and the caller's token stops the
        join right after it."""
        from repro.engine.joins import join_rule
        from repro.queries.parser import parse_query

        rule = parse_query("(?x, ?z) <- (?x, a, ?y), (?z, b, ?y)").rules[0]
        closed, _ = closure_pair([(0, 1), (1, 2)], 4)
        relations = [relation_of([(3, 2)], 4), closed]
        # Step 1 binds ?y = 2; step 2 gathers {0, 1, 2} backwards from it.
        assert rows(join_rule(rule, relations, order=[0, 1])) == {
            (3, 0), (3, 1), (3, 2)
        }
        with pytest.raises(EngineBudgetExceeded):
            join_rule(rule, relations, EvaluationBudget(max_rows=2), order=[0, 1])
        token = CancelsAfter(polls=1)  # the first step's poll passes
        with pytest.raises(ExecutionCancelled):
            join_rule(
                rule, relations, ResourceBudget(token=token).start(), order=[0, 1]
            )
        assert token.left == -1

    def test_target_bound_step_charges_the_reach_bytes(self):
        """A target-bound starred conjunct reads the component reach
        re-sorted on target, so the reach's bytes meet the caller's
        memory cap before it is built; source-bound, the same step
        builds nothing of the kind and fits the cap."""
        from repro.engine.joins import join_rule
        from repro.queries.parser import parse_query

        closed, _ = closure_pair([(0, 1), (1, 2)], 4)
        cap = 100  # the reach (7 component pairs) is 168 bytes
        backward = parse_query("(?x, ?z) <- (?x, a, ?y), (?z, b, ?y)").rules[0]
        with pytest.raises(EngineBudgetExceeded) as aborted:
            join_rule(
                backward,
                [relation_of([(3, 2)], 4), closed],
                ResourceBudget(max_bytes=cap).start(),
                order=[0, 1],
            )
        assert aborted.value.resource == "bytes"
        assert aborted.value.amount == 168
        forward = parse_query("(?x, ?z) <- (?x, a, ?y), (?y, b, ?z)").rules[0]
        answers = join_rule(
            forward,
            [relation_of([(3, 0)], 4), closed],
            ResourceBudget(max_bytes=cap).start(),
            order=[0, 1],
        )
        assert rows(answers) == {(3, 0), (3, 1), (3, 2)}

    @pytest.mark.parametrize("engine", ["postgres", "sparql", "datalog"])
    def test_cancelled_token_stops_target_bound_star(self, bib_graph, engine):
        from repro.engine import evaluate_query
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


# -- the level loop ----------------------------------------------------------


def layered_lattice(layers: int, width: int) -> list[tuple[int, int]]:
    """``layers`` layers of ``width`` nodes: each half-layer is a cycle
    (two SCCs per layer), and node i of a layer points at nodes i and
    i + 1 of the next."""
    edges = []
    half = width // 2
    for layer in range(layers):
        base = layer * width
        for i in range(width):
            group = (i // half) * half
            edges.append((base + i, base + group + (i - group + 1) % half))
            if layer + 1 < layers:
                edges.append((base + i, base + width + i))
                edges.append((base + i, base + width + (i + 1) % width))
    return edges


@st.composite
def dags_with_cycles(draw, max_nodes: int):
    """A random DAG over a shuffled node order, plus back edges that
    close cycles across it (so components of every size appear)."""
    n = draw(st.integers(1, max_nodes))
    order = draw(st.permutations(range(n)))
    node = st.integers(0, n - 1)
    forward = draw(st.lists(st.tuples(node, node), max_size=2 * n))
    back = draw(st.lists(st.tuples(node, node), max_size=n // 8 + 1))
    edges = [(order[min(a, b)], order[max(a, b)]) for a, b in forward if a != b]
    edges += [(order[max(a, b)], order[min(a, b)]) for a, b in back]
    return n, edges


class CountingBudget(ResourceBudget):
    """A budget that counts its ``check_time`` polls."""

    polls = 0

    def check_time(self) -> None:
        self.polls += 1
        super().check_time()


class CancelsAfter(CancellationToken):
    """A token that reads as cancelled from its ``(polls + 1)``-th poll on."""

    def __init__(self, polls: int):
        super().__init__()
        self.left = polls

    @property
    def cancelled(self) -> bool:
        self.left -= 1
        if self.left < 0:
            self.reason = "flipped mid-loop"
        return self.left < 0


class TestLevelLoop:
    """Component reach is built one condensation-DAG level at a time."""

    def test_deep_path(self):
        n = 500
        assert_matches_reference([(i, i + 1) for i in range(n - 1)], n)

    @pytest.mark.parametrize("direction", ["out", "in"])
    def test_wide_star(self, direction):
        leaves = 2_000
        edges = [(0, leaf) for leaf in range(1, leaves + 1)]
        if direction == "in":
            edges = [(leaf, root) for root, leaf in edges]
        assert_matches_reference(edges, leaves + 1)

    def test_layered_lattice_with_cycles_inside_layers(self):
        assert_matches_reference(layered_lattice(layers=12, width=16), 12 * 16)

    @given(graph=dags_with_cycles(max_nodes=40))
    @settings(max_examples=30, deadline=None)
    def test_matches_reference_on_dags_with_cycles(self, graph):
        assert_matches_reference(graph[1], graph[0])

    @pytest.mark.nightly
    @given(graph=dags_with_cycles(max_nodes=300))
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_on_dags_with_cycles_sweep(self, graph):
        assert_matches_reference(graph[1], graph[0])

    def test_time_is_polled_per_level_not_per_component(self):
        """Two DAG levels of 1 000 components each: a handful of polls
        (one per level plus the two set-up checks), not one per
        component."""
        budget = CountingBudget()
        sources = np.arange(1_000)
        ClosureRelation(
            BinaryRelation.from_arrays(sources, sources + 1_000, 2_000), 2_000, budget
        )
        assert budget.polls <= 6

    def test_cancellation_stops_the_loop(self):
        """A token that fires after the third poll — the two set-up
        checks and the first level — stops a 200-level build."""
        token = CancelsAfter(polls=3)
        with pytest.raises(ExecutionCancelled):
            ClosureRelation(
                relation_of(((i, i + 1) for i in range(199)), 200),
                200,
                ResourceBudget(token=token),
            )
        assert token.left == -1


class TestSemiNaiveOracle:
    """The reference closure itself, against networkx."""

    def test_closure_matches_networkx(self):
        edges = [(0, 1), (1, 2), (2, 0), (2, 3), (4, 4)]
        closure = transitive_closure(relation_of(edges, 6), nodes=range(6))
        digraph = nx.DiGraph(edges)
        digraph.add_nodes_from(range(6))
        expected = set(nx.transitive_closure(digraph, reflexive=True).edges())
        assert pairs(closure) == expected

    def test_closure_includes_identity_on_given_nodes(self):
        closure = transitive_closure(relation_of([(0, 1)], 3), nodes=range(3))
        assert (2, 2) in pairs(closure)

    def test_closure_budget_rows(self):
        # A 40-clique closure has 1600 pairs; cap at 100 must trip.
        relation = relation_of(((i, (i + 1) % 40) for i in range(40)), 40)
        budget = EvaluationBudget(timeout_seconds=60, max_rows=100).start()
        with pytest.raises(EngineBudgetExceeded):
            transitive_closure(relation, nodes=range(40), budget=budget)

    @pytest.mark.nightly
    @given(
        edges=st.lists(
            st.tuples(st.integers(0, 40), st.integers(0, 40)), max_size=80
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_transitive_closure(self, edges):
        closure = transitive_closure(relation_of(edges, 41), nodes=range(41))
        digraph = nx.DiGraph(edges)
        digraph.add_nodes_from(range(41))
        expected = set(nx.transitive_closure(digraph, reflexive=True).edges())
        assert pairs(closure) == expected
