"""Tests for binary relations and rule joins."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.columnar import sorted_unique_keys
from repro.engine.budget import EvaluationBudget, unlimited
from repro.engine.closure import ClosureRelation
from repro.engine.joins import greedy_join_order, join_rule, naive_join_order
from repro.engine.relations import BinaryRelation
from repro.errors import EngineBudgetExceeded
from repro.generation.generator import generate_graph
from repro.queries.parser import parse_query
from repro.schema.config import GraphConfiguration
from repro.scenarios import scenario_schema

from oracles.reference_closure import transitive_closure
from oracles.reference_join import expand_join
from oracles.tuples import materialised, pairs, rows

#: The node domain of the hand-written relations below.
NODES = 128


def relation_of(edges, n=NODES) -> BinaryRelation:
    """The relation of an iterable of (source, target) tuples."""
    columns = np.array(list(edges), dtype=np.int64).reshape(-1, 2)
    return BinaryRelation.from_arrays(columns[:, 0], columns[:, 1], n)


class TestBinaryRelation:
    def test_construction_deduplicates(self):
        relation = relation_of([(1, 2), (1, 2), (2, 3)])
        assert len(relation) == 2
        assert pairs(relation) == {(1, 2), (2, 3)}

    def test_union(self):
        left = relation_of([(1, 2)])
        right = relation_of([(2, 3), (1, 2)])
        assert pairs(left.union(right)) == {(1, 2), (2, 3)}

    def test_gather_both_directions(self):
        relation = relation_of([(1, 2), (1, 3), (3, 4)])
        assert materialised(relation) == relation
        assert pairs(materialised(relation, forward=False)) == {
            (2, 1), (3, 1), (4, 3)
        }
        probe_index, values = relation.gather(np.array([4, 1, 0, 4]), False)
        assert list(zip(probe_index.tolist(), values.tolist())) == [(0, 3), (3, 3)]

    def test_compose(self):
        left = relation_of([(1, 2), (1, 3)])
        right = relation_of([(2, 4), (3, 4), (3, 5)])
        assert pairs(left.compose(right)) == {(1, 4), (1, 5)}
        empty = BinaryRelation(NODES)
        assert len(empty.compose(right)) == 0
        assert len(left.compose(empty)) == 0
        assert len(right.compose(left)) == 0  # no target meets a source

    def test_identity(self):
        assert pairs(BinaryRelation.identity(3)) == {(0, 0), (1, 1), (2, 2)}
        assert len(BinaryRelation.identity(0)) == 0

    def test_compose_budget_rows(self):
        left = relation_of((0, i) for i in range(100))
        right = relation_of((i, j) for i in range(100) for j in range(50))
        budget = EvaluationBudget(timeout_seconds=60, max_rows=10).start()
        with pytest.raises(EngineBudgetExceeded):
            left.compose(right, budget)

    def test_from_graph_symbol(self, bib_graph):
        forward = BinaryRelation.from_graph_symbol(bib_graph, "authors")
        backward = BinaryRelation.from_graph_symbol(bib_graph, "authors-")
        assert materialised(forward, forward=False) == backward
        assert materialised(backward, forward=False) == forward

    @pytest.mark.parametrize("scenario", ["bib", "lsn", "sp", "wd"])
    def test_inverse_adopts_the_backward_index(self, scenario):
        """An inverse label's key column is the packed backward CSR index:
        already sorted and unique, equal to re-sorting the swapped
        columns, and read-only."""
        configuration = GraphConfiguration(500, scenario_schema(scenario))
        graph = generate_graph(configuration, seed=3)
        for label in configuration.schema.alphabet:
            sources, targets = graph.edge_arrays(label)
            keys = BinaryRelation.from_graph_symbol(graph, label + "-").key_array
            assert np.array_equal(keys, sorted_unique_keys(targets, sources)), label
            assert not keys.flags.writeable


GATHER_NODES = 24
NODE = st.integers(0, GATHER_NODES - 1)
EDGES = st.lists(st.tuples(NODE, NODE), max_size=40)
PROBES = st.lists(NODE, max_size=30)


def oracle_gather(relation: BinaryRelation, probes: np.ndarray, forward: bool):
    """``(probe_index, partners, charges)`` of the sort-merge lookup join
    the gather replaced, against the relation's sorted source column or
    its stably re-sorted target column."""
    if forward:
        build, payload = relation.source_array, relation.target_array
    else:
        order = np.argsort(relation.target_array, kind="stable")
        build, payload = relation.target_array[order], relation.source_array[order]
    charges: list[int] = []
    _, probe_index, build_index = expand_join(probes, build, charges.append)
    return probe_index, payload[build_index], charges


class TestGatherParity:
    """``gather`` against the ``expand_join`` oracle, both directions."""

    @given(edges=EDGES, probes=PROBES, forward=st.booleans())
    @example(edges=[], probes=[0, 5, 5], forward=True)
    @example(edges=[], probes=[0, 5, 5], forward=False)
    @settings(max_examples=80, deadline=None)
    def test_binary_relation(self, edges, probes, forward):
        """Same rows in the same order, and the same charge per call —
        probes with no partner and the empty relation included."""
        relation = relation_of(edges, GATHER_NODES)
        probes = np.array(probes, dtype=np.int64)
        expected_index, expected, expected_charges = oracle_gather(
            relation, probes, forward
        )
        charges: list[int] = []
        probe_index, partners = relation.gather(probes, forward, charges.append)
        assert probe_index.tolist() == expected_index.tolist()
        assert partners.tolist() == expected.tolist()
        assert charges == expected_charges

    @given(edges=EDGES, probes=PROBES, forward=st.booleans())
    @example(edges=[], probes=[0, 5, 5], forward=True)
    @settings(max_examples=80, deadline=None)
    def test_closure_relation(self, edges, probes, forward):
        """The same (row, partner) pairs as the materialised closure's
        join.  The closure charges the (row, component) pairs first —
        never more than the final size — then exactly the final size
        the materialised join charges."""
        base = relation_of(edges, GATHER_NODES)
        closure = ClosureRelation(base, GATHER_NODES)
        reference = transitive_closure(base, nodes=range(GATHER_NODES))
        probes = np.array(probes, dtype=np.int64)
        expected_index, expected, expected_charges = oracle_gather(
            reference, probes, forward
        )
        charges: list[int] = []
        probe_index, partners = closure.gather(probes, forward, charges.append)
        assert sorted(zip(probe_index.tolist(), partners.tolist())) == sorted(
            zip(expected_index.tolist(), expected.tolist())
        )
        assert len(charges) == 2
        assert charges[0] <= charges[1] == expected_charges[0]

    @given(edges=EDGES, forward=st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_none_probes_every_node(self, edges, forward):
        """``gather(None, ...)`` is the gather over every node in order,
        for both relation kinds, charged the same."""
        base = relation_of(edges, GATHER_NODES)
        ids = np.arange(GATHER_NODES)
        for relation in (base, ClosureRelation(base, GATHER_NODES)):
            whole: list[int] = []
            every: list[int] = []
            got = relation.gather(None, forward, whole.append)
            expected = relation.gather(ids, forward, every.append)
            assert sorted(zip(*(column.tolist() for column in got))) == sorted(
                zip(*(column.tolist() for column in expected))
            )
            assert whole[-1] == every[-1]

    def test_unbound_join_step_charges_the_product_once(self):
        """A step with no bound end charges table rows × relation size
        before its full gather, and nothing else."""
        rule = parse_query("(?x, ?y) <- (?x, a, ?z), (?w, b, ?y)").rules[0]
        relations = [relation_of([(0, 1), (2, 3)]), relation_of([(4, 5), (6, 7), (6, 8)])]
        charged: list[int] = []

        class Recording(EvaluationBudget):
            def check_rows(self, rows: int) -> None:
                charged.append(rows)
                super().check_rows(rows)

        join_rule(rule, relations, Recording().start(), order=[0, 1])
        assert charged == [1 * 2, 2, 2 * 3, 6]


class TestJoins:
    def brute_force(self, rule, relations):
        """Oracle: enumerate all variable assignments."""
        variables = sorted(rule.variables)
        pair_sets = [pairs(relation) for relation in relations]
        domains = {value for pair_set in pair_sets for pair in pair_set for value in pair}
        answers = set()

        def assign(index, current):
            if index == len(variables):
                for conjunct, pair_set in zip(rule.body, pair_sets):
                    pair = (current[conjunct.source], current[conjunct.target])
                    if pair not in pair_set:
                        return
                answers.add(tuple(current[v] for v in rule.head))
                return
            for value in domains:
                current[variables[index]] = value
                assign(index + 1, current)
            del current[variables[index]]

        assign(0, {})
        return answers

    @pytest.mark.parametrize(
        "text",
        [
            "(?x, ?y) <- (?x, a, ?z), (?z, b, ?y)",
            "(?x, ?y) <- (?x, a, ?y), (?x, b, ?y)",
            "(?x) <- (?x, a, ?x)",
            "() <- (?x, a, ?y), (?y, b, ?x)",
            "(?x, ?y, ?z) <- (?x, a, ?y), (?y, b, ?z)",
            "(?x, ?y) <- (?x, a, ?z), (?w, b, ?y)",  # disconnected body
        ],
    )
    def test_join_matches_brute_force(self, text):
        query = parse_query(text)
        rule = query.rules[0]
        rel_a = relation_of([(0, 1), (1, 2), (2, 2), (3, 0)])
        rel_b = relation_of([(1, 0), (2, 3), (2, 2), (0, 3)])
        relations = [
            rel_a if "a" in c.regex.predicates else rel_b for c in rule.body
        ]
        assert rows(join_rule(rule, relations)) == self.brute_force(rule, relations)

    def test_join_orders_agree(self):
        query = parse_query("(?x, ?y) <- (?x, a, ?z), (?z, b, ?w), (?w, c, ?y)")
        rule = query.rules[0]
        relations = [
            relation_of([(i, i + 1) for i in range(20)]),
            relation_of([(i, i + 1) for i in range(5)]),
            relation_of([(i, i + 1) for i in range(10)]),
        ]
        greedy = join_rule(rule, relations, order=greedy_join_order(rule, relations))
        naive = join_rule(rule, relations, order=naive_join_order(rule, relations))
        assert greedy == naive

    def test_greedy_order_starts_with_smallest(self):
        query = parse_query("(?x, ?y) <- (?x, a, ?z), (?z, b, ?y)")
        rule = query.rules[0]
        relations = [
            relation_of([(i, i) for i in range(50)]),
            relation_of([(0, 1)]),
        ]
        assert greedy_join_order(rule, relations)[0] == 1

    def test_empty_relation_short_circuits(self):
        query = parse_query("(?x, ?y) <- (?x, a, ?z), (?z, b, ?y)")
        rule = query.rules[0]
        relations = [relation_of([(0, 1)]), BinaryRelation(NODES)]
        assert rows(join_rule(rule, relations)) == set()

    def test_boolean_join_returns_unit(self):
        query = parse_query("() <- (?x, a, ?y)")
        rule = query.rules[0]
        assert rows(join_rule(rule, [relation_of([(0, 1)])])) == {()}
        assert rows(join_rule(rule, [BinaryRelation(NODES)])) == set()

    def test_closure_filter_on_empty_table(self):
        """The closure's both-bound filter tolerates 0-row binding tables."""
        from repro.engine.closure import ClosureRelation

        closure = ClosureRelation(relation_of([(0, 1)]), 3)
        empty = np.zeros((0, 3), dtype=np.int64)
        mask = closure.contains_many(empty[:, 0], empty[:, 2])
        assert empty[mask].shape == (0, 3)

    def test_closure_filter_matches_per_row_membership(self):
        """Component-level both-bound filter == per-row ``in`` on a closure."""
        from repro.engine.closure import ClosureRelation

        rng = np.random.default_rng(0)
        base = rng.integers(0, 30, size=(80, 2))
        closure = ClosureRelation(
            BinaryRelation.from_arrays(base[:, 0], base[:, 1], 30), 30
        )
        table = rng.integers(0, 30, size=(200, 3)).astype(np.int64)
        out = table[closure.contains_many(table[:, 0], table[:, 2])]
        reach = pairs(closure)
        expected = [row for row in table.tolist() if (row[0], row[2]) in reach]
        assert out.tolist() == expected

    @pytest.mark.parametrize(
        "text",
        [
            "(?x, ?y) <- (?x, a, ?z), (?z, b, ?y)",  # closure source bound
            "(?x, ?y) <- (?x, a, ?z), (?y, b, ?z)",  # closure target bound
            "(?x, ?y) <- (?x, a, ?y), (?x, b, ?y)",  # both bound
            "(?x, ?y) <- (?x, b, ?y)",  # nothing bound
            "(?x) <- (?x, a, ?y), (?x, b, ?x)",  # bound self-loop
            "(?x) <- (?x, b, ?x)",  # unbound self-loop
        ],
    )
    def test_closure_joins_like_its_materialisation(self, text):
        """Every binding case of a closure conjunct goes through the one
        extension kernel and agrees with the materialised pair set."""
        from repro.engine.closure import ClosureRelation

        rule = parse_query(text).rules[0]
        rel_a = relation_of([(0, 1), (1, 2), (2, 2), (3, 0), (5, 4)])
        closure = ClosureRelation(
            relation_of([(1, 0), (0, 3), (3, 1), (2, 4), (4, 5)]), 7
        )
        pair_set = materialised(closure)
        assert len(closure) == len(pair_set)

        def joined(rel_b):
            return join_rule(rule, [
                rel_a if "a" in c.regex.predicates else rel_b for c in rule.body
            ])

        assert joined(closure) == joined(pair_set)


class TestBudget:
    def test_timeout_check(self):
        budget = EvaluationBudget(timeout_seconds=0.0).start()
        import time

        time.sleep(0.01)
        with pytest.raises(EngineBudgetExceeded):
            budget.check_time()

    def test_row_check(self):
        budget = EvaluationBudget(max_rows=10).start()
        budget.check_rows(10)
        with pytest.raises(EngineBudgetExceeded):
            budget.check_rows(11)

    def test_unlimited_never_trips(self):
        budget = unlimited()
        budget.check_time()
        budget.check_rows(10**12)

    def test_error_carries_elapsed(self):
        budget = EvaluationBudget(timeout_seconds=0.0).start()
        import time

        time.sleep(0.01)
        with pytest.raises(EngineBudgetExceeded) as info:
            budget.check_time()
        assert info.value.elapsed_seconds > 0
