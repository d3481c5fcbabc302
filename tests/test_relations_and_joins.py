"""Tests for binary relations, closures (vs networkx), and rule joins."""

import networkx as nx
import pytest

from repro.engine.budget import EvaluationBudget, unlimited
from repro.engine.joins import greedy_join_order, join_rule, naive_join_order
from repro.engine.relations import BinaryRelation
from repro.errors import EngineBudgetExceeded
from repro.queries.parser import parse_query


class TestBinaryRelation:
    def test_add_and_contains(self):
        relation = BinaryRelation([(1, 2), (1, 2), (2, 3)])
        assert len(relation) == 2
        assert (1, 2) in relation
        assert (2, 1) not in relation

    def test_union(self):
        left = BinaryRelation([(1, 2)])
        right = BinaryRelation([(2, 3), (1, 2)])
        assert left.union(right).pairs() == {(1, 2), (2, 3)}

    def test_inverse_involutive(self):
        relation = BinaryRelation([(1, 2), (3, 4)])
        assert relation.inverse().inverse() == relation

    def test_compose(self):
        left = BinaryRelation([(1, 2), (1, 3)])
        right = BinaryRelation([(2, 4), (3, 4), (3, 5)])
        assert left.compose(right).pairs() == {(1, 4), (1, 5)}

    def test_identity(self):
        assert BinaryRelation.identity([1, 2]).pairs() == {(1, 1), (2, 2)}

    def test_closure_matches_networkx(self):
        edges = [(0, 1), (1, 2), (2, 0), (2, 3), (4, 4)]
        relation = BinaryRelation(edges)
        closure = relation.transitive_closure(nodes=range(6))
        digraph = nx.DiGraph(edges)
        digraph.add_nodes_from(range(6))
        expected = set(nx.transitive_closure(digraph, reflexive=True).edges())
        assert closure.pairs() == expected

    def test_closure_includes_identity_on_given_nodes(self):
        closure = BinaryRelation([(0, 1)]).transitive_closure(nodes=range(3))
        assert (2, 2) in closure

    def test_closure_budget_rows(self):
        # A 40-clique closure has 1600 pairs; cap at 100 must trip.
        relation = BinaryRelation(
            (i, (i + 1) % 40) for i in range(40)
        )
        budget = EvaluationBudget(timeout_seconds=60, max_rows=100).start()
        with pytest.raises(EngineBudgetExceeded):
            relation.transitive_closure(nodes=range(40), budget=budget)

    def test_compose_budget_rows(self):
        left = BinaryRelation((0, i) for i in range(100))
        right = BinaryRelation((i, j) for i in range(100) for j in range(50))
        budget = EvaluationBudget(timeout_seconds=60, max_rows=10).start()
        with pytest.raises(EngineBudgetExceeded):
            left.compose(right, budget)

    def test_from_graph_symbol(self, bib_graph):
        forward = BinaryRelation.from_graph_symbol(bib_graph, "authors")
        backward = BinaryRelation.from_graph_symbol(bib_graph, "authors-")
        assert forward.inverse() == backward

    def test_restrict_sources(self):
        relation = BinaryRelation([(1, 2), (3, 4)])
        assert relation.restrict_sources({1}).pairs() == {(1, 2)}


class TestJoins:
    def brute_force(self, rule, relations):
        """Oracle: enumerate all variable assignments."""
        variables = sorted(rule.variables)
        domains = set()
        for relation in relations:
            for s, t in relation:
                domains.add(s)
                domains.add(t)
        answers = set()

        def assign(index, current):
            if index == len(variables):
                for conjunct, relation in zip(rule.body, relations):
                    pair = (current[conjunct.source], current[conjunct.target])
                    if pair not in relation:
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
        rel_a = BinaryRelation([(0, 1), (1, 2), (2, 2), (3, 0)])
        rel_b = BinaryRelation([(1, 0), (2, 3), (2, 2), (0, 3)])
        relations = [
            rel_a if "a" in c.regex.predicates else rel_b for c in rule.body
        ]
        assert join_rule(rule, relations) == self.brute_force(rule, relations)

    def test_join_orders_agree(self):
        query = parse_query("(?x, ?y) <- (?x, a, ?z), (?z, b, ?w), (?w, c, ?y)")
        rule = query.rules[0]
        relations = [
            BinaryRelation([(i, i + 1) for i in range(20)]),
            BinaryRelation([(i, i + 1) for i in range(5)]),
            BinaryRelation([(i, i + 1) for i in range(10)]),
        ]
        greedy = join_rule(rule, relations, order=greedy_join_order(rule, relations))
        naive = join_rule(rule, relations, order=naive_join_order(rule, relations))
        assert greedy == naive

    def test_greedy_order_starts_with_smallest(self):
        query = parse_query("(?x, ?y) <- (?x, a, ?z), (?z, b, ?y)")
        rule = query.rules[0]
        relations = [
            BinaryRelation([(i, i) for i in range(50)]),
            BinaryRelation([(0, 1)]),
        ]
        assert greedy_join_order(rule, relations)[0] == 1

    def test_empty_relation_short_circuits(self):
        query = parse_query("(?x, ?y) <- (?x, a, ?z), (?z, b, ?y)")
        rule = query.rules[0]
        relations = [BinaryRelation([(0, 1)]), BinaryRelation()]
        assert join_rule(rule, relations) == set()

    def test_boolean_join_returns_unit(self):
        query = parse_query("() <- (?x, a, ?y)")
        rule = query.rules[0]
        assert join_rule(rule, [BinaryRelation([(0, 1)])]) == {()}
        assert join_rule(rule, [BinaryRelation()]) == set()

    def test_closure_filter_on_empty_table(self):
        """The closure's both-bound filter tolerates 0-row binding tables."""
        import numpy as np

        from repro.engine.closure import ClosureRelation

        closure = ClosureRelation(BinaryRelation({(0, 1)}), 3)
        empty = np.zeros((0, 3), dtype=np.int64)
        mask = closure.contains_many(empty[:, 0], empty[:, 2])
        assert empty[mask].shape == (0, 3)

    def test_closure_filter_matches_per_row_membership(self):
        """Component-level both-bound filter == per-row ``in`` on a closure."""
        import numpy as np

        from repro.engine.closure import ClosureRelation

        rng = np.random.default_rng(0)
        pairs = {(int(a), int(b)) for a, b in rng.integers(0, 30, size=(80, 2))}
        closure = ClosureRelation(BinaryRelation(pairs), 30)
        table = rng.integers(0, 30, size=(200, 3)).astype(np.int64)
        out = table[closure.contains_many(table[:, 0], table[:, 2])]
        expected = [
            row for row in table.tolist() if (row[0], row[2]) in closure
        ]
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
        rel_a = BinaryRelation([(0, 1), (1, 2), (2, 2), (3, 0), (5, 4)])
        closure = ClosureRelation(
            BinaryRelation([(1, 0), (0, 3), (3, 1), (2, 4), (4, 5)]), 7
        )
        materialised = BinaryRelation(closure.pairs())
        assert len(closure) == len(materialised)

        def joined(rel_b):
            return join_rule(rule, [
                rel_a if "a" in c.regex.predicates else rel_b for c in rule.body
            ])

        assert joined(closure) == joined(materialised)


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
