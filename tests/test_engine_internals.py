"""White-box tests for individual engine strategies.

Cross-engine agreement is covered in test_engines.py; these tests pin
the *internal* behaviours each engine is modelled on: P's naive
recursion over the packed-key relation algebra, S's product-BFS relation
construction, G's branch expansion and reachability helpers.
"""

import pytest

from repro.engine.algebraic import DatalogLikeEngine
from repro.engine.budget import unlimited
from repro.engine.bfs import SparqlLikeEngine
from repro.engine.isomorphic import CypherLikeEngine, _approximate_labels
from repro.engine.relations import BinaryRelation
from repro.engine.resultset import ResultSet
from repro.engine.sqllike import PostgresLikeEngine
from repro.errors import EngineCapabilityError
from repro.generation.generator import generate_graph
from repro.queries.generator import generate_workload
from repro.queries.parser import parse_query, parse_regex
from repro.queries.shapes import QueryShape
from repro.queries.workload import WorkloadConfiguration
from repro.schema.config import GraphConfiguration

from oracles.reference_closure import transitive_closure
from oracles.reference_isomorphic import _forward_reachable
from oracles.tuples import graph_from_triples, rows
from oracles.tuples import pairs as relation_pairs


class TestSqlPrimitives:
    def test_naive_recursion_matches_reference(self, bib_graph):
        engine = PostgresLikeEngine()
        query = parse_query("(?x, ?y) <- (?x, (publishedIn.publishedIn-)*, ?y)")
        answers = engine.evaluate(query, bib_graph)
        base = BinaryRelation.from_graph_symbol(bib_graph, "publishedIn").compose(
            BinaryRelation.from_graph_symbol(bib_graph, "publishedIn-")
        )
        reference = transitive_closure(base, nodes=range(bib_graph.n))
        assert answers == ResultSet.from_relation(reference)

    @pytest.mark.parametrize("k", [1, 2, 5, 9])
    def test_naive_recursion_rounds_on_a_path(self, bib_config, k, monkeypatch):
        """On the k-edge path 0 -> 1 -> ... -> k, ``(a)*`` starts from the
        identity plus the base and takes k join rounds: k - 1 that add
        the next path length, one that finds nothing new.  Every round
        composes the *whole* accumulated relation (naive, not semi-naive):
        its left side holds the n loops plus every path found so far."""
        graph = graph_from_triples(
            bib_config, [(i, "extendedTo", i + 1) for i in range(k)]
        )
        left_sizes = []
        compose = BinaryRelation.compose

        def counting_compose(left, right, budget=None):
            left_sizes.append(len(left))
            return compose(left, right, budget)

        monkeypatch.setattr(BinaryRelation, "compose", counting_compose)
        answers = PostgresLikeEngine().evaluate(
            parse_query("(?x, ?y) <- (?x, (extendedTo)*, ?y)"), graph
        )
        paths_up_to = [graph.n + sum(k - l + 1 for l in range(1, r + 1))
                       for r in range(1, k + 1)]
        assert left_sizes == paths_up_to
        assert len(answers) == graph.n + k * (k + 1) // 2

    def test_naive_recursion_on_an_empty_base(self, bib_config, monkeypatch):
        """With no ``extendedTo`` edge the base is empty: ``(extendedTo)*``
        is the n loops alone, found after one round that composes them
        with the empty base and adds nothing."""
        graph = graph_from_triples(bib_config, [(0, "publishedIn", 1)])
        left_sizes = []
        compose = BinaryRelation.compose

        def counting_compose(left, right, budget=None):
            left_sizes.append(len(left))
            return compose(left, right, budget)

        monkeypatch.setattr(BinaryRelation, "compose", counting_compose)
        answers = PostgresLikeEngine().evaluate(
            parse_query("(?x, ?y) <- (?x, (extendedTo)*, ?y)"), graph
        )
        assert left_sizes == [graph.n]
        assert answers == ResultSet.from_relation(
            BinaryRelation.identity(graph.n)
        )


class TestPathStep:
    def test_paths_extend_through_the_csr_not_compose(self, bib, monkeypatch):
        """P and D extend every path one symbol at a time through the
        graph's CSR index: a recursion-free workload of all four shapes
        evaluates with ``BinaryRelation.compose`` (kept for P's star
        fixpoint) refusing every call."""
        graph = generate_graph(GraphConfiguration(400, bib), seed=4)
        workload = generate_workload(
            WorkloadConfiguration(
                graph.config,
                size=24,
                shapes=tuple(QueryShape),
                recursion_probability=0.0,
            ),
            seed=4,
        )
        assert {generated.shape for generated in workload} == set(QueryShape)

        def refuse(*args, **kwargs):
            raise AssertionError("a path composed whole relations")

        monkeypatch.setattr(BinaryRelation, "compose", refuse)
        concatenations = 0
        for generated in workload:
            query = generated.query
            assert not query.has_recursion
            concatenations += sum(
                len(path.symbols) > 1
                for rule in query.rules
                for conjunct in rule.body
                for path in conjunct.regex.disjuncts
            )
            postgres = PostgresLikeEngine().evaluate(query, graph, unlimited())
            datalog = DatalogLikeEngine().evaluate(query, graph, unlimited())
            assert postgres == datalog, query.to_text()
        assert concatenations > 0


class TestBfsRelationConstruction:
    def test_regex_relation_matches_algebraic(self, bib_graph):
        engine = SparqlLikeEngine()
        from repro.engine.base import regex_to_relation
        from repro.engine.frontier import SymbolCSRCache

        for text in ("authors", "authors-.authors", "(authors.publishedIn + extendedTo)"):
            regex = parse_regex(text)
            via_bfs = engine.conjunct_relation(
                regex, bib_graph, unlimited(), engine.conjunct_cache(bib_graph)
            )
            cache = SymbolCSRCache(bib_graph)
            via_algebra = regex_to_relation(regex, cache, unlimited())
            assert via_bfs == via_algebra, text

    def test_starred_regex_includes_identity(self, bib_graph):
        engine = SparqlLikeEngine()
        relation = engine.conjunct_relation(
            parse_regex("(authors)*"),
            bib_graph,
            unlimited(),
            engine.conjunct_cache(bib_graph),
        )
        loops = relation_pairs(relation)
        assert all((v, v) in loops for v in range(0, bib_graph.n, 97))


class TestCypherInternals:
    def test_approximate_labels_drops_inverse_and_tails(self):
        regex = parse_regex("(a.b- + c- + eps)*")
        # a.b-: keep first symbol 'a'; c-: strip inverse; eps dropped.
        assert _approximate_labels(regex) == ("a", "c")

    def test_forward_reachable(self, bib_config):
        graph = graph_from_triples(
            bib_config, [(0, "authors", 1), (1, "authors", 2), (3, "authors", 0)]
        )
        reachable = _forward_reachable(0, ("authors",), graph, unlimited())
        assert reachable == {0, 1, 2}

    def test_branch_cap_raises_capability_error(self, bib_graph):
        engine = CypherLikeEngine()
        # 4 conjuncts x 4 disjuncts each = 256 branches > 128 cap.
        disjunction = "(authors + publishedIn + heldIn + extendedTo)"
        body = ", ".join(
            f"(?x{i}, {disjunction}, ?x{i + 1})" for i in range(4)
        )
        query = parse_query(f"(?x0, ?x4) <- {body}")
        with pytest.raises(EngineCapabilityError):
            engine.evaluate(query, bib_graph)

    def test_self_loop_pattern(self, bib_config):
        graph = graph_from_triples(
            bib_config, [(5, "authors", 5), (5, "authors", 6)]
        )
        engine = CypherLikeEngine()
        query = parse_query("(?x) <- (?x, authors, ?x)")
        assert rows(engine.evaluate(query, graph)) == {(5,)}

    def test_isomorphism_blocks_edge_reuse_within_match(self, bib_config):
        """The pattern x -a-> y <-a- x needs two *distinct* edges under
        edge-isomorphism; with a single edge there is no match."""
        graph = graph_from_triples(bib_config, [(1, "authors", 2)])
        engine = CypherLikeEngine()
        query = parse_query("(?x, ?y) <- (?x, authors, ?y), (?x, authors, ?y)")
        assert not engine.evaluate(query, graph)
        # The homomorphic engines happily reuse the edge.
        from repro.engine import evaluate_query

        assert rows(evaluate_query(query, graph, "datalog")) == {(1, 2)}


class TestCountDistinctFastPath:
    def test_fast_path_agrees_with_materialised_count(self, bib_graph):
        from repro.engine.algebraic import DatalogLikeEngine

        engine = DatalogLikeEngine()
        query = parse_query("(?x, ?y) <- (?x, (publishedIn.publishedIn-)*, ?y)")
        assert engine.count_distinct(query, bib_graph) == len(
            engine.evaluate(query, bib_graph)
        )

    def test_fast_path_not_used_for_projected_heads(self, bib_graph):
        """Reversed-head queries must not hit the fast path blindly."""
        from repro.engine.algebraic import DatalogLikeEngine

        engine = DatalogLikeEngine()
        query = parse_query("(?y, ?x) <- (?x, authors.publishedIn, ?y)")
        assert engine.count_distinct(query, bib_graph) == len(
            engine.evaluate(query, bib_graph)
        )
