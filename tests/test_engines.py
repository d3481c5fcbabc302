"""Cross-engine agreement and semantics tests (the §7 substrate).

The three homomorphic engines (P, S, D) must return *identical* answer
sets on every query; the openCypher-like engine (G) may legitimately
differ on queries with repeated predicates or approximated recursion,
but must agree on simple single-use patterns.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine import ENGINES, EvaluationBudget, count_distinct, evaluate_query
from repro.engine.evaluator import engine_by_name
from repro.engine.relations import BinaryRelation
from repro.errors import EngineBudgetExceeded, EngineError
from repro.generation.generator import generate_graph
from repro.queries.generator import generate_workload
from repro.queries.parser import parse_query, parse_regex
from repro.queries.size import QuerySize
from repro.queries.workload import WorkloadConfiguration
from repro.schema.config import GraphConfiguration

from oracles.tuples import rows

HOMOMORPHIC = ["postgres", "sparql", "datalog"]


@pytest.fixture(scope="module")
def graph():
    from repro.scenarios import bib_schema

    return generate_graph(GraphConfiguration(600, bib_schema()), seed=17)


QUERIES = [
    "(?x, ?y) <- (?x, authors, ?y)",
    "(?x, ?y) <- (?x, authors-, ?y)",
    "(?x, ?y) <- (?x, authors.publishedIn, ?y)",
    "(?x, ?y) <- (?x, (authors.publishedIn + authors.extendedTo), ?y)",
    "(?x, ?y) <- (?x, authors, ?z), (?z, publishedIn, ?y)",
    "(?x, ?y) <- (?x, (authors.authors-)*, ?y)",
    "(?x, ?y) <- (?x, publishedIn.heldIn, ?y)\n(?x, ?y) <- (?x, extendedTo, ?y)",
    "() <- (?x, heldIn, ?y)",
    "(?x) <- (?x, publishedIn, ?y), (?y, heldIn, ?z)",
    "(?x, ?y) <- (?x, (publishedIn.publishedIn-)*, ?y)",
]


class TestEngineRegistry:
    def test_four_engines(self):
        assert set(ENGINES) == {"postgres", "sparql", "cypher", "datalog"}

    def test_paper_letters(self):
        assert engine_by_name("P").name == "postgres"
        assert engine_by_name("S").name == "sparql"
        assert engine_by_name("G").name == "cypher"
        assert engine_by_name("D").name == "datalog"

    def test_unknown_engine(self):
        with pytest.raises(EngineError):
            engine_by_name("neo4j")

    def test_homomorphic_flags(self):
        assert not ENGINES["cypher"].homomorphic
        for name in HOMOMORPHIC:
            assert ENGINES[name].homomorphic


def _rule_loop_engines():
    from oracles.reference_bfs import ReferenceSparqlEngine

    return [e for e in ENGINES.values() if e.homomorphic] + [ReferenceSparqlEngine()]


class TestOneRuleLoop:
    """P, S, D and the reference S engine are conjunct strategies over
    :meth:`Engine._evaluate`: spans and partial stashing come with it."""

    QUERY = (
        "(?x, ?y) <- (?x, heldIn, ?z), (?y, heldIn, ?z)\n"
        "(?x, ?y) <- (?x, (extendedTo)*, ?y)"
    )

    @pytest.fixture(scope="class")
    def chain_graph(self):
        """3 ``heldIn`` edges into one node; a 40-node ``extendedTo``
        chain whose closure (120 + 780 pairs) dwarfs rule 1's 9 answers."""
        from repro.generation.graph import LabeledGraph
        from repro.scenarios import bib_schema

        graph = LabeledGraph(GraphConfiguration(120, bib_schema()))
        graph.add_edges("heldIn", [50, 51, 52], [53, 53, 53])
        graph.add_edges("extendedTo", np.arange(39), np.arange(1, 40))
        return graph

    @pytest.mark.parametrize("engine", _rule_loop_engines(), ids=lambda e: e.name)
    def test_one_conjunct_span_per_conjunct(self, engine, chain_graph):
        from repro.observability.trace import TRACER

        with TRACER.recording() as capture:
            engine.evaluate(parse_query(self.QUERY), chain_graph)
        rows = {}
        stack = list(capture.roots)
        while stack:
            span = stack.pop()
            stack.extend(span.children)
            if span.name == "engine.conjunct":
                key = (span.attributes["rule"], span.attributes["conjunct"])
                assert key not in rows
                rows[key] = span.attributes["rows"]
        assert rows == {(0, 0): 3, (0, 1): 3, (1, 0): 120 + 780}

    @pytest.mark.parametrize("engine", _rule_loop_engines(), ids=lambda e: e.name)
    def test_partial_keeps_finished_rules(self, engine, chain_graph):
        from repro.execution import ExecutionContext

        query = parse_query(self.QUERY)
        rule1 = engine.evaluate(parse_query(self.QUERY.split("\n")[0]), chain_graph)
        assert len(rule1) == 9
        ctx = ExecutionContext(max_rows=300, on_budget="partial", degrade=False)
        partial = engine.evaluate(query, chain_graph, ctx)
        assert partial.complete is False
        assert partial == rule1


class TestHomomorphicAgreement:
    @pytest.mark.parametrize("text", QUERIES)
    def test_all_homomorphic_engines_agree(self, graph, text):
        query = parse_query(text)
        results = {
            name: evaluate_query(query, graph, name) for name in HOMOMORPHIC
        }
        reference = results["datalog"]
        for name, result in results.items():
            assert result == reference, name

    def test_count_distinct_matches_evaluate(self, graph):
        for text in QUERIES:
            query = parse_query(text)
            for name in HOMOMORPHIC:
                assert count_distinct(query, graph, name) == len(
                    evaluate_query(query, graph, name)
                ), (name, text)

    @given(seed=st.integers(0, 200))
    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_agreement_on_generated_workloads(self, graph, seed):
        """Property: generated queries get identical answers from P/S/D."""
        workload = generate_workload(
            WorkloadConfiguration(
                graph.config,
                size=3,
                recursion_probability=0.3,
                query_size=QuerySize(conjuncts=(1, 2), disjuncts=(1, 2), length=(1, 3)),
            ),
            seed=seed,
        )
        for generated in workload:
            results = {
                name: evaluate_query(generated.query, graph, name)
                for name in HOMOMORPHIC
            }
            assert results["postgres"] == results["datalog"]
            assert results["sparql"] == results["datalog"]


class _RowRecorder:
    """A budget that records every ``check_rows`` charge and never aborts."""

    def __init__(self):
        self.charges = []

    def check_rows(self, rows):
        self.charges.append(rows)

    def check_time(self):
        pass


class TestPostgresDatalogConjunctParity:
    """On regexes without a star, P's and D's conjunct strategies are the
    same relation algebra: equal relations, and budget aborts on the same
    row caps (the ledger screens its mix by those aborts)."""

    #: Paths of three and four steps, through inverses, where the CSR
    #: path step and a join of whole relations could charge differently.
    LONG_PATHS = [
        "authors-.authors.publishedIn.heldIn",
        "publishedIn-.authors-.authors",
        "heldIn-.publishedIn-.authors-",
    ]
    REGEXES = [
        "authors",
        "authors-",
        "eps",
        "authors-.authors.publishedIn",
        "(authors.publishedIn + eps + heldIn-)",
        *LONG_PATHS,
    ]

    @staticmethod
    def _conjunct(name, text, graph, budget):
        engine = ENGINES[name]
        return engine.conjunct_relation(
            parse_regex(text), graph, budget, engine.conjunct_cache(graph)
        )

    def _aborts(self, name, text, graph, cap):
        budget = EvaluationBudget(timeout_seconds=60, max_rows=cap).start()
        try:
            self._conjunct(name, text, graph, budget)
        except EngineBudgetExceeded:
            return True
        return False

    def _smallest_passing_cap(self, name, text, graph):
        """Bisect the smallest row cap under which ``name`` answers."""
        low, high = 0, EvaluationBudget().max_rows
        assert not self._aborts(name, text, graph, high)
        while low < high:
            middle = (low + high) // 2
            if self._aborts(name, text, graph, middle):
                low = middle + 1
            else:
                high = middle
        return low

    @pytest.mark.parametrize("text", REGEXES)
    def test_equal_relations(self, graph, text):
        postgres = self._conjunct("postgres", text, graph, EvaluationBudget().start())
        datalog = self._conjunct("datalog", text, graph, EvaluationBudget().start())
        assert postgres == datalog and len(datalog) > 0

    @pytest.mark.parametrize("text", REGEXES)
    def test_same_row_caps_abort(self, graph, text):
        # D's smallest passing cap and its neighbours sit on the
        # boundary; the rest sweeps the orders of magnitude.
        low = self._smallest_passing_cap("datalog", text, graph)
        caps = {0, 1, 10, 100, 1_000, 10_000, 100_000, max(low - 1, 0), low, low + 1}
        for cap in sorted(caps):
            assert self._aborts("postgres", text, graph, cap) == self._aborts(
                "datalog", text, graph, cap
            ), (text, cap)

    @pytest.mark.parametrize("text", LONG_PATHS)
    def test_smallest_passing_cap_is_the_largest_raw_step(self, graph, text):
        """A path's row charge is each step's raw join size, before
        deduplication: chaining whole-relation joins over the symbols'
        relations, the largest raw step is D's smallest passing cap."""
        first, *rest = parse_regex(text).disjuncts[0].symbols
        recorder = _RowRecorder()
        relation = BinaryRelation.from_graph_symbol(graph, first)
        for symbol in rest:
            relation = relation.compose(
                BinaryRelation.from_graph_symbol(graph, symbol), recorder
            )
        assert len(recorder.charges) == len(rest) and len(relation) > 0
        assert self._smallest_passing_cap("datalog", text, graph) == max(
            recorder.charges
        )


class TestCypherSemantics:
    def test_agrees_on_single_edge(self, graph):
        query = parse_query("(?x, ?y) <- (?x, authors, ?y)")
        assert evaluate_query(query, graph, "cypher") == evaluate_query(
            query, graph, "datalog"
        )

    def test_isomorphic_semantics_can_differ_on_repeated_predicates(self, graph):
        """a-.a paths may reuse the same edge homomorphically (x == y via
        the same author edge); edge-isomorphism drops those matches."""
        query = parse_query("(?x, ?y) <- (?x, authors-.authors, ?y)")
        homomorphic = evaluate_query(query, graph, "datalog")
        isomorphic = evaluate_query(query, graph, "cypher")
        assert not isomorphic.difference(homomorphic)
        # The diagonal (x, x) pairs require edge reuse: G must drop them.
        diagonal = {pair for pair in rows(homomorphic) if pair[0] == pair[1]}
        assert diagonal and not (diagonal & rows(isomorphic))

    def test_recursion_approximation_differs(self, graph):
        """(authors-.authors)* needs inverse-under-star: G approximates
        and generally returns different (often near-empty) answers."""
        query = parse_query("(?x, ?y) <- (?x, (authors-.authors)*, ?y)")
        homomorphic = evaluate_query(query, graph, "datalog")
        approximated = evaluate_query(query, graph, "cypher")
        assert approximated != homomorphic


class TestBudgets:
    def test_timeout_failure(self, graph):
        query = parse_query("(?x, ?y) <- (?x, (authors.authors-)*, ?y)")
        budget = EvaluationBudget(timeout_seconds=0.0).start()
        with pytest.raises(EngineBudgetExceeded):
            evaluate_query(query, graph, "datalog", budget)

    def test_row_cap_failure(self, graph):
        query = parse_query("(?x, ?y) <- (?x, authors-.authors, ?y)")
        budget = EvaluationBudget(timeout_seconds=60, max_rows=5).start()
        with pytest.raises(EngineBudgetExceeded):
            evaluate_query(query, graph, "postgres", budget)

    @pytest.mark.parametrize(
        "regex, cap",
        [
            ("(extendedTo)*", 649),
            ("(publishedIn.publishedIn-)*", 3258),
            ("(extendedTo + heldIn-)*", 678),
        ],
    )
    def test_postgres_star_abort_boundary(self, graph, regex, cap):
        """P's naive fixpoint passes at its smallest passing row cap and
        aborts one row below it (the ledger screens its mix by these
        aborts); the caps are pinned on this graph."""
        query = parse_query(f"(?x, ?y) <- (?x, {regex}, ?y)")

        def run(max_rows):
            budget = EvaluationBudget(timeout_seconds=60, max_rows=max_rows)
            return evaluate_query(query, graph, "postgres", budget.start())

        with pytest.raises(EngineBudgetExceeded):
            run(cap - 1)
        assert len(run(cap)) > 0

    @pytest.mark.parametrize("name", sorted(ENGINES))
    def test_default_budget_allows_simple_queries(self, graph, name):
        query = parse_query("(?x, ?y) <- (?x, publishedIn, ?y)")
        assert count_distinct(query, graph, name) > 0
