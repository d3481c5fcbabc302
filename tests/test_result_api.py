"""Columnar result-API tests: ResultSet, engine parity, Registry, counts.

The pillars of the columnar result API are pinned here:

* **ResultSet semantics** — unit tests of the columnar representations
  (0/1/2/k-ary), the sorted-key set algebra, and the columns-only
  surface (no iteration, no membership, equality between results only);
* **engine parity** — a property suite asserting every registered
  engine's ``ResultSet`` rows equal the seed-era ``set[tuple]``
  answers, oracled by an independent pure-Python relational evaluator
  on random graphs × regexes (plus generated workloads on a scenario
  instance);
* **the registries** every extension point resolves through;
* **the aggregate boundary** — ``count_distinct`` must resolve
  array-side: probes on the tuple constructor and the row serialiser
  assert no engine's count path ever builds a Python tuple.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles.reference_bfs import ReferenceSparqlEngine
from oracles.tuples import rows as row_set
from repro.engine import ENGINES, ResultSet, count_distinct, evaluate_query
from repro.errors import EngineError, TranslationError
from repro.generation.generator import generate_graph
from repro.generation.graph import LabeledGraph
from repro.generation.writers import GRAPH_WRITERS
from repro.queries.ast import (
    PathExpression,
    RegularExpression,
    binary_path_query,
    is_inverse,
    symbol_base,
)
from repro.queries.generator import generate_workload
from repro.queries.parser import parse_query
from repro.queries.size import QuerySize
from repro.queries.workload import WorkloadConfiguration
from repro.registry import Registry
from repro.scenarios import SCENARIOS
from repro.schema.config import GraphConfiguration
from repro.schema.constraints import proportion
from repro.schema.distributions import GaussianDistribution, ZipfianDistribution
from repro.schema.schema import GraphSchema
from repro.translate import TRANSLATORS


# ---------------------------------------------------------------------------
# ResultSet units
# ---------------------------------------------------------------------------


class TestResultSetConstruction:
    def test_from_tuples_canonicalises(self):
        rs = ResultSet.from_rows([(3, 1), (0, 2), (3, 1)])
        assert rs.arity == 2
        assert rs.count() == 2 == len(rs)
        sources, targets = rs.arrays()
        assert sources.tolist() == [0, 3] and targets.tolist() == [2, 1]

    def test_from_keys_zero_copy(self):
        keys = np.array([(1 << 32) | 5, (2 << 32) | 7], dtype=np.int64)
        rs = ResultSet.from_keys(keys)
        assert rs.key_array is keys
        assert row_set(rs) == {(1, 5), (2, 7)}

    def test_from_column_and_table(self):
        rs1 = ResultSet.from_column(np.array([4, 1, 4]))
        assert rs1.arity == 1 and row_set(rs1) == {(1,), (4,)}
        rs3 = ResultSet.from_table(
            np.array([[1, 2, 3], [1, 2, 3], [0, 0, 0]])
        )
        assert rs3.arity == 3 and rs3.count() == 2

    @pytest.mark.parametrize("arity", [1, 2, 3])
    def test_from_table_does_not_alias_its_input(self, arity):
        """An already-sorted table is adopted on the fast path; writes to
        the caller's table afterwards must not reach the result."""
        table = np.array([[0], [2], [5]], dtype=np.int64).repeat(arity, axis=1)
        rs = ResultSet.from_table(table)
        table[0, :] = 99
        assert [column.tolist() for column in rs.arrays()] == [[0, 2, 5]] * arity

    def test_unit_and_empty(self):
        assert row_set(ResultSet.unit()) == {()}
        assert bool(ResultSet.unit()) and not bool(ResultSet.empty(2))
        assert ResultSet.empty(1).count() == 0

    def test_arity_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ResultSet.from_rows([(1, 2)], arity=3)

    def test_arrays_are_read_only(self):
        rs = ResultSet.from_rows([(1, 2), (3, 4)])
        for column in rs.arrays():
            with pytest.raises(ValueError):
                column[0] = 9

    def test_relation_round_trip(self):
        from repro.engine.relations import BinaryRelation

        relation = BinaryRelation.from_arrays([5, 1], [6, 2], 7)
        rs = ResultSet.from_relation(relation)
        assert rs.key_array is relation.key_array  # zero-copy
        assert BinaryRelation.from_keys(rs.key_array, 7) == relation


class TestResultSetAlgebra:
    @pytest.mark.parametrize(
        "left, right",
        [
            ([(1, 2), (3, 4)], [(3, 4), (5, 6)]),          # 2-ary
            ([(1,), (3,)], [(3,), (5,)]),                  # 1-ary
            ([(1, 2, 3), (4, 5, 6)], [(4, 5, 6), (7, 8, 9)]),  # 3-ary
        ],
    )
    def test_union_difference_match_set_semantics(self, left, right):
        left_rs, right_rs = ResultSet.from_rows(left), ResultSet.from_rows(right)
        assert row_set(left_rs.union(right_rs)) == set(left) | set(right)
        assert row_set(left_rs.difference(right_rs)) == set(left) - set(right)

    def test_union_of_booleans(self):
        assert ResultSet.unit().union(ResultSet.empty(0)).count() == 1
        assert ResultSet.empty(0).union(ResultSet.empty(0)).count() == 0

    def test_union_with_same_arity_empty_is_identity(self):
        rs = ResultSet.from_rows([(1, 2)])
        assert rs.union(ResultSet.empty(2)) is rs
        assert ResultSet.empty(2).union(rs) is rs

    def test_union_arity_mismatch_raises(self):
        with pytest.raises(ValueError):
            ResultSet.from_rows([(1, 2)]).union(ResultSet.from_rows([(1,)]))
        # ... even when one operand is empty: a silent arity flip in an
        # accumulator would fail far from the bug site.
        with pytest.raises(ValueError):
            ResultSet.empty(2).union(ResultSet.from_rows([(1,)]))
        with pytest.raises(ValueError):
            ResultSet.from_rows([(1, 2)]).difference(ResultSet.empty(1))

    def test_project(self):
        rs = ResultSet.from_rows([(1, 2, 3), (1, 5, 3), (2, 2, 3)])
        assert row_set(rs.project([0])) == {(1,), (2,)}
        assert row_set(rs.project([0, 2])) == {(1, 3), (2, 3)}
        assert rs.project([2, 1, 0]).count() == 3
        assert row_set(rs.project([])) == {()}
        with pytest.raises(ValueError):
            rs.project([3])

    @given(
        rows=st.lists(
            st.tuples(st.integers(0, 7), st.integers(0, 7), st.integers(0, 7)),
            max_size=25,
        ),
        other=st.lists(
            st.tuples(st.integers(0, 7), st.integers(0, 7), st.integers(0, 7)),
            max_size=25,
        ),
    )
    @settings(max_examples=50, deadline=None)
    def test_kary_algebra_matches_sets(self, rows, other):
        """Property: the unique-row kernels agree with Python sets."""
        mine = ResultSet.from_rows(rows, arity=3)
        theirs = ResultSet.from_rows(other, arity=3)
        assert row_set(mine.union(theirs)) == set(rows) | set(other)
        assert row_set(mine.difference(theirs)) == set(rows) - set(other)
        assert row_set(mine.project([1, 2])) == {r[1:] for r in rows}


class TestResultSetIsColumnsOnly:
    """A ResultSet equals only another ResultSet (the guard in
    ``test_misc_units.py`` pins that it is not iterable)."""

    def test_equality_is_columnar(self):
        rs = ResultSet.from_rows([(1, 2), (3, 4)])
        assert rs == ResultSet.from_rows([(3, 4), (1, 2)])
        assert rs != ResultSet.from_rows([(1, 2)])
        assert rs != {(1, 2), (3, 4)}
        assert ResultSet.empty(2) == ResultSet.empty(0)  # empty is empty

    def test_count_distinct_equals_seed_len(self):
        rows = [(1, 2), (1, 2), (3, 4)]
        rs = ResultSet.from_rows(rows)
        assert rs.count() == rs.count_distinct() == len(set(rows))


class TestIterNdjson:
    """The serving wire format: header, row lines, optional abort trailer."""

    @staticmethod
    def _decode(rs, **kwargs):
        lines = "".join(rs.iter_ndjson(**kwargs)).splitlines()
        return json.loads(lines[0]), [json.loads(line) for line in lines[1:]]

    def test_binary_round_trip(self):
        rs = ResultSet.from_rows([(3, 1), (0, 2), (3, 1)])
        header, rows = self._decode(rs)
        assert header == {"record": "result", "arity": 2, "rows": 2,
                          "complete": True}
        assert {tuple(row) for row in rows} == row_set(rs)

    def test_unary_and_kary_shapes(self):
        header, rows = self._decode(ResultSet.from_rows([(5,), (2,)]))
        assert header["arity"] == 1
        assert {tuple(row) for row in rows} == {(5,), (2,)}
        header, rows = self._decode(ResultSet.from_rows([(1, 2, 3), (4, 5, 6)]))
        assert header["arity"] == 3 and header["rows"] == 2
        assert {tuple(row) for row in rows} == {(1, 2, 3), (4, 5, 6)}

    def test_zero_ary_unit(self):
        header, rows = self._decode(ResultSet.unit())
        assert header["arity"] == 0 and header["rows"] == 1
        assert rows == [[]]

    def test_empty_result_is_header_only(self):
        header, rows = self._decode(ResultSet.empty(2))
        assert header["rows"] == 0 and rows == []

    def test_chunking_preserves_rows(self):
        rs = ResultSet.from_rows([(i, i + 1) for i in range(7)])
        chunks = list(rs.iter_ndjson(chunk_rows=2))
        # header + ceil(7/2) row chunks, each chunk holding whole lines
        assert len(chunks) == 1 + 4
        header, rows = self._decode(rs, chunk_rows=2)
        assert header["rows"] == 7 == len(rows)
        assert {tuple(row) for row in rows} == row_set(rs)

    def test_incomplete_result_carries_abort_trailer(self):
        from repro.execution.context import AbortReport

        report = AbortReport(reason="row cap", resource="rows", amount=9)
        rs = ResultSet.from_rows([(1, 2)]).mark_incomplete(report)
        lines = "".join(rs.iter_ndjson()).splitlines()
        header = json.loads(lines[0])
        trailer = json.loads(lines[-1])
        assert header["complete"] is False
        assert trailer["kind"] == "abort"
        restored = AbortReport.from_json(lines[-1])
        assert restored.reason == "row cap" and restored.resource == "rows"
        assert len(lines) == 3  # header + one row + trailer


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_direct_registration_and_lookup(self):
        reg: Registry[int] = Registry("thing")
        reg.register("one", 1)
        assert reg["one"] == 1 and "one" in reg and len(reg) == 1

    def test_named_decorator(self):
        reg: Registry = Registry("fn")

        @reg.register("f")
        def func():
            return 42

        assert reg["f"] is func and func() == 42

    def test_bare_decorator_uses_name_attribute(self):
        reg: Registry = Registry("obj")

        class Thing:
            name = "widget"

        thing = reg.register(Thing())
        assert reg["widget"] is thing

    def test_duplicate_registration_raises(self):
        reg: Registry[int] = Registry("thing")
        reg.register("x", 1)
        with pytest.raises(ValueError, match="duplicate thing key 'x'"):
            reg.register("x", 2)
        reg.register("x", 2, replace=True)
        assert reg["x"] == 2

    def test_unknown_key_error_lists_known_keys(self):
        reg: Registry[int] = Registry("gadget")
        reg.register("alpha", 1)
        reg.register("beta", 2)
        with pytest.raises(KeyError, match=r"unknown gadget 'gamma'") as exc:
            reg["gamma"]
        assert "alpha" in str(exc.value) and "beta" in str(exc.value)

    def test_alias_resolution(self):
        reg: Registry[int] = Registry("thing")
        reg.register("long-name", 7, aliases=("L",))
        assert reg["L"] == 7 and reg.canonical("L") == "long-name"
        assert "L" in reg and "L" not in list(reg)  # not a primary key
        with pytest.raises(ValueError):
            reg.register("L", 8)  # aliases occupy the key space

    def test_custom_error_type(self):
        reg: Registry[int] = Registry("engine", error_type=EngineError)
        with pytest.raises(EngineError):
            reg["nope"]


class TestRegistryWiring:
    """ENGINES, TRANSLATORS, SCENARIOS, and GRAPH_WRITERS all resolve
    through the one Registry type."""

    def test_all_extension_points_are_registries(self):
        for registry in (ENGINES, TRANSLATORS, SCENARIOS, GRAPH_WRITERS):
            assert isinstance(registry, Registry)

    def test_engine_letters_are_aliases(self):
        assert ENGINES.aliases() == {
            "P": "postgres", "S": "sparql", "G": "cypher", "D": "datalog"
        }

    def test_unknown_engine_message(self):
        with pytest.raises(EngineError, match="postgres"):
            ENGINES["neo4j"]

    def test_unknown_dialect_message(self):
        with pytest.raises(TranslationError, match="sparql"):
            TRANSLATORS["gremlin"]

    def test_unknown_scenario_message(self):
        with pytest.raises(KeyError, match="bib"):
            SCENARIOS["tpch"]

    def test_writer_formats(self):
        assert set(GRAPH_WRITERS) == {"edges", "ntriples", "csv"}


# ---------------------------------------------------------------------------
# Engine parity: ResultSet output == seed set[tuple] answers
# ---------------------------------------------------------------------------


def _tiny_schema() -> GraphSchema:
    schema = GraphSchema(name="result-parity")
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


def _symbol_pairs(edges: dict[str, set[tuple[int, int]]], symbol: str):
    base = symbol_base(symbol)
    pairs = edges.get(base, set())
    if is_inverse(symbol):
        return {(target, source) for source, target in pairs}
    return set(pairs)


def _compose_sets(left, right):
    by_source: dict[int, set[int]] = {}
    for source, target in right:
        by_source.setdefault(source, set()).add(target)
    return {
        (a, c) for a, b in left for c in by_source.get(b, ())
    }


def seed_regex_answers(
    n: int, edges: dict[str, set[tuple[int, int]]], regex: RegularExpression
) -> set[tuple[int, int]]:
    """Independent seed-style oracle: pure-Python set-of-tuples UCRPQ
    semantics (compose / union / naive closure), no shared code with
    the columnar engines."""
    total: set[tuple[int, int]] = set()
    for path in regex.disjuncts:
        if path.is_epsilon:
            relation = {(v, v) for v in range(n)}
        else:
            relation = _symbol_pairs(edges, path.symbols[0])
            for symbol in path.symbols[1:]:
                relation = _compose_sets(
                    relation, _symbol_pairs(edges, symbol)
                )
        total |= relation
    if regex.starred:
        closure = {(v, v) for v in range(n)} | total
        while True:
            grown = closure | _compose_sets(closure, total)
            if grown == closure:
                break
            closure = grown
        total = closure
    return total


N = 20
_edges = st.lists(
    st.tuples(st.integers(0, N - 1), st.integers(0, N - 1)),
    min_size=0,
    max_size=45,
)
_symbols = st.sampled_from(["a", "b", "a-", "b-"])
_paths = st.lists(_symbols, min_size=0, max_size=3).map(
    lambda s: PathExpression(tuple(s))
)
_regexes = st.builds(
    RegularExpression,
    st.lists(_paths, min_size=1, max_size=3).map(tuple),
    st.booleans(),
)
# openCypher semantics only coincide with the homomorphic engines when
# no branch can reuse a physical edge: non-starred, one symbol base per
# path (a.a or a.b- could revisit the same edge within a match).
_cypher_safe_paths = st.lists(
    st.sampled_from(["a", "b", "a-", "b-"]), min_size=0, max_size=2
).filter(
    lambda symbols: len({symbol_base(s) for s in symbols}) == len(symbols)
).map(lambda s: PathExpression(tuple(s)))
_cypher_safe_regexes = st.builds(
    RegularExpression,
    st.lists(_cypher_safe_paths, min_size=1, max_size=2).map(tuple),
    st.just(False),
)

HOMOMORPHIC_AND_REFERENCE = ["postgres", "sparql", "datalog", "reference"]


def _engine(name: str):
    if name == "reference":
        return ReferenceSparqlEngine()
    return ENGINES[name]


class TestEveryEngineMatchesSeedAnswers:
    @pytest.mark.parametrize("name", HOMOMORPHIC_AND_REFERENCE)
    @given(a_edges=_edges, b_edges=_edges, regex=_regexes)
    @settings(max_examples=25, deadline=None)
    def test_homomorphic_engines(self, name, a_edges, b_edges, regex):
        """Property: ResultSet rows == the pure-Python seed oracle."""
        graph = _build_graph(N, {"a": a_edges, "b": b_edges})
        expected = seed_regex_answers(
            N, {"a": set(a_edges), "b": set(b_edges)}, regex
        )
        result = _engine(name).evaluate(binary_path_query(regex), graph)
        assert isinstance(result, ResultSet)
        assert row_set(result) == expected, regex.to_text()
        assert result.count() == result.count_distinct() == len(expected)

    @given(a_edges=_edges, b_edges=_edges, regex=_cypher_safe_regexes)
    @settings(max_examples=25, deadline=None)
    def test_cypher_on_reuse_free_patterns(self, a_edges, b_edges, regex):
        """G agrees with the seed answers whenever edge-isomorphism
        cannot bite (no repeated symbol base within a path)."""
        graph = _build_graph(N, {"a": a_edges, "b": b_edges})
        expected = seed_regex_answers(
            N, {"a": set(a_edges), "b": set(b_edges)}, regex
        )
        result = ENGINES["cypher"].evaluate(binary_path_query(regex), graph)
        assert row_set(result) == expected, regex.to_text()


@pytest.fixture(scope="module")
def bib_graph_600():
    from repro.scenarios import bib_schema

    return generate_graph(GraphConfiguration(600, bib_schema()), seed=11)


class TestGeneratedWorkloadParity:
    @given(seed=st.integers(0, 300))
    @settings(
        max_examples=5,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_workload_resultsets_round_trip(self, bib_graph_600, seed):
        """Generated workloads: every registered engine returns a
        ResultSet whose rows are unique and (for the homomorphic
        engines) pairwise equal."""
        workload = generate_workload(
            WorkloadConfiguration(
                bib_graph_600.config,
                size=2,
                recursion_probability=0.2,
                query_size=QuerySize(
                    conjuncts=(1, 2), disjuncts=(1, 2), length=(1, 3)
                ),
            ),
            seed=seed,
        )
        for generated in workload:
            reference = None
            for name in ("postgres", "sparql", "datalog"):
                result = evaluate_query(generated.query, bib_graph_600, name)
                assert isinstance(result, ResultSet)
                as_set = row_set(result)
                assert len(as_set) == result.count() == len(result)
                if reference is None:
                    reference = result
                else:
                    assert result == reference, (
                        name, generated.query.to_text()
                    )


# ---------------------------------------------------------------------------
# The aggregate boundary: counts never materialise tuples
# ---------------------------------------------------------------------------

COUNT_QUERIES = [
    "(?x, ?y) <- (?x, authors, ?y)",
    "(?x, ?y) <- (?x, (authors.publishedIn + authors.extendedTo), ?y)",
    "(?x, ?y) <- (?x, (extendedTo)*, ?y)",
    "(?x) <- (?x, publishedIn, ?y), (?y, heldIn, ?z)",
    "() <- (?x, heldIn, ?y)",
]


class TestCountDistinctIsColumnar:
    @pytest.mark.parametrize("name", sorted(ENGINES))
    def test_no_tuple_materialization_on_count_path(
        self, bib_graph_600, name, monkeypatch
    ):
        """Regression: ``count(distinct ?v)`` resolves via array ops.

        The tuple ways in and out of a result are ``from_rows`` (the one
        tuple constructor) and ``iter_ndjson`` (row serialisation); a
        call to either during ``count_distinct`` is a reintroduced seed
        hot path and fails here.
        """
        expected = [
            count_distinct(parse_query(text), bib_graph_600, name)
            for text in COUNT_QUERIES
        ]

        probes: list[str] = []

        def probe(entry):
            def probed(*args, **kwargs):
                probes.append(entry)
                raise AssertionError(f"{entry} on the count path")

            return probed

        monkeypatch.setattr(ResultSet, "from_rows", probe("from_rows"))
        monkeypatch.setattr(ResultSet, "iter_ndjson", probe("iter_ndjson"))

        counted = [
            count_distinct(parse_query(text), bib_graph_600, name)
            for text in COUNT_QUERIES
        ]
        assert counted == expected
        assert probes == [], f"{name} count path materialised tuples"
