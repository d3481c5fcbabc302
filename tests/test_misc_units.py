"""Small-unit coverage: rng plumbing, workload containers, reporting."""

import numpy as np
import pytest

from repro.queries.parser import parse_query
from repro.queries.shapes import QueryShape
from repro.queries.workload import GeneratedQuery, Workload, WorkloadConfiguration
from repro.rng import ensure_rng, spawn
from repro.schema.config import GraphConfiguration
from repro.selectivity.types import SelectivityClass


class TestRng:
    def test_none_gives_generator(self):
        assert isinstance(ensure_rng(None), np.random.Generator)

    def test_int_seed_is_deterministic(self):
        assert ensure_rng(5).integers(0, 100) == ensure_rng(5).integers(0, 100)

    def test_generator_passthrough(self):
        rng = np.random.default_rng(0)
        assert ensure_rng(rng) is rng

    def test_rejects_strings(self):
        with pytest.raises(TypeError):
            ensure_rng("seed")

    def test_spawn_is_deterministic_per_parent(self):
        child_a = spawn(np.random.default_rng(1))
        child_b = spawn(np.random.default_rng(1))
        assert child_a.integers(0, 10**9) == child_b.integers(0, 10**9)

    def test_spawn_children_are_independent(self):
        parent = np.random.default_rng(2)
        first, second = spawn(parent), spawn(parent)
        assert first.integers(0, 10**9) != second.integers(0, 10**9)


class TestWorkloadContainer:
    def _workload(self, bib):
        config = WorkloadConfiguration(GraphConfiguration(500, bib), size=4)
        query = parse_query("(?x, ?y) <- (?x, authors, ?y)")
        recursive = parse_query("(?x, ?y) <- (?x, (authors.authors-)*, ?y)")
        workload = Workload(config)
        workload.queries = [
            GeneratedQuery(query, QueryShape.CHAIN, SelectivityClass.LINEAR, 1),
            GeneratedQuery(recursive, QueryShape.CHAIN, SelectivityClass.QUADRATIC, 2),
            GeneratedQuery(query, QueryShape.STAR, None, None, relaxed=True),
            GeneratedQuery(query, QueryShape.CHAIN, SelectivityClass.LINEAR, 1),
        ]
        return workload

    def test_len_iter_getitem(self, bib):
        workload = self._workload(bib)
        assert len(workload) == 4
        assert workload[1].selectivity is SelectivityClass.QUADRATIC
        assert sum(1 for _ in workload) == 4

    def test_by_selectivity(self, bib):
        workload = self._workload(bib)
        assert len(workload.by_selectivity(SelectivityClass.LINEAR)) == 2
        assert len(workload.by_selectivity(SelectivityClass.CONSTANT)) == 0

    def test_recursive_queries(self, bib):
        workload = self._workload(bib)
        assert len(workload.recursive_queries()) == 1

    def test_repr_mentions_metadata(self, bib):
        generated = self._workload(bib)[2]
        text = repr(generated)
        assert "star" in text and "-" in text


class TestReprs:
    """Reprs are part of the debugging API; keep them informative."""

    def test_schema_repr(self, bib):
        text = repr(bib)
        assert "bib" in text and "types" in text

    def test_config_repr(self, bib_config):
        assert "n=1000" in repr(bib_config)

    def test_graph_repr(self, bib_graph):
        assert "edges" in repr(bib_graph)

    def test_distribution_reprs(self):
        from repro.schema.distributions import (
            GaussianDistribution,
            NON_SPECIFIED,
            UniformDistribution,
            ZipfianDistribution,
        )

        assert repr(UniformDistribution(1, 2)) == "uniform[1,2]"
        assert "mu=3" in repr(GaussianDistribution(3, 1))
        assert "s=2.5" in repr(ZipfianDistribution(2.5, 2))
        assert repr(NON_SPECIFIED) == "non-specified"

    def test_triple_repr_uses_paper_notation(self):
        from repro.selectivity.types import (
            Cardinality,
            Operation,
            SelectivityTriple,
        )

        triple = SelectivityTriple(Cardinality.N, Operation.LT, Cardinality.N)
        assert repr(triple) == "(N,<,N)"


class TestPackaging:
    """The seed oracles are test fixtures (``tests/oracles/``): nothing
    in the installed package exports, registers or imports one."""

    def test_package_ships_only_the_system(self):
        import pathlib
        import re

        import repro
        import repro.engine
        import repro.generation
        import repro.selectivity

        for package in (repro, repro.engine, repro.generation, repro.selectivity):
            leaked = [name for name in package.__all__ if "Reference" in name]
            assert not leaked, (package.__name__, leaked)
        assert set(repro.ENGINES) == {"postgres", "sparql", "cypher", "datalog"}
        assert repro.ENGINES.aliases() == {
            "P": "postgres", "S": "sparql", "G": "cypher", "D": "datalog"
        }
        imports_tests = re.compile(r"^\s*(?:from|import)\s+(?:tests|oracles)\b", re.M)
        offenders = [
            str(path)
            for path in pathlib.Path(repro.__file__).parent.rglob("*.py")
            if imports_tests.search(path.read_text(encoding="utf-8"))
        ]
        assert not offenders, offenders


class TestSetOperationBan:
    """1-D columns become sets through ``repro.columnar.sorted_unique``
    and row matrices through ``columnar.unique_rows`` / ``rows_in``:
    no ``src`` module calls ``np.unique`` (``axis=`` included) or
    NumPy's set routines, which call ``np.unique`` inside."""

    FORBIDDEN = {"unique", "union1d", "isin", "setdiff1d", "intersect1d"}

    def test_no_numpy_set_routine_in_src(self):
        import ast
        import pathlib

        import repro

        def calls(node, where):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield from calls(child, f"{where.split('.')[0]}.{child.name}")
                    continue
                if (
                    isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Attribute)
                    and isinstance(child.func.value, ast.Name)
                    and child.func.value.id in ("np", "numpy")
                ):
                    yield where, child
                yield from calls(child, where)

        forbidden = [
            (where, call.func.attr)
            for path in pathlib.Path(repro.__file__).parent.rglob("*.py")
            for where, call in calls(
                ast.parse(path.read_text(encoding="utf-8")), path.stem
            )
            if call.func.attr in self.FORBIDDEN
        ]
        assert not forbidden, forbidden


class TestColumnsInColumnsOut:
    """Graphs, relations and results are built from columns and read as
    columns: the storage and result modules define no tuple iteration,
    no tuple membership and no set- or tuple-list-returning function."""

    MODULES = (
        "columnar.py",
        "generation/graph.py",
        "engine/resultset.py",
        "engine/relations.py",
        "engine/closure.py",
    )
    TUPLE_RETURNS = ("set[", "list[tuple", "Iterator[tuple")

    def test_no_tuple_surface_in_storage_and_result_modules(self):
        import ast
        import pathlib

        import repro

        root = pathlib.Path(repro.__file__).parent
        offenders = []
        for module in self.MODULES:
            tree = ast.parse((root / module).read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if isinstance(node, ast.ClassDef):
                    offenders += [
                        f"{module}:{node.name}.{item.name}"
                        for item in node.body
                        if isinstance(item, ast.FunctionDef)
                        and item.name in ("__iter__", "__contains__")
                    ]
                if isinstance(node, ast.FunctionDef) and node.returns is not None:
                    returns = ast.unparse(node.returns).strip("'\"")
                    if returns.startswith(self.TUPLE_RETURNS):
                        offenders.append(f"{module}:{node.name} -> {returns}")
        assert not offenders, offenders

    def test_result_set_is_not_a_set(self):
        import collections.abc

        from repro.engine.resultset import ResultSet

        assert not issubclass(ResultSet, collections.abc.Set)
        with pytest.raises(TypeError):
            iter(ResultSet.empty(2))
