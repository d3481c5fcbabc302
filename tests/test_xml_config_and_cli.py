"""Tests for XML configuration round-trips, writers, and the CLI."""

import os

import numpy as np
import pytest

from repro.cli import main
from repro.config.xml_io import (
    graph_config_from_xml,
    graph_config_to_xml,
    workload_config_from_xml,
    workload_config_to_xml,
)
from repro.errors import ConfigurationError
from oracles.reference_writers import iter_ntriples, read_edge_list
from repro.generation.writers import (
    write_csv_tables,
    write_edge_list,
    write_ntriples,
)
from repro.queries.shapes import QueryShape
from repro.queries.size import QuerySize
from repro.queries.workload import WorkloadConfiguration
from repro.schema.config import GraphConfiguration
from repro.selectivity.types import SelectivityClass


class TestGraphConfigXml:
    def test_round_trip_preserves_schema(self, bib_config):
        xml = graph_config_to_xml(bib_config)
        restored = graph_config_from_xml(xml)
        assert restored.n == bib_config.n
        assert restored.schema.types == bib_config.schema.types
        assert restored.schema.edges == bib_config.schema.edges

    def test_round_trip_example_schema(self, example_schema):
        config = GraphConfiguration(500, example_schema)
        restored = graph_config_from_xml(graph_config_to_xml(config))
        assert restored.schema.edges == example_schema.edges

    def test_wrong_root_rejected(self):
        with pytest.raises(ConfigurationError):
            graph_config_from_xml("<nope/>")

    def test_missing_nodes_rejected(self, bib_config):
        xml = graph_config_to_xml(bib_config).replace('nodes="1000" ', "")
        with pytest.raises(ConfigurationError):
            graph_config_from_xml(xml)

    def test_type_without_constraint_rejected(self):
        xml = (
            "<graph-configuration nodes='10'><types>"
            "<type name='X'/></types></graph-configuration>"
        )
        with pytest.raises(ConfigurationError):
            graph_config_from_xml(xml)


class TestWorkloadConfigXml:
    def test_round_trip(self, bib_config):
        config = WorkloadConfiguration(
            bib_config,
            size=42,
            arities=(0, 2),
            shapes=(QueryShape.CHAIN, QueryShape.STAR),
            selectivities=(SelectivityClass.LINEAR,),
            recursion_probability=0.25,
            query_size=QuerySize(rules=(1, 2), conjuncts=(2, 3), disjuncts=2, length=(1, 5)),
        )
        restored = workload_config_from_xml(
            workload_config_to_xml(config), bib_config
        )
        assert restored.size == 42
        assert restored.arities == (0, 2)
        assert restored.shapes == (QueryShape.CHAIN, QueryShape.STAR)
        assert restored.selectivities == (SelectivityClass.LINEAR,)
        assert restored.recursion_probability == 0.25
        assert restored.query_size == config.query_size


class TestWriters:
    def test_edge_list_round_trip(self, bib_graph, tmp_path):
        path = tmp_path / "graph.txt"
        written = write_edge_list(bib_graph, path)
        assert written == bib_graph.edge_count
        assert path.read_text(encoding="utf-8") == "".join(
            f"{source} {label} {target}\n"
            for label in bib_graph.labels()
            for source, target in zip(
                *(column.tolist() for column in bib_graph.edge_arrays(label))
            )
        )
        restored = read_edge_list(path, bib_graph.config)
        assert sorted(restored.labels()) == sorted(bib_graph.labels())
        for label in bib_graph.labels():
            assert np.array_equal(restored.edge_keys(label), bib_graph.edge_keys(label))

    def test_ntriples_includes_types_and_edges(self, bib_graph, tmp_path):
        path = tmp_path / "graph.nt"
        written = write_ntriples(bib_graph, path)
        assert written == bib_graph.n + bib_graph.edge_count
        with open(path, encoding="utf-8") as handle:
            triples = list(iter_ntriples(handle))
        assert len(triples) == written
        predicates = {p for _, p, _ in triples}
        assert any(p.endswith("22-rdf-syntax-ns#type") for p in predicates)

    def test_csv_tables_one_per_label(self, bib_graph, tmp_path):
        files = write_csv_tables(bib_graph, tmp_path)
        assert set(files) == set(bib_graph.labels())
        for label, path in files.items():
            with open(path, encoding="utf-8") as handle:
                lines = handle.read().splitlines()
            assert lines[0] == "source,target"
            assert len(lines) - 1 == bib_graph.edge_keys(label).size


class TestCli:
    def test_generate_graph(self, tmp_path, capsys):
        out = tmp_path / "g.txt"
        code = main([
            "generate-graph", "--scenario", "bib", "--nodes", "500",
            "--seed", "1", "--output", str(out),
        ])
        assert code == 0
        assert out.exists()
        assert "nodes" in capsys.readouterr().out

    def test_generate_workload_and_translate(self, tmp_path, capsys):
        wl = tmp_path / "wl.xml"
        assert main([
            "generate-workload", "--scenario", "bib", "--nodes", "500",
            "--seed", "2", "--size", "3", "--output", str(wl),
        ]) == 0
        capsys.readouterr()
        assert main([
            "translate", "--workload", str(wl), "--dialect", "sparql",
        ]) == 0
        out = capsys.readouterr().out
        assert "SELECT DISTINCT" in out

    def test_evaluate(self, capsys):
        assert main([
            "evaluate", "--scenario", "bib", "--nodes", "300", "--seed", "1",
            "--query", "(?x, ?y) <- (?x, publishedIn, ?y)",
        ]) == 0
        assert capsys.readouterr().out.strip().isdigit()

    def test_export_config_round_trips(self, capsys):
        assert main(["export-config", "--scenario", "wd", "--nodes", "1000"]) == 0
        xml = capsys.readouterr().out
        restored = graph_config_from_xml(xml)
        assert restored.schema.name == "wd"

    def test_config_file_input(self, tmp_path, capsys, bib_config):
        config_path = tmp_path / "bib.xml"
        config_path.write_text(graph_config_to_xml(bib_config), encoding="utf-8")
        out = tmp_path / "g.txt"
        assert main([
            "generate-graph", "--config", str(config_path),
            "--seed", "3", "--output", str(out), "--format", "ntriples",
        ]) == 0
        assert out.exists()

    def test_scenario_without_nodes_fails(self):
        with pytest.raises(SystemExit):
            main(["generate-graph", "--scenario", "bib", "--output", "x.txt"])
