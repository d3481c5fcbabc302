"""End-to-end integration tests: config → graph → workload → engines.

These exercise the full Fig. 1 workflow, including the selectivity
feedback loop the paper validates in §6.2: queries generated for a
class must *measure* in that class on generated instances.
"""

import pytest

from repro.analysis.experiments import measure_selectivities, stress_workload
from repro.analysis.regression import aggregate_alphas
from repro.config.xml_io import graph_config_from_xml, graph_config_to_xml
from repro.engine import ResultSet, evaluate_query
from repro.generation.generator import generate_graph
from repro.queries.generator import generate_workload
from repro.queries.size import QuerySize
from repro.queries.workload import WorkloadConfiguration
from repro.schema.config import GraphConfiguration
from repro.selectivity.types import SelectivityClass
from repro.translate import TRANSLATORS, workload_from_xml, workload_to_xml

from oracles.tuples import rows


class TestFullWorkflow:
    def test_fig1_pipeline(self, bib, tmp_path):
        """Graph config → instance + workload → XML → four syntaxes."""
        config = GraphConfiguration(800, bib)

        # XML round-trip of the configuration (the declarative input).
        config = graph_config_from_xml(graph_config_to_xml(config))

        graph = generate_graph(config, seed=5)
        assert graph.edge_count > 0

        workload = generate_workload(
            WorkloadConfiguration(config, size=6, recursion_probability=0.3),
            seed=5,
        )
        xml_path = tmp_path / "workload.xml"
        xml_path.write_text(workload_to_xml(workload), encoding="utf-8")
        restored = workload_from_xml(xml_path.read_text(encoding="utf-8"))

        for generated in restored:
            # Translate into every concrete syntax.
            for dialect, translator in TRANSLATORS.items():
                assert translator.translate_query(generated.query).strip()
            # And evaluate on the reference engine: a columnar
            # ResultSet whose rows are unique by construction.
            answers = evaluate_query(generated.query, graph, "datalog")
            assert isinstance(answers, ResultSet)
            assert answers.count_distinct() == len(rows(answers))

    def test_selectivity_loop_closes(self, bib, bib_config):
        """Generated constant/linear/quadratic queries measure with
        clearly separated α on generated instances (the §6.2 claim)."""
        workload = generate_workload(
            WorkloadConfiguration(
                bib_config,
                size=9,
                query_size=QuerySize(conjuncts=(1, 2), disjuncts=1, length=(1, 3)),
            ),
            seed=21,
        )
        graphs = {}
        measurements = measure_selectivities(
            workload, bib, sizes=[1000, 2000, 4000, 8000], seed=3, graphs=graphs
        )
        by_class = {cls: [] for cls in SelectivityClass}
        for measurement in measurements:
            if measurement.generated.selectivity is not None:
                by_class[measurement.generated.selectivity].append(measurement.alpha)

        constant_mean, _ = aggregate_alphas(by_class[SelectivityClass.CONSTANT])
        linear_mean, _ = aggregate_alphas(by_class[SelectivityClass.LINEAR])
        quadratic_mean, _ = aggregate_alphas(by_class[SelectivityClass.QUADRATIC])

        # Class separation (the paper's headline result): constant well
        # below linear, linear well below quadratic.
        assert constant_mean < 0.5
        assert 0.5 < linear_mean < 1.6
        assert quadratic_mean > linear_mean + 0.2

    def test_stress_workload_measurements_are_orderable(self, bib, bib_config):
        workload = stress_workload("Len", bib_config, queries_per_class=2, seed=13)
        measurements = measure_selectivities(
            workload, bib, sizes=[1000, 2000, 4000], seed=1
        )
        assert len(measurements) == 6
        # Larger instances never yield fewer results for monotone classes
        # in aggregate (sanity of the measurement loop, not a theorem —
        # checked in aggregate to tolerate per-query noise).
        total_small = sum(m.counts[0] for m in measurements)
        total_large = sum(m.counts[-1] for m in measurements)
        assert total_large >= total_small

    def test_cross_engine_consistency_on_workload(self, bib):
        """All homomorphic engines agree across a generated workload on
        a generated instance (integration-level repeat of the unit)."""
        config = GraphConfiguration(600, bib)
        graph = generate_graph(config, seed=8)
        workload = generate_workload(
            WorkloadConfiguration(config, size=6, recursion_probability=0.2),
            seed=8,
        )
        for generated in workload:
            reference = evaluate_query(generated.query, graph, "datalog")
            assert evaluate_query(generated.query, graph, "postgres") == reference
            assert evaluate_query(generated.query, graph, "sparql") == reference
