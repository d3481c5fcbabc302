"""Property-style verification of generated instances (§4's contract).

The generator must preserve the *types* of the configured degree
distributions even where truncation distorts exact parameters; the
`verify_instance` checker encodes that contract, and these tests run it
across scenarios, sizes, and seeds.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.generation.generator import generate_graph
from repro.generation.properties import verify_instance
from repro.scenarios import SCENARIOS, scenario_schema
from repro.schema.config import GraphConfiguration


class TestVerifyInstance:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_scenario_instances_satisfy_contract(self, name):
        schema = scenario_schema(name)
        graph = generate_graph(GraphConfiguration(4000, schema), seed=1)
        report = verify_instance(graph)
        assert report.checked_constraints == len(schema.edges)
        assert report.ok, report.violations

    @given(seed=st.integers(0, 300), n=st.integers(500, 6000))
    # 153 single-venue conferences cannot give 100 cities their declared
    # Zipfian mean of 2.0: truncation leaves max 4 on mean 1.32.
    @example(seed=229, n=1628)
    # No truncation, yet the largest of 100 Zipf draws is only 2.8× the
    # mean — a 100-node side is too small a sample for the hub witness.
    @example(seed=144, n=5433)
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_bib_contract_over_seeds(self, bib, seed, n):
        graph = generate_graph(GraphConfiguration(n, bib), seed=seed)
        report = verify_instance(graph)
        assert report.ok, report.violations

    def test_detects_uniform_violation(self, bib_config):
        from repro.generation.graph import LabeledGraph

        graph = LabeledGraph(bib_config)
        # publishedIn is uniform[1,1] on the out side; give one paper
        # three venues to violate the contract.
        paper = bib_config.ranges["paper"].start
        conference = bib_config.ranges["conference"].start
        graph.add_edges(
            "publishedIn", [paper] * 3, [conference + offset for offset in range(3)]
        )
        report = verify_instance(graph)
        assert not report.ok
        assert any("uniform max" in violation for violation in report.violations)

    def test_detects_missing_zipf_hub(self, bib_config):
        from repro.generation.graph import LabeledGraph

        graph = LabeledGraph(bib_config)
        # authors must be Zipfian on the out side; a perfectly regular
        # 1-edge-per-researcher pattern has no hub.
        researchers = bib_config.ranges["researcher"]
        papers = bib_config.ranges["paper"]
        index = np.arange(researchers.count)
        graph.add_edges(
            "authors", researchers.start + index, papers.start + index % papers.count
        )
        report = verify_instance(graph)
        assert any("no hub" in violation for violation in report.violations)

    def test_zipf_hub_present_in_real_instances(self, bib_graph):
        degrees = bib_graph.out_degrees("authors")
        researchers = bib_graph.config.ranges["researcher"]
        sample = degrees[researchers.start : researchers.stop]
        assert sample.max() >= 4.0 * sample.mean()

    def test_fixed_city_count_exact(self, bib_graph):
        assert bib_graph.config.count_of("city") == 100
