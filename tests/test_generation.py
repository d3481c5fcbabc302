"""Tests for the Fig. 5 graph generation algorithm and LabeledGraph."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.generation.degree_sequences import (
    fill_unspecified,
    repeat_by_degree,
    sample_source_vector,
)
from repro.generation.generator import GraphGenerator, generate_graph
from repro.schema.config import GraphConfiguration
from repro.schema.constraints import fixed, proportion
from repro.schema.distributions import (
    GaussianDistribution,
    NON_SPECIFIED,
    UniformDistribution,
)
from repro.schema.schema import GraphSchema


def two_type_schema(in_dist, out_dist) -> GraphSchema:
    schema = GraphSchema()
    schema.add_type("S", proportion(0.5))
    schema.add_type("T", proportion(0.5))
    schema.add_edge("S", "T", "e", in_dist=in_dist, out_dist=out_dist)
    return schema


def edge_types(graph) -> set[tuple[str, str, str]]:
    """The (source type, target type, label) of every edge."""
    return {
        (graph.type_of(source), graph.type_of(target), label)
        for label in graph.labels()
        for source, target in zip(*(c.tolist() for c in graph.edge_arrays(label)))
    }


def same_edges(g1, g2) -> bool:
    """Both graphs hold the same labels with the same key columns."""
    labels = sorted(g1.labels())
    return labels == sorted(g2.labels()) and all(
        np.array_equal(g1.edge_keys(label), g2.edge_keys(label)) for label in labels
    )


class TestDegreeVectors:
    def test_repeat_by_degree(self):
        vector = repeat_by_degree(np.array([2, 0, 1]))
        assert vector.tolist() == [0, 0, 2]

    def test_unspecified_side_returns_none(self):
        assert sample_source_vector(NON_SPECIFIED, 10, np.random.default_rng(0)) is None

    def test_fill_unspecified_length_matches_budget(self):
        vector = fill_unspecified(57, 10, np.random.default_rng(0))
        assert len(vector) == 57
        assert vector.min() >= 0 and vector.max() < 10

    def test_fill_unspecified_empty_cases(self):
        assert len(fill_unspecified(0, 10, np.random.default_rng(0))) == 0
        assert len(fill_unspecified(10, 0, np.random.default_rng(0))) == 0

    def test_gaussian_fast_path_total_close(self):
        dist = GaussianDistribution(4.0, 1.0)
        fast = sample_source_vector(dist, 10_000, np.random.default_rng(1), True)
        slow = sample_source_vector(dist, 10_000, np.random.default_rng(1), False)
        assert abs(len(fast) - len(slow)) / len(slow) < 0.05


class TestGeneration:
    def test_exactly_one_out_edge_per_source(self):
        schema = two_type_schema(NON_SPECIFIED, UniformDistribution(1, 1))
        config = GraphConfiguration(1000, schema)
        graph = generate_graph(config, seed=0)
        degrees = graph.out_degrees("e")[: config.count_of("S")]
        # Every source has exactly one outgoing edge (up to the rare
        # duplicate-collapse when two draws hit the same pair).
        assert degrees.mean() == pytest.approx(1.0, abs=0.02)
        assert degrees.max() == 1

    def test_edges_respect_types(self, example_schema):
        config = GraphConfiguration(600, example_schema)
        graph = generate_graph(config, seed=1)
        assert edge_types(graph) <= set(example_schema.edges)

    def test_seed_determinism(self, bib_config):
        g1 = generate_graph(bib_config, seed=9)
        g2 = generate_graph(bib_config, seed=9)
        assert same_edges(g1, g2)

    def test_different_seeds_differ(self, bib_config):
        g1 = generate_graph(bib_config, seed=1)
        g2 = generate_graph(bib_config, seed=2)
        assert not same_edges(g1, g2)

    def test_zero_macro_generates_nothing(self):
        schema = two_type_schema(NON_SPECIFIED, UniformDistribution(0, 0))
        graph = generate_graph(GraphConfiguration(100, schema), seed=0)
        assert graph.edge_count == 0

    def test_truncation_to_smaller_side(self):
        # Out side wants 5 edges/source (250 total), in side only accepts
        # 1 edge/target (50 total): Fig. 5 truncates to ~50.
        schema = GraphSchema()
        schema.add_type("S", fixed(50))
        schema.add_type("T", fixed(50))
        schema.add_edge(
            "S", "T", "e",
            in_dist=UniformDistribution(1, 1),
            out_dist=UniformDistribution(5, 5),
        )
        graph = generate_graph(GraphConfiguration(100, schema), seed=3)
        assert graph.edge_count <= 50

    def test_gaussian_fast_path_statistics_match(self):
        schema = two_type_schema(
            GaussianDistribution(3.0, 1.0), GaussianDistribution(3.0, 1.0)
        )
        config = GraphConfiguration(2000, schema)
        fast = GraphGenerator(use_gaussian_fast_path=True).generate(config, 5)
        slow = GraphGenerator(use_gaussian_fast_path=False).generate(config, 5)
        assert abs(fast.edge_count - slow.edge_count) / slow.edge_count < 0.1

    def test_statistics(self, bib_graph):
        stats = bib_graph.statistics()
        assert stats.nodes == 1000
        assert stats.edges == bib_graph.edge_count
        assert set(stats.edges_per_label) <= {
            "authors", "publishedIn", "heldIn", "extendedTo"
        }
        assert stats.nodes_per_type["city"] == 100

    @given(n=st.integers(120, 2000), seed=st.integers(0, 10_000))
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_generation_never_fails_and_stays_typed(self, example_schema, n, seed):
        """Fig. 5 never aborts; all edges respect eta (property test)."""
        config = GraphConfiguration(n, example_schema)
        graph = generate_graph(config, seed=seed)
        assert graph.edge_count > 0
        assert edge_types(graph) <= set(example_schema.edges)


class TestLabeledGraph:
    def test_add_edges_deduplicates(self, bib_config):
        from repro.generation.graph import LabeledGraph

        graph = LabeledGraph(bib_config)
        assert graph.add_edges("authors", [1, 1], [2, 2]) == 1
        assert graph.add_edges("authors", [1], [2]) == 0
        assert graph.edge_count == 1

    def test_neighbours_inverse(self, bib_config):
        from repro.generation.graph import LabeledGraph

        graph = LabeledGraph(bib_config)
        graph.add_edges("authors", [1], [2])
        assert graph.neighbours_array(1, "authors").tolist() == [2]
        assert graph.neighbours_array(2, "authors-").tolist() == [1]
        assert graph.neighbours_array(2, "authors").size == 0

    def test_degrees(self, bib_config):
        from repro.generation.graph import LabeledGraph

        graph = LabeledGraph(bib_config)
        graph.add_edges("authors", [1, 1], [2, 3])
        assert graph.out_degree(1, "authors") == 2
        assert graph.in_degree(2, "authors") == 1

    def test_edge_arrays_roundtrip(self, bib_graph):
        from repro.columnar import pack_pairs

        sources, targets = bib_graph.edge_arrays("authors")
        assert len(sources) == len(targets)
        assert np.array_equal(
            pack_pairs(sources, targets), bib_graph.edge_keys("authors")
        )

    def test_nodes_of_type(self, bib_graph):
        cities = bib_graph.nodes_of_type("city")
        assert len(cities) == 100
        assert all(bib_graph.type_of(node) == "city" for node in cities)
