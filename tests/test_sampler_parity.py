"""Parity oracle: vectorized batch sampler vs the seed dict sampler.

The vectorized :class:`~repro.selectivity.path_sampler.PathSampler`
must be *indistinguishable* from the retained
:class:`~oracles.reference_sampler.ReferencePathSampler`
except for speed:

* identical ``nb_path`` counts (exact integers below the overflow
  threshold);
* identical valid-path support — every drawn path is a brute-force
  enumerable path, uniformly distributed (chi-square);
* identical relaxation behaviour of ``sample_path_in_range``;
* a loud float64 fallback (instead of wraparound) past int64.

Random schemas are generated from fixed seeds so failures reproduce.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import stats

from oracles.reference_sampler import ReferencePathSampler
from repro.queries.generator import WorkloadGenerator
from repro.queries.shapes import QueryShape
from repro.queries.size import QuerySize
from repro.queries.workload import WorkloadConfiguration
from repro.schema.config import GraphConfiguration
from repro.schema.constraints import fixed, proportion
from repro.schema.distributions import (
    NON_SPECIFIED,
    GaussianDistribution,
    UniformDistribution,
    ZipfianDistribution,
)
from repro.schema.schema import GraphSchema
from repro.selectivity.path_sampler import NbPathOverflowWarning, PathSampler
from repro.selectivity.schema_graph import SchemaGraph


def random_schema(seed: int) -> GraphSchema:
    """A small random schema (types, constraints, and edges drawn)."""
    rng = np.random.default_rng(seed)
    schema = GraphSchema(name=f"random{seed}")
    type_count = int(rng.integers(2, 5))
    names = [f"T{i}" for i in range(type_count)]
    for name in names:
        if rng.random() < 0.25:
            schema.add_type(name, fixed(int(rng.integers(1, 5))))
        else:
            schema.add_type(name, proportion(float(rng.uniform(0.1, 0.6))))

    def distribution(r):
        roll = r.random()
        if roll < 0.3:
            return UniformDistribution(1, int(r.integers(2, 5)))
        if roll < 0.55:
            return GaussianDistribution(float(r.uniform(1, 3)), 0.5)
        if roll < 0.8:
            return ZipfianDistribution(2.5, float(r.uniform(1, 3)))
        return NON_SPECIFIED

    edge_count = int(rng.integers(3, 8))
    for index in range(edge_count):
        source = names[int(rng.integers(0, type_count))]
        target = names[int(rng.integers(0, type_count))]
        in_dist = distribution(rng)
        out_dist = distribution(rng)
        if not in_dist.is_specified() and not out_dist.is_specified():
            out_dist = UniformDistribution(1, 2)
        schema.add_edge(
            source, target, f"p{index}", in_dist=in_dist, out_dist=out_dist
        )
    return schema


def brute_force_paths(graph, start, targets, length):
    """All label paths of exactly ``length`` from ``start`` to ``targets``."""
    paths = []

    def walk(node, symbols):
        if len(symbols) == length:
            if node in targets:
                paths.append(tuple(symbols))
            return
        for symbol, successor in graph.successors(node):
            walk(successor, symbols + [symbol])

    walk(start, [])
    return paths


def brute_force_node_paths(graph, start, targets, length):
    """Full ``(symbols, nodes)`` paths — uniformity is over *these*.

    Two distinct ``G_S`` walks can spell the same label sequence (one
    symbol may step to several successor types), so chi-square tests
    must count node paths, not label strings.
    """
    paths = []

    def walk(node, symbols, nodes):
        if len(symbols) == length:
            if node in targets:
                paths.append((tuple(symbols), tuple(nodes)))
            return
        for symbol, successor in graph.successors(node):
            walk(successor, symbols + [symbol], nodes + [successor])

    walk(start, [], [start])
    return paths


SCHEMA_SEEDS = [1, 2, 3, 5, 8]


class TestCountParity:
    @pytest.mark.parametrize("seed", SCHEMA_SEEDS)
    def test_counts_match_reference_on_random_schemas(self, seed):
        graph = SchemaGraph(random_schema(seed))
        fast = PathSampler(graph)
        oracle = ReferencePathSampler(graph)
        target_sets = [
            graph.nodes,
            [n for n in graph.nodes if n.type_name == graph.nodes[0].type_name],
            graph.start_nodes(),
        ]
        for targets in target_sets:
            for start in graph.nodes:
                for length in range(0, 5):
                    assert fast.count_from(start, targets, length) == (
                        oracle.count_from(start, targets, length)
                    ), (seed, start, length)

    @pytest.mark.parametrize("seed", SCHEMA_SEEDS)
    def test_counts_match_brute_force(self, seed):
        graph = SchemaGraph(random_schema(seed))
        fast = PathSampler(graph)
        targets = set(graph.start_nodes())
        for start in graph.nodes[:6]:
            for length in range(0, 4):
                brute = brute_force_paths(graph, start, targets, length)
                assert fast.count_from(start, list(targets), length) == len(brute)


class TestDrawParity:
    @pytest.mark.parametrize("seed", SCHEMA_SEEDS)
    def test_batch_draws_lie_in_brute_force_support(self, seed):
        graph = SchemaGraph(random_schema(seed))
        fast = PathSampler(graph)
        starts = graph.start_nodes()
        targets = list(graph.nodes)
        rng = np.random.default_rng(seed)
        for length in (1, 2, 3):
            support = {
                path
                for start in starts
                for path in brute_force_paths(graph, start, set(targets), length)
            }
            batch = fast.sample_paths(starts, targets, length, 40, rng)
            if not support:
                assert batch == []
                continue
            assert len(batch) == 40
            for path in batch:
                assert path.symbols in support
                assert path.length == length
                assert path.end in targets
                # Re-walk through G_S to confirm every transition.
                current = path.start
                for symbol, node in zip(path.symbols, path.nodes[1:]):
                    assert (symbol, node) in graph.successors(current)
                    current = node

    @pytest.mark.nightly
    def test_chi_square_uniformity(self, example_schema):
        """Batch draws are uniform over the brute-force path set."""
        graph = SchemaGraph(example_schema)
        fast = PathSampler(graph)
        start = graph.start_node("T1")
        targets = {n for n in graph.nodes if n.type_name == "T2"}
        support = brute_force_node_paths(graph, start, targets, 3)
        assert len(support) >= 3
        draws = 300 * len(support)
        rng = np.random.default_rng(42)
        counts = dict.fromkeys(support, 0)
        batch = fast.sample_paths([start], list(targets), 3, draws, rng)
        assert len(batch) == draws
        for path in batch:
            counts[(path.symbols, path.nodes)] += 1
        _, p_value = stats.chisquare(list(counts.values()))
        assert p_value > 1e-3, dict(counts)

    @pytest.mark.nightly
    def test_chi_square_uniformity_mixed_lengths(self, example_schema):
        """Range draws are uniform over paths of *all* admissible lengths."""
        graph = SchemaGraph(example_schema)
        fast = PathSampler(graph)
        start = graph.start_node("T1")
        targets = {n for n in graph.nodes if n.type_name == "T2"}
        support = []
        for length in (2, 3):
            support.extend(
                brute_force_node_paths(graph, start, targets, length)
            )
        assert len(support) >= 4
        draws = 300 * len(support)
        rng = np.random.default_rng(43)
        counts = dict.fromkeys(support, 0)
        batch = fast.sample_paths_in_range(
            [start], list(targets), 2, 3, draws, rng
        )
        assert len(batch) == draws
        for path in batch:
            counts[(path.symbols, path.nodes)] += 1
        _, p_value = stats.chisquare(list(counts.values()))
        assert p_value > 1e-3, dict(counts)


class TestRelaxationParity:
    def _line_schema(self) -> GraphSchema:
        """A -> B -> C line: start-to-C path lengths have fixed parity."""
        schema = GraphSchema(name="line")
        for name in ("A", "B", "C"):
            schema.add_type(name, proportion(1 / 3))
        schema.add_edge("A", "B", "a",
                        in_dist=UniformDistribution(1, 2),
                        out_dist=UniformDistribution(1, 2))
        schema.add_edge("B", "C", "b",
                        in_dist=UniformDistribution(1, 2),
                        out_dist=UniformDistribution(1, 2))
        return schema

    def test_both_samplers_relax_to_the_same_length(self):
        graph = SchemaGraph(self._line_schema())
        fast = PathSampler(graph)
        oracle = ReferencePathSampler(graph)
        starts = [graph.start_node("A")]
        targets = [n for n in graph.nodes if n.type_name == "C"]
        # A-to-C paths have even length (every odd step must be undone
        # by an inverse), so [3, 3] is infeasible and relaxation must
        # land on length 4 for both samplers.
        assert oracle.sample_path_in_range(starts, targets, 3, 3, 0) is None
        assert fast.sample_path_in_range(starts, targets, 3, 3, 0) is None
        relaxed_fast = fast.sample_path_in_range(
            starts, targets, 3, 3, 0, relax_to=5
        )
        relaxed_oracle = oracle.sample_path_in_range(
            starts, targets, 3, 3, 0, relax_to=5
        )
        assert relaxed_fast is not None and relaxed_oracle is not None
        assert relaxed_fast.length == relaxed_oracle.length == 4

    def test_downward_relaxation(self):
        graph = SchemaGraph(self._line_schema())
        fast = PathSampler(graph)
        oracle = ReferencePathSampler(graph)
        starts = [graph.start_node("A")]
        targets = [n for n in graph.nodes if n.type_name == "C"]
        # [3, 3] with relax_to=3: nothing above fits, so both relax
        # *downwards* to the length-2 paths.
        relaxed_fast = fast.sample_path_in_range(
            starts, targets, 3, 3, 0, relax_to=3
        )
        relaxed_oracle = oracle.sample_path_in_range(
            starts, targets, 3, 3, 0, relax_to=3
        )
        assert relaxed_fast is not None and relaxed_oracle is not None
        assert relaxed_fast.length == relaxed_oracle.length == 2

    @pytest.mark.parametrize("seed", SCHEMA_SEEDS)
    def test_range_feasibility_agrees(self, seed):
        graph = SchemaGraph(random_schema(seed))
        fast = PathSampler(graph)
        oracle = ReferencePathSampler(graph)
        starts = graph.start_nodes()
        rng = np.random.default_rng(seed)
        for _ in range(6):
            lo = int(rng.integers(0, 4))
            hi = lo + int(rng.integers(0, 3))
            targets = [
                n for n in graph.nodes if rng.random() < 0.5
            ] or list(graph.nodes)
            fast_path = fast.sample_path_in_range(starts, targets, lo, hi, rng)
            oracle_path = oracle.sample_path_in_range(
                starts, targets, lo, hi, rng
            )
            assert (fast_path is None) == (oracle_path is None)


class TestTableReuse:
    def test_longer_request_extends_in_place(self, example_schema):
        """The cache-churn fix: one table per target set, grown once."""
        graph = SchemaGraph(example_schema)
        fast = PathSampler(graph)
        targets = list(graph.nodes)
        rows_short = fast.path_counts(targets, 3)
        assert len(fast._tables) == 1
        table = next(iter(fast._tables.values()))
        level_two = table.rows[2]
        rows_long = fast.path_counts(targets, 6)
        # Still one cached table; the old levels are the same arrays.
        assert len(fast._tables) == 1
        assert next(iter(fast._tables.values())) is table
        assert table.rows[2] is level_two
        assert len(rows_long) == 7
        # A shorter request slices the same table.
        again = fast.path_counts(targets, 2)
        assert len(fast._tables) == 1
        assert again[2] is level_two
        assert [r.tolist() for r in rows_short] == [
            r.tolist() for r in rows_long[:4]
        ]


class TestOverflowFallback:
    def _dense_schema(self) -> GraphSchema:
        """One type, six self-loop predicates: 12 symbols per G_S step."""
        schema = GraphSchema(name="dense")
        schema.add_type("T", proportion(1.0))
        for index in range(6):
            schema.add_edge("T", "T", f"p{index}",
                            in_dist=UniformDistribution(1, 2),
                            out_dist=UniformDistribution(1, 2))
        return schema

    def test_int64_overflow_falls_back_to_float64(self):
        graph = SchemaGraph(self._dense_schema())
        fast = PathSampler(graph)
        targets = list(graph.nodes)
        # 12 symbols per step: counts pass 2**63 near level 17.
        with pytest.warns(NbPathOverflowWarning):
            rows = fast.path_counts(targets, 24)
        table = next(iter(fast._tables.values()))
        assert table.overflowed
        assert rows[24].dtype == np.float64
        assert np.all(np.isfinite(rows[24]))
        assert float(rows[24].max()) > float(np.iinfo(np.int64).max)
        # Early levels stay exact int64.
        assert rows[2].dtype == np.int64

    def test_sampling_still_valid_after_overflow(self):
        graph = SchemaGraph(self._dense_schema())
        fast = PathSampler(graph)
        targets = list(graph.nodes)
        starts = graph.start_nodes()
        rng = np.random.default_rng(7)
        with pytest.warns(NbPathOverflowWarning):
            batch = fast.sample_paths(starts, targets, 22, 10, rng)
        assert len(batch) == 10
        for path in batch:
            assert path.length == 22
            current = path.start
            for symbol, node in zip(path.symbols, path.nodes[1:]):
                assert (symbol, node) in graph.successors(current)
                current = node

    @pytest.mark.nightly
    def test_uniform_transitions_at_deep_levels(self):
        """Regression: huge (but in-int64) counts must not collapse draws.

        With counts near 1e17 the old shared-offset cumulative column
        lost float64 resolution for low-level edge weights and the last
        transitions of every walker degenerated to one fixed edge.
        Per-run normalisation keeps each step uniform, so every symbol
        position must see (roughly uniformly) all 12 symbols.
        """
        graph = SchemaGraph(self._dense_schema())
        fast = PathSampler(graph)
        targets = list(graph.nodes)
        starts = graph.start_nodes()
        rng = np.random.default_rng(11)
        length, draws = 16, 600
        batch = fast.sample_paths(starts, targets, length, draws, rng)
        assert len(batch) == draws
        symbol_count = len(graph.symbols)
        for position in range(length):
            seen = {path.symbols[position] for path in batch}
            assert len(seen) == symbol_count, (position, sorted(seen))
        # Chi-square on the deepest (previously degenerate) position.
        counts = dict.fromkeys(graph.symbols, 0)
        for path in batch:
            counts[path.symbols[-1]] += 1
        _, p_value = stats.chisquare(list(counts.values()))
        assert p_value > 1e-4, counts

    def test_reference_sampler_survives_big_counts(self):
        """The seed sampler crashed on > int64 totals; now proportional."""
        graph = SchemaGraph(self._dense_schema())
        oracle = ReferencePathSampler(graph)
        targets = list(graph.nodes)
        starts = graph.start_nodes()
        path = oracle.sample_path(starts, targets, 30, 3)
        assert path is not None and path.length == 30


class TestUnknownNodes:
    def test_unknown_start_matches_reference(self, example_schema):
        """Unknown starts carry zero weight: None, not KeyError."""
        from repro.selectivity.algebra import identity_triple
        from repro.selectivity.schema_graph import SchemaGraphNode
        from repro.selectivity.types import Cardinality

        graph = SchemaGraph(example_schema)
        fast = PathSampler(graph)
        oracle = ReferencePathSampler(graph)
        ghost = SchemaGraphNode(
            "NotAType", identity_triple(Cardinality.ONE)
        )
        targets = list(graph.nodes)
        assert oracle.sample_path([ghost], targets, 2, 0) is None
        assert fast.sample_path([ghost], targets, 2, 0) is None
        # Mixed known/unknown starts behave like the known subset.
        known = graph.start_node("T1")
        path = fast.sample_path([ghost, known], targets, 2, 0)
        assert path is not None and path.start == known


class TestChoiceKernel:
    def test_segments_with_disparate_magnitudes(self):
        """Regression: a huge segment must not erase a tiny one's weights.

        A raw running sum across segments would make segment B's unit
        weights invisible after segment A's 1e20s (1e20 + 1 == 1e20 in
        float64), clamping B's draw to a fixed boundary element; the
        kernel normalises per segment, so both of B's elements must be
        drawn.
        """
        from repro.columnar import segmented_weighted_choice

        weights = np.array([1e20, 1e20, 1.0, 1.0])
        counts = np.array([2, 2])
        rng = np.random.default_rng(0)
        first, second = set(), set()
        for _ in range(200):
            a, b = segmented_weighted_choice(weights, counts, rng)
            first.add(int(a))
            second.add(int(b))
        assert first == {0, 1}
        assert second == {2, 3}


class TestWorkloadDeterminism:
    def test_same_seed_reproduces_the_workload(self, bib):
        config = WorkloadConfiguration(
            GraphConfiguration(2000, bib),
            size=24,
            shapes=(QueryShape.CHAIN, QueryShape.STAR),
            recursion_probability=0.3,
            query_size=QuerySize(conjuncts=(1, 3), disjuncts=(1, 3), length=(1, 4)),
        )
        first = WorkloadGenerator(config, 123).generate()
        second = WorkloadGenerator(config, 123).generate()
        texts_first = [q.query.to_text() for q in first]
        texts_second = [q.query.to_text() for q in second]
        assert texts_first == texts_second
        third = WorkloadGenerator(config, 124).generate()
        assert texts_first != [q.query.to_text() for q in third]
