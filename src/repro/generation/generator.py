"""The linear-time graph generation algorithm (paper §4, Fig. 5).

For each edge constraint ``eta(T1, T2, a) = (D_in, D_out)`` the
algorithm:

1. builds ``v_src`` by repeating each node index of ``T1`` according to
   a draw from ``D_out`` (lines 2–4);
2. builds ``v_trg`` symmetrically from ``D_in`` (lines 5–6);
3. shuffles both vectors (line 7);
4. zips them up to the shorter length and emits one ``a``-labelled edge
   per position (lines 8–9), translating per-type indices to global node
   ids via ``id_T``.

The truncation in step 4 is the paper's deliberate relaxation: it keeps
generation linear and never aborts, at the price of not always matching
the exact distribution parameters (the *types* of the distributions are
preserved, which is what the selectivity machinery needs).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.generation.degree_sequences import (
    fill_unspecified,
    repeat_by_degree,
    sample_source_vector,
    sample_target_vector,
)
from repro.execution.faults import FAULTS, fault_point
from repro.generation.graph import LabeledGraph
from repro.observability.metrics import timed_stage
from repro.observability.trace import TRACER
from repro.rng import ensure_rng
from repro.schema.config import GraphConfiguration
from repro.schema.distributions import ZipfianDistribution
from repro.schema.schema import EdgeConstraint

_FP_BATCH = fault_point("generation.batch")


@dataclass
class GraphGenerator:
    """Configurable generator; see :func:`generate_graph` for the shortcut.

    Parameters
    ----------
    use_gaussian_fast_path:
        Enable the §4 optimisation that avoids materialising degree
        vectors for Gaussian sides.  Exposed so the ablation benchmark
        can measure its effect; results are distributionally equivalent.

    Each constraint's batch is bulk-inserted in one packed sort +
    adjacent-mask merge, which collapses the duplicate (source, label,
    target) triples Fig. 5 can emit (queries evaluate under set
    semantics).
    """

    use_gaussian_fast_path: bool = True

    def generate(
        self,
        config: GraphConfiguration,
        seed: int | np.random.Generator | None = None,
        budget=None,
    ) -> LabeledGraph:
        """Run Fig. 5 over every edge constraint of the configuration.

        ``budget`` (a :class:`~repro.execution.budget.ResourceBudget`)
        is checked once per constraint batch — the generator's natural
        yield point — so long generations honour deadlines, cooperative
        cancellation, and the live-memory cap (charged with the graph's
        columnar ``nbytes``).
        """
        rng = ensure_rng(seed)
        graph = LabeledGraph(config)
        with timed_stage("generation.graph", nodes=config.total_nodes):
            for constraint in config.schema.edges.values():
                if budget is not None:
                    budget.check_time()
                self._generate_constraint(graph, config, constraint, rng)
                if budget is not None:
                    budget.check_rows(graph.edge_count)
                    budget.check_bytes(graph.nbytes)
        return graph

    def _generate_constraint(
        self,
        graph: LabeledGraph,
        config: GraphConfiguration,
        constraint: EdgeConstraint,
        rng: np.random.Generator,
    ) -> None:
        with TRACER.span(
            "generation.constraint", predicate=constraint.predicate
        ) as span:
            FAULTS.hit(_FP_BATCH)
            batch = self._constraint_arrays(config, constraint, rng)
            if batch is None:
                return
            sources, targets = batch
            if span:
                span.set(edges=int(sources.size))
            graph.add_edges(constraint.predicate, sources, targets)

    def _constraint_arrays(
        self,
        config: GraphConfiguration,
        constraint: EdgeConstraint,
        rng: np.random.Generator,
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """Run Fig. 5 for one constraint; returns (sources, targets)."""
        n_src = config.count_of(constraint.source_type)
        n_trg = config.count_of(constraint.target_type)
        if n_src == 0 or n_trg == 0:
            return None

        out_dist, in_dist = constraint.out_dist, constraint.in_dist
        out_zipf = isinstance(out_dist, ZipfianDistribution)
        in_zipf = isinstance(in_dist, ZipfianDistribution)

        # A Zipfian side facing a non-Zipfian specified side carries no
        # edge budget of its own: it splits the opposite side's budget as
        # power-law *shares* (the Fig. 2(c) reading — "the number of
        # conferences per city follows a Zipfian distribution").  This is
        # what lets hub nodes of fixed-count types absorb a linearly
        # growing edge volume, realising the (N,>,1)/(1,<,N) classes.
        if out_zipf and in_dist.is_specified() and not in_zipf:
            v_trg = sample_target_vector(
                in_dist, n_trg, rng, self.use_gaussian_fast_path
            )
            degrees = out_dist.sample_degrees_with_total(n_src, len(v_trg), rng)
            v_src = repeat_by_degree(degrees)
        elif in_zipf and out_dist.is_specified() and not out_zipf:
            v_src = sample_source_vector(
                out_dist, n_src, rng, self.use_gaussian_fast_path
            )
            degrees = in_dist.sample_degrees_with_total(n_trg, len(v_src), rng)
            v_trg = repeat_by_degree(degrees)
        else:
            v_src = sample_source_vector(
                out_dist, n_src, rng, self.use_gaussian_fast_path
            )
            v_trg = sample_target_vector(
                in_dist, n_trg, rng, self.use_gaussian_fast_path
            )

        # A non-specified side inherits the other side's edge budget and
        # is filled with uniform node draws (already random, no shuffle
        # needed beyond the specified side's own).
        if v_src is None and v_trg is None:
            return None
        if v_src is None:
            v_src = fill_unspecified(len(v_trg), n_src, rng)
        if v_trg is None:
            v_trg = fill_unspecified(len(v_src), n_trg, rng)

        rng.shuffle(v_src)
        rng.shuffle(v_trg)

        edge_count = min(len(v_src), len(v_trg))
        if edge_count == 0:
            return None
        sources = v_src[:edge_count] + config.ranges[constraint.source_type].start
        targets = v_trg[:edge_count] + config.ranges[constraint.target_type].start
        return sources, targets


def generate_edge_stream(
    config: GraphConfiguration,
    seed: int | np.random.Generator | None = None,
    use_gaussian_fast_path: bool = True,
):
    """Stream ``(label, sources, targets)`` array batches (Fig. 5).

    This is the gMark production mode: edges are emitted constraint by
    constraint without materialising an in-memory graph, which is what
    the Table 3 scalability experiment measures.  Duplicate edges are
    *not* collapsed (the stream consumer — typically a bulk loader —
    deduplicates, exactly as the C++ gMark leaves this to the database).
    """
    rng = ensure_rng(seed)
    generator = GraphGenerator(use_gaussian_fast_path=use_gaussian_fast_path)
    for constraint in config.schema.edges.values():
        batch = generator._constraint_arrays(config, constraint, rng)
        if batch is not None:
            yield (constraint.predicate, batch[0], batch[1])


def generate_graph(
    config: GraphConfiguration,
    seed: int | np.random.Generator | None = None,
    use_gaussian_fast_path: bool = True,
    budget=None,
) -> LabeledGraph:
    """Generate one instance of ``config`` (the Fig. 5 algorithm).

    >>> from repro.scenarios import bib_schema
    >>> from repro.schema import GraphConfiguration
    >>> graph = generate_graph(GraphConfiguration(1000, bib_schema()), seed=0)
    >>> graph.n
    1000
    """
    generator = GraphGenerator(use_gaussian_fast_path=use_gaussian_fast_path)
    return generator.generate(config, seed, budget=budget)
