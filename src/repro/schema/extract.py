"""Schema extraction from graph instances (the paper's §8 outlook).

"we could envision the query workload generation in gMark applied to
real graph data sets on top of which a schema extraction tool has been
run beforehand."

Given a typed :class:`~repro.generation.LabeledGraph`, this module
recovers a :class:`~repro.schema.GraphSchema`: occurrence constraints
per type (proportional by default; a type whose share shrinks across
two instances of different sizes would be fixed — with a single
instance the caller can pin fixed types via ``fixed_types``), one edge
constraint per observed (source type, target type, predicate) triple,
and a fitted degree distribution per side.

Distribution fitting is deliberately simple and transparent:

* all degrees equal, or spanning a tight dense range → **uniform**;
* heavy right tail (max ≫ mean, high skew) → **Zipfian** (exponent via
  a Hill-style tail estimate);
* otherwise → **Gaussian** (sample mean / sample std).
"""

from __future__ import annotations

import numpy as np

from repro.columnar import sorted_unique
from repro.generation.graph import LabeledGraph
from repro.schema.constraints import fixed, proportion
from repro.schema.distributions import (
    Distribution,
    GaussianDistribution,
    UniformDistribution,
    ZipfianDistribution,
)
from repro.schema.schema import GraphSchema

#: Max degree / mean degree ratio beyond which a tail counts as heavy.
HEAVY_TAIL_RATIO = 8.0


def fit_distribution(degrees: np.ndarray) -> Distribution:
    """Fit one of the three supported distributions to a degree sample.

    ``degrees`` are the per-node degrees of the *participating* nodes
    (nodes of the side's type), zeros included.
    """
    degrees = np.asarray(degrees, dtype=np.float64)
    if len(degrees) == 0:
        return UniformDistribution(0, 0)
    lo, hi = int(degrees.min()), int(degrees.max())
    mean = float(degrees.mean())

    if hi == lo:
        return UniformDistribution(lo, hi)
    if hi <= max(3, 2 * lo) and hi - lo <= 3:
        # A narrow dense band: uniform over the observed range.
        return UniformDistribution(lo, hi)
    if mean > 0 and hi / mean >= HEAVY_TAIL_RATIO:
        return ZipfianDistribution(s=_tail_exponent(degrees), mean=max(mean, 1e-6))
    sigma = float(degrees.std())
    return GaussianDistribution(mu=mean, sigma=max(sigma, 1e-6))


def _tail_exponent(degrees: np.ndarray) -> float:
    """Hill-style estimate of the power-law exponent from the top tail."""
    positive = np.sort(degrees[degrees >= 1.0])[::-1]
    k = max(5, len(positive) // 10)
    tail = positive[: min(k, len(positive))]
    if len(tail) < 2 or tail[-1] <= 0:
        return 2.5
    logs = np.log(tail / tail[-1])
    hill = logs[:-1].mean() if len(logs) > 1 else 1.0
    if hill <= 0:
        return 2.5
    # Hill estimator gives 1/(s-1) for the degree law P(k) ∝ k^-s.
    s = 1.0 + 1.0 / hill
    return float(np.clip(s, 1.5, 4.0))


def extract_schema(
    graph: LabeledGraph,
    name: str = "extracted",
    fixed_types: set[str] | None = None,
) -> GraphSchema:
    """Recover a gMark schema from a typed instance.

    ``fixed_types`` marks types whose population should be treated as
    constant (selectivity type ``1``); everything else becomes a
    proportional constraint with its observed share.
    """
    fixed_types = fixed_types or set()
    schema = GraphSchema(name=name)

    total = graph.n
    for type_name, type_range in graph.config.ranges.items():
        if type_name in fixed_types:
            schema.add_type(type_name, fixed(type_range.count))
        else:
            schema.add_type(type_name, proportion(type_range.count / total))

    # Map node ids to type indexes via the contiguous range starts, then
    # group each label's edge columns by (source type, target type)
    # without touching individual triples.
    type_names = list(graph.config.ranges)
    starts = np.asarray(
        [graph.config.ranges[name].start for name in type_names], dtype=np.int64
    )

    grouped: dict[tuple[str, str, str], tuple[np.ndarray, np.ndarray]] = {}
    for label in graph.labels():
        sources, targets = graph.edge_arrays(label)
        source_types = np.searchsorted(starts, sources, side="right") - 1
        target_types = np.searchsorted(starts, targets, side="right") - 1
        pair_ids = source_types * len(type_names) + target_types
        for pair_id in sorted_unique(pair_ids).tolist():
            mask = pair_ids == pair_id
            source_type = type_names[pair_id // len(type_names)]
            target_type = type_names[pair_id % len(type_names)]
            grouped[(source_type, target_type, label)] = (
                sources[mask],
                targets[mask],
            )

    for (source_type, target_type, label), (sources, targets) in sorted(
        grouped.items()
    ):
        source_range = graph.config.ranges[source_type]
        target_range = graph.config.ranges[target_type]
        out_degrees = np.bincount(
            sources - source_range.start, minlength=source_range.count
        )
        in_degrees = np.bincount(
            targets - target_range.start, minlength=target_range.count
        )
        schema.add_edge(
            source_type,
            target_type,
            label,
            in_dist=fit_distribution(in_degrees),
            out_dist=fit_distribution(out_degrees),
        )
    return schema
