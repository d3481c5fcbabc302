"""Schema-driven selectivity estimation (paper §5.2).

The machinery that lets gMark target *constant*, *linear*, or
*quadratic* queries without ever looking at a generated instance:

* :mod:`~repro.selectivity.types` — cardinality kinds (``1``/``N``),
  the operation set ``{=, <, >, ◇, ×}``, selectivity triples, and the
  three selectivity classes;
* :mod:`~repro.selectivity.algebra` — the Fig. 7 disjunction and
  conjunction tables, the star rule, and triple normalisation;
* :mod:`~repro.selectivity.edge_classes` — base triples for single
  labels, derived from the schema's degree distributions (Example 5.1);
* :mod:`~repro.selectivity.schema_graph` — the schema graph ``G_S``
  (Fig. 8), :mod:`~repro.selectivity.distance` — the distance matrix
  ``D``, :mod:`~repro.selectivity.selectivity_graph` — ``G_sel``
  (Fig. 9);
* :mod:`~repro.selectivity.path_sampler` — matrix ``nb_path``
  saturation and uniform batch path sampling (§5.2.4);
* :mod:`~repro.selectivity.estimator` — selectivity estimation for
  arbitrary binary UCRPQs via the algebra.
"""

from repro.selectivity.types import (
    Cardinality,
    Operation,
    SelectivityTriple,
    SelectivityClass,
)
from repro.selectivity.algebra import (
    disjoin,
    compose,
    star,
    normalise,
    alpha_of_triple,
)
from repro.selectivity.edge_classes import edge_triple, symbol_triples
from repro.selectivity.schema_graph import SchemaGraph, SchemaGraphNode
from repro.selectivity.distance import DistanceMatrix
from repro.selectivity.selectivity_graph import SelectivityGraph
from repro.selectivity.path_sampler import (
    NbPathOverflowWarning,
    PathSampler,
    SampledPath,
)
from repro.selectivity.estimator import SelectivityEstimator

__all__ = [
    "Cardinality",
    "Operation",
    "SelectivityTriple",
    "SelectivityClass",
    "disjoin",
    "compose",
    "star",
    "normalise",
    "alpha_of_triple",
    "edge_triple",
    "symbol_triples",
    "SchemaGraph",
    "SchemaGraphNode",
    "DistanceMatrix",
    "SelectivityGraph",
    "PathSampler",
    "NbPathOverflowWarning",
    "SampledPath",
    "SelectivityEstimator",
]
