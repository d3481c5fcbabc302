"""Graph instance generation (paper §4, Fig. 5).

:func:`generate_graph` runs the linear-time heuristic generation
algorithm over a :class:`~repro.schema.GraphConfiguration` and returns a
:class:`LabeledGraph`; the writers serialise instances to N-triples and
edge-list formats for external systems.
"""

from repro.generation.graph import LabeledGraph, GraphStatistics
from repro.generation.generator import (
    generate_graph,
    generate_edge_stream,
    GraphGenerator,
)
from repro.generation.degree_sequences import (
    sample_source_vector,
    sample_target_vector,
)
from repro.generation.writers import (
    GRAPH_WRITERS,
    write_graph,
    write_ntriples,
    write_edge_list,
    write_csv_tables,
)

__all__ = [
    "GRAPH_WRITERS",
    "write_graph",
    "LabeledGraph",
    "GraphStatistics",
    "generate_graph",
    "generate_edge_stream",
    "GraphGenerator",
    "sample_source_vector",
    "sample_target_vector",
    "write_ntriples",
    "write_edge_list",
    "write_csv_tables",
]
