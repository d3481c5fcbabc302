"""Tuple views of columnar objects, for test assertions only."""

import numpy as np

from repro.engine.relations import BinaryRelation
from repro.generation.graph import LabeledGraph


def rows(result) -> set[tuple[int, ...]]:
    """The answer rows of a ``ResultSet`` as a set of tuples."""
    columns = [column.tolist() for column in result.arrays()]
    return set(zip(*columns)) if columns else set([()] * len(result))


def materialised(relation, forward=True, values=None) -> BinaryRelation:
    """The pairs a relation's gather yields, as a ``BinaryRelation``.

    ``(v, partner)`` for every probe value ``v`` (None: the whole node
    domain): the relation itself read forward, its inverse read
    backward.  A closure's pair set is only reachable this way.
    """
    probe_index, partners = relation.gather(values, forward)
    if values is None:
        values = np.arange(relation.node_count, dtype=np.int64)
    return BinaryRelation.from_arrays(
        values[probe_index], partners, relation.node_count
    )


def pairs(relation) -> set[tuple[int, int]]:
    """The (source, target) pairs of a binary or closure relation."""
    if not isinstance(relation, BinaryRelation):
        relation = materialised(relation)
    return set(zip(relation.source_array.tolist(), relation.target_array.tolist()))


def graph_from_triples(config, triples) -> LabeledGraph:
    """A graph holding a list of (source, label, target) triples."""
    graph = LabeledGraph(config)
    for label in dict.fromkeys(label for _, label, _ in triples):
        graph.add_edges(label, *zip(*[(s, t) for s, l, t in triples if l == label]))
    return graph
