"""Tuple views of columnar objects, for test assertions only."""

from repro.engine.budget import unlimited
from repro.engine.closure import ClosureRelation
from repro.generation.graph import LabeledGraph


def rows(result) -> set[tuple[int, ...]]:
    """The answer rows of a ``ResultSet`` as a set of tuples."""
    columns = [column.tolist() for column in result.arrays()]
    return set(zip(*columns)) if columns else set([()] * len(result))


def pairs(relation) -> set[tuple[int, int]]:
    """The (source, target) pairs of a binary or closure relation."""
    if isinstance(relation, ClosureRelation):
        relation = relation.restrict(None, unlimited())
    return set(zip(relation.source_array.tolist(), relation.target_array.tolist()))


def graph_from_triples(config, triples) -> LabeledGraph:
    """A graph holding a list of (source, label, target) triples."""
    graph = LabeledGraph(config)
    for label in dict.fromkeys(label for _, label, _ in triples):
        graph.add_edges(label, *zip(*[(s, t) for s, l, t in triples if l == label]))
    return graph
