"""Semi-naive transitive closure: the closure tests' reference oracle.

This is the delta-iteration closure ``BinaryRelation`` carried before
the Datalog engine's :class:`~repro.engine.closure.ClosureRelation`
computed reach level by level over the SCC condensation.  It
materialises every pair, so it is only fit for test-sized graphs; the
parity tests compare the condensed closure (and P's naive fixpoint)
against it, and it is itself checked against networkx.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.columnar import (
    EMPTY_I64,
    keys_difference,
    merge_keys,
    pack_pairs,
    sorted_unique,
    sorted_unique_keys,
    unpack_keys,
)
from repro.engine.budget import EvaluationBudget, unlimited
from repro.engine.relations import BinaryRelation

from oracles.reference_join import expand_join


def transitive_closure(
    relation: BinaryRelation,
    nodes: Iterable[int] | None = None,
    budget: EvaluationBudget | None = None,
) -> BinaryRelation:
    """Reflexive-transitive closure via semi-naive delta iteration.

    ``nodes`` supplies the identity base (Kleene star matches ε on
    *every* node); when omitted only nodes touched by the relation
    are included.  The closure keeps the relation's node domain.  Each round joins only the previous round's *delta*
    against the base relation (vectorized sort-merge), so work is
    proportional to newly discovered pairs.  The budget is charged
    with the accumulated closure every round.
    """
    budget = budget or unlimited()
    base_keys = relation.key_array
    base_sources = relation.source_array
    base_targets = relation.target_array
    if nodes is None:
        touched = sorted_unique(np.concatenate((base_sources, base_targets)))
        identity = pack_pairs(touched, touched) if touched.size else EMPTY_I64
    else:
        ids = sorted_unique(list(nodes))
        identity = pack_pairs(ids, ids)

    closure_keys = merge_keys(identity, base_keys)
    delta_keys = keys_difference(base_keys, identity)
    while delta_keys.size:
        budget.check_time()
        budget.check_rows(closure_keys.size)
        budget.check_bytes(closure_keys.nbytes)
        delta_sources, delta_middles = unpack_keys(delta_keys)
        _, probe_index, build_index = expand_join(
            delta_middles, base_sources, budget.check_rows
        )
        if probe_index.size == 0:
            break
        candidates = sorted_unique_keys(
            delta_sources[probe_index], base_targets[build_index]
        )
        delta_keys = keys_difference(candidates, closure_keys)
        closure_keys = merge_keys(closure_keys, delta_keys)
    return BinaryRelation.from_keys(closure_keys, relation.node_count)
