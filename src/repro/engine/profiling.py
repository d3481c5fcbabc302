"""Per-query evaluation profiling: estimated vs observed cardinalities.

:func:`profiled_evaluate` runs one evaluation under an isolated trace
recording (:meth:`Tracer.recording`) and assembles an
:class:`~repro.observability.profile.EvaluationProfile`: for every
conjunct of the query it pairs

* the **estimated** cardinality — the selectivity class algebra's
  ``sel_{A,B}`` map (:mod:`repro.selectivity.estimator`) turned into a
  number with the instance's per-type node counts (α=0 type pairs
  contribute 1 answer, α=1 pairs the larger growing endpoint
  population, α=2 pairs the full product), and
* the **observed** cardinality — the row count the engine recorded on
  its ``engine.conjunct`` span, or (for engines that never materialise
  per-conjunct relations, e.g. the binding-table G engine) a frontier
  sweep of the conjunct's regex run under a ``profile.observe`` span.

This estimate/observation pairing is the feedback signal the
estimator-driven planner roadmap item consumes: a conjunct whose
estimate is orders off is where the class algebra disagrees with the
generated instance.
"""

from __future__ import annotations

import time

from repro.engine.budget import EvaluationBudget
from repro.observability.metrics import METRICS
from repro.observability.profile import ConjunctProfile, EvaluationProfile
from repro.observability.trace import TRACER
from repro.queries.ast import Query, RegularExpression
from repro.selectivity.algebra import alpha_of_triple
from repro.selectivity.estimator import SelectivityEstimator
from repro.selectivity.types import Cardinality


def estimate_conjunct_cardinality(
    regex: RegularExpression, graph
) -> float | None:
    """Numeric answer-size estimate of one conjunct on one instance.

    Sums per (source type, target type) pair of the regex's class map:
    α=0 triples are constant (1), α=2 triples the full type-pair
    product, and α=1 triples the larger *growing* endpoint population
    (a fixed-cardinality endpoint contributes a constant factor).
    ``None`` when the graph carries no schema configuration.
    """
    config = getattr(graph, "config", None)
    if config is None or getattr(config, "schema", None) is None:
        return None
    estimator = _estimator_for(config.schema)
    class_map = estimator.regex_map(regex)
    counts = {name: r.count for name, r in config.ranges.items()}
    total = 0.0
    for (source_type, target_type), triple in class_map.items():
        count_src = counts.get(source_type, 0)
        count_trg = counts.get(target_type, 0)
        alpha = alpha_of_triple(triple)
        if alpha == 0:
            total += 1.0
        elif alpha == 2:
            total += float(count_src) * float(count_trg)
        else:
            grow_src = count_src if triple.source is Cardinality.N else 1
            grow_trg = count_trg if triple.target is Cardinality.N else 1
            total += float(max(grow_src, grow_trg))
    return total


#: One estimator per schema object (the estimator memoises class maps).
_ESTIMATORS: dict[int, tuple[object, SelectivityEstimator]] = {}


def _estimator_for(schema) -> SelectivityEstimator:
    entry = _ESTIMATORS.get(id(schema))
    if entry is None or entry[0] is not schema:
        entry = (schema, SelectivityEstimator(schema))
        _ESTIMATORS[id(schema)] = entry
    return entry[1]


def _conjunct_spans(roots) -> dict[tuple[int, int], object]:
    """``(rule, conjunct) -> span`` over a recorded span forest."""
    found: dict[tuple[int, int], object] = {}
    stack = list(roots)
    while stack:
        span = stack.pop()
        if span.name == "engine.conjunct":
            key = (span.attributes.get("rule"), span.attributes.get("conjunct"))
            if None not in key and key not in found:
                found[key] = span
        stack.extend(span.children)
    return found


def _observe_conjunct(regex: RegularExpression, graph) -> tuple[int, float]:
    """Fallback observation: materialise the conjunct's relation once.

    Used for engines whose evaluation never builds per-conjunct
    relations (the binding-table G engine).  One multi-source frontier
    sweep per conjunct, recorded under a ``profile.observe`` span so
    the extra work is visible in the profile rather than silently
    folded into the engine's own numbers.
    """
    from repro.engine.automaton import build_nfa
    from repro.engine.budget import unlimited
    from repro.engine.frontier import frontier_regex_relation

    started = time.perf_counter()
    with TRACER.span("profile.observe") as span:
        relation = frontier_regex_relation(build_nfa(regex), graph, unlimited())
        rows = len(relation)
        if span:
            span.set(rows=rows)
    return rows, time.perf_counter() - started


def profiled_evaluate(
    engine,
    query: Query,
    graph,
    budget: EvaluationBudget | None = None,
) -> EvaluationProfile:
    """Evaluate and return the full :class:`EvaluationProfile`.

    Drives the engine through its *public* ``evaluate`` method, so
    third-party engines that override it directly (without the
    ``_evaluate`` split) profile identically to the built-in four.
    The recording is isolated: the process tracer's enabled flag and
    recorded spans are untouched afterwards.
    """
    engine_name = getattr(engine, "name", type(engine).__name__)
    started = time.perf_counter()
    with TRACER.recording() as capture:
        result = engine.evaluate(query, graph, budget)
    seconds = time.perf_counter() - started

    profile = EvaluationProfile(
        query=query.to_text(),
        engine=engine_name,
        seconds=seconds,
        result=result,
    )
    try:
        profile.answers = int(result.count())
    except (AttributeError, TypeError):
        try:
            profile.answers = len(result)
        except TypeError:
            profile.answers = None

    observed = _conjunct_spans(capture.roots)
    spans = list(capture.roots)
    pending = [
        (rule_index, conjunct_index, conjunct)
        for rule_index, rule in enumerate(query.rules)
        for conjunct_index, conjunct in enumerate(rule.body)
    ]
    fallback: dict[tuple[int, int], tuple[int, float]] = {}
    missing = [item for item in pending if (item[0], item[1]) not in observed]
    if missing:
        # A second, equally isolated recording so the extra sweeps show
        # up in the profile as explicit profile.observe spans.
        with TRACER.recording() as observe_capture:
            for rule_index, conjunct_index, conjunct in missing:
                fallback[(rule_index, conjunct_index)] = _observe_conjunct(
                    conjunct.regex, graph
                )
        spans.extend(observe_capture.roots)

    for rule_index, conjunct_index, conjunct in pending:
        span = observed.get((rule_index, conjunct_index))
        if span is not None:
            rows = int(span.attributes.get("rows", -1))
            duration = span.duration_s
        else:
            rows, duration = fallback[(rule_index, conjunct_index)]
        profile.conjuncts.append(
            ConjunctProfile(
                rule=rule_index,
                conjunct=conjunct_index,
                text=conjunct.to_text(),
                estimated_cardinality=estimate_conjunct_cardinality(
                    conjunct.regex, graph
                ),
                observed_cardinality=rows,
                seconds=duration,
            )
        )

    profile.spans = spans
    profile.metrics = METRICS.snapshot()
    return profile
