"""Query workload generation (paper Fig. 6 + §5.2.4).

For every query the generator:

1. draws a *skeleton* for the requested shape and conjunct count
   (Fig. 6 line 2);
2. picks projection variables consistent with the arity constraint
   (line 3);
3. instantiates the placeholders with regular expressions that satisfy
   the recursion probability and the size constraints (line 4) — and,
   for binary queries, the requested selectivity class, by threading a
   schema-graph path through the skeleton's chain and cutting it into
   per-conjunct segments (Example 5.4–5.6).

Generation is heuristic, mirroring the paper: when a placeholder cannot
be filled at the drawn lengths, the path length is relaxed *before*
selectivity is compromised, and the generator never aborts.  Each
produced query records the algebra's estimated α so callers can see
when relaxation moved a query off its target class.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import GenerationError
from repro.execution.faults import FAULTS, fault_point
from repro.observability.log import get_logger
from repro.observability.metrics import METRICS, timed_stage
from repro.observability.trace import TRACER
from repro.queries.ast import (
    Conjunct,
    PathExpression,
    Query,
    QueryRule,
    RegularExpression,
)
from repro.queries.shapes import QueryShape, Skeleton, build_skeleton
from repro.queries.workload import (
    GeneratedQuery,
    Workload,
    WorkloadConfiguration,
)
from repro.rng import ensure_rng
from repro.selectivity.algebra import alpha_of_triple
from repro.selectivity.estimator import SelectivityEstimator
from repro.selectivity.path_sampler import PathSampler, SampledPath
from repro.selectivity.schema_graph import SchemaGraph
from repro.selectivity.selectivity_graph import SelectivityGraph
from repro.selectivity.types import SelectivityClass

#: Retries before accepting a query whose estimated class missed target.
_MAX_ATTEMPTS = 10

_log = get_logger("queries.generator")
_POOL_REFILLS = METRICS.counter("workload.pool_refills")
_POOL_INFEASIBLE = METRICS.counter("workload.pool_infeasible")
_RETRIES = METRICS.counter("workload.retries")
_RELAXED = METRICS.counter("workload.relaxed")

#: Extra length budget the sampler may use when relaxing (§5.2.4).
_RELAX_MARGIN = 3

#: Pre-drawn path pool refill sizes: a key's first refill draws a small
#: batch and each refill doubles up to the cap, so hot keys (one per
#: shape/selectivity combination) amortise to one vectorized draw per
#: ~retry budget while rarely-hit keys waste almost nothing.
_POOL_BATCH_MIN = 4
_POOL_BATCH_MAX = 128

_FP_REFILL = fault_point("sampler.refill")


@dataclass
class _ConjunctPlan:
    """Instantiation plan for one skeleton conjunct."""

    starred: bool
    segment: SampledPath | None = None  # main-path segment (non-star)
    loop_type: str | None = None  # loop anchor type (star)


class WorkloadGenerator:
    """Generates a :class:`Workload` from a workload configuration."""

    def __init__(
        self,
        configuration: WorkloadConfiguration,
        seed: int | np.random.Generator | None = None,
    ):
        self.configuration = configuration
        self.schema = configuration.graph.schema
        self.rng = ensure_rng(seed)
        self.schema_graph = SchemaGraph(self.schema)
        self.sampler = PathSampler(self.schema_graph)
        self.estimator = SelectivityEstimator(self.schema)
        size = configuration.query_size
        self.selectivity_graph = SelectivityGraph(
            self.schema_graph, size.length.lo, size.length.hi
        )
        self._all_nodes = list(self.schema_graph.nodes)
        self._all_ids = np.arange(len(self.schema_graph), dtype=np.int64)
        self._start_ids = self.schema_graph.start_ids()
        self._start_id_by_type: dict[str, np.ndarray] = {}
        self._class_target_cache: dict[int, np.ndarray] = {}
        # Pre-drawn path pools: key -> [paths, next_refill_size] (paths
        # consumed from the end) or None once a key is known infeasible.
        # Feasibility is a property of the (starts, targets, lengths)
        # key alone, so an infeasible key stays infeasible for the
        # whole generation.
        self._pools: dict[tuple, list | None] = {}
        # Block-drawn interval samples (i.i.d., consumed from the end).
        self._interval_draws: dict[tuple[int, int], list[int]] = {}
        self._singleton_ids: dict[int, np.ndarray] = {}

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def generate(self, budget=None) -> Workload:
        """Generate the full workload (Fig. 6's outer loop).

        ``budget`` (a :class:`~repro.execution.budget.ResourceBudget`)
        is checked once per query — the generator's natural yield point
        for deadlines and cooperative cancellation.
        """
        workload = Workload(self.configuration)
        combos = self._combination_cycle()
        with timed_stage("workload.generate", size=self.configuration.size):
            for index in range(self.configuration.size):
                if budget is not None:
                    budget.check_time()
                arity, shape, selectivity = combos[index % len(combos)]
                workload.queries.append(
                    self.generate_query(shape, selectivity, arity)
                )
        return workload

    def generate_query(
        self,
        shape: QueryShape,
        selectivity: SelectivityClass | None,
        arity: int = 2,
    ) -> GeneratedQuery:
        """Generate one query targeting ``selectivity`` (None = uncontrolled)."""
        controlled = selectivity is not None and arity == 2
        best: GeneratedQuery | None = None
        attempts = _MAX_ATTEMPTS if controlled else 1
        with TRACER.span(
            "workload.query",
            shape=shape.value,
            selectivity=getattr(selectivity, "value", None),
            arity=arity,
        ) as span:
            for attempt in range(attempts):
                if attempt:
                    _RETRIES.inc()
                candidate = self._attempt_query(shape, selectivity, arity)
                if candidate is None:
                    continue
                if not controlled:
                    return candidate
                if candidate.estimated_alpha == selectivity.alpha:
                    if span:
                        span.set(attempts=attempt + 1)
                    return candidate
                if best is None:
                    best = candidate
            if best is not None:
                _RELAXED.inc()
                _log.info(
                    "selectivity target %s missed for %s query "
                    "(estimated alpha %s); accepting relaxed candidate",
                    selectivity,
                    shape.value,
                    best.estimated_alpha,
                )
                if span:
                    span.set(attempts=attempts, relaxed=True)
                return GeneratedQuery(
                    best.query, best.shape, best.selectivity,
                    best.estimated_alpha, relaxed=True,
                )
        raise GenerationError(
            f"could not generate any {shape.value} query for the schema "
            f"{self.schema.name!r} (selectivity={selectivity})"
        )

    # ------------------------------------------------------------------
    # per-query generation
    # ------------------------------------------------------------------

    def _attempt_query(
        self,
        shape: QueryShape,
        selectivity: SelectivityClass | None,
        arity: int,
    ) -> GeneratedQuery | None:
        size = self.configuration.query_size
        rule_count = self._sample_interval(size.rules)
        rules: list[QueryRule] = []
        head: tuple[str, ...] | None = None
        for _ in range(rule_count):
            built = self._attempt_rule(shape, selectivity, arity, head)
            if built is None:
                return None
            rule, head = built
            rules.append(rule)
        query = Query(tuple(rules))
        estimated = self.estimator.query_alpha(query)
        return GeneratedQuery(query, shape, selectivity, estimated)

    def _attempt_rule(
        self,
        shape: QueryShape,
        selectivity: SelectivityClass | None,
        arity: int,
        head: tuple[str, ...] | None,
    ) -> tuple[QueryRule, tuple[str, ...]] | None:
        size = self.configuration.query_size
        skeleton = None
        for _ in range(_MAX_ATTEMPTS):
            conjunct_count = self._sample_interval(size.conjuncts)
            candidate = build_skeleton(shape, conjunct_count, self.rng)
            # Later rules inherit the first rule's head: their skeleton
            # must actually contain those variables (a small skeleton
            # can miss a high-numbered head variable — redraw).
            if head is None or set(head) <= set(candidate.variables):
                skeleton = candidate
                break
        if skeleton is None:
            return None

        controlled = selectivity is not None and arity == 2
        if controlled:
            plans = self._plan_chain(skeleton, selectivity)
        else:
            plans = None
        if plans is None:
            plans = {}
            controlled = False

        regexes, types = self._instantiate(skeleton, plans)
        if regexes is None:
            return None

        if head is None:
            head = self._pick_head(skeleton, arity, controlled)
            if head is None:
                return None
        body = tuple(
            Conjunct(c.source, regexes[c.placeholder], c.target)
            for c in skeleton.conjuncts
        )
        return QueryRule(head, body), head

    def _pick_head(
        self, skeleton: Skeleton, arity: int, controlled: bool
    ) -> tuple[str, ...] | None:
        variables = skeleton.variables
        if controlled:
            return skeleton.endpoints()
        if arity > len(variables):
            arity = len(variables)
        if arity == 0:
            return ()
        chosen = self.rng.choice(len(variables), size=arity, replace=False)
        return tuple(variables[int(i)] for i in sorted(chosen))

    # ------------------------------------------------------------------
    # pooled path drawing
    # ------------------------------------------------------------------

    def _pooled_path(
        self,
        key: tuple,
        starts: np.ndarray,
        targets: np.ndarray,
        l_min: int,
        l_max: int,
        relax_to: int | None,
    ) -> SampledPath | None:
        """One draw from a pre-drawn batch pool (refilled on demand).

        Draws are i.i.d. uniform, so handing them out of a batch is
        statistically identical to sampling one path per call — but a
        single vectorized batch covers a query's whole retry budget and
        is shared across every query with the same (shape, selectivity)
        needs.
        """
        entry = self._pools.get(key, ())
        if entry is None:
            return None
        if not entry:
            entry = [[], _POOL_BATCH_MIN]
            self._pools[key] = entry
        paths, refill = entry
        if not paths:
            _POOL_REFILLS.inc()
            FAULTS.hit(_FP_REFILL)
            paths = self.sampler.sample_paths_in_range(
                starts, targets, l_min, l_max, refill, self.rng,
                relax_to=relax_to,
            )
            if not paths:
                _POOL_INFEASIBLE.inc()
                self._pools[key] = None
                return None
            entry[0] = paths
            entry[1] = min(refill * 2, _POOL_BATCH_MAX)
        return paths.pop()

    def _sample_interval(self, interval) -> int:
        """One draw from a size interval, served from a pre-drawn block.

        Equivalent to ``interval.sample(self.rng)`` (i.i.d. uniform) but
        one vectorized ``rng.integers`` call per 256 draws.
        """
        if interval.lo == interval.hi:
            return interval.lo
        key = (interval.lo, interval.hi)
        block = self._interval_draws.get(key)
        if not block:
            block = self.rng.integers(
                interval.lo, interval.hi + 1, size=256
            ).tolist()
            self._interval_draws[key] = block
        return block.pop()

    def _start_id_of(self, type_name: str) -> np.ndarray:
        """Dense-id singleton column of one type's start node (cached)."""
        cached = self._start_id_by_type.get(type_name)
        if cached is None:
            cached = self.schema_graph.ids_of(
                [self.schema_graph.start_node(type_name)]
            )
            self._start_id_by_type[type_name] = cached
        return cached

    def _singleton_id(self, node_id: int) -> np.ndarray:
        """A cached one-element id column (sampler start/target sets)."""
        cached = self._singleton_ids.get(node_id)
        if cached is None:
            cached = np.array([node_id], dtype=np.int64)
            self._singleton_ids[node_id] = cached
        return cached

    # ------------------------------------------------------------------
    # selectivity-controlled chain planning
    # ------------------------------------------------------------------

    def _class_target_ids(self, selectivity: SelectivityClass) -> np.ndarray:
        """Ids of schema-graph nodes realising the requested class."""
        alpha = selectivity.alpha
        cached = self._class_target_cache.get(alpha)
        if cached is None:
            cached = np.fromiter(
                (
                    i
                    for i, node in enumerate(self._all_nodes)
                    if alpha_of_triple(node.triple) == alpha
                ),
                dtype=np.int64,
            )
            self._class_target_cache[alpha] = cached
        return cached

    def _plan_chain(
        self, skeleton: Skeleton, selectivity: SelectivityClass
    ) -> dict[int, _ConjunctPlan] | None:
        """Thread a class-realising path through the skeleton's chain.

        Star conjuncts "inherit the input and output types of their
        neighbour conjuncts" (§5.2.4): they become loops at the boundary
        type, and the main path only advances over non-star conjuncts.
        """
        size = self.configuration.query_size
        p_r = self.configuration.recursion_probability
        chain = skeleton.chain
        if p_r > 0.0:
            star_flags = (self.rng.random(len(chain)) < p_r).tolist()
        else:
            star_flags = [False] * len(chain)
        walk_count = sum(1 for flag in star_flags if not flag)

        targets = self._class_target_ids(selectivity)
        if targets.size == 0:
            return None
        starts = self._start_ids

        if walk_count == 0:
            main_path = self._pooled_path(
                ("main", selectivity.alpha, 0), starts, targets, 0, 0, None
            )
            if main_path is None:
                # No type whose ε-class matches: fall back to one walking
                # conjunct so at least the path can move (relaxation).
                star_flags[0] = False
                walk_count = 1
            else:
                plans = {}
                anchor = main_path.start.type_name
                for placeholder, _ in zip(chain, star_flags):
                    plans[placeholder] = _ConjunctPlan(starred=True, loop_type=anchor)
                return plans

        main_path = self._pooled_path(
            ("main", selectivity.alpha, walk_count),
            starts,
            targets,
            walk_count * size.length.lo,
            walk_count * size.length.hi,
            walk_count * size.length.hi + _RELAX_MARGIN,
        )
        if main_path is None:
            return None

        segments = self._cut_segments(main_path, walk_count)
        plans: dict[int, _ConjunctPlan] = {}
        segment_iter = iter(segments)
        cursor_node = main_path.start
        for placeholder, starred in zip(chain, star_flags):
            if starred:
                plans[placeholder] = _ConjunctPlan(
                    starred=True, loop_type=cursor_node.type_name
                )
            else:
                segment = next(segment_iter)
                plans[placeholder] = _ConjunctPlan(starred=False, segment=segment)
                cursor_node = segment.end
        return plans

    def _cut_segments(self, path: SampledPath, parts: int) -> list[SampledPath]:
        """Split a sampled path into ``parts`` contiguous segments.

        Lengths are spread as evenly as possible; the size interval has
        already bounded the total, so per-segment lengths stay within
        (or, after relaxation, near) the configured interval.
        """
        total = path.length
        base, extra = divmod(total, parts)
        lengths = [base + (1 if i < extra else 0) for i in range(parts)]
        segments: list[SampledPath] = []
        position = 0
        for length in lengths:
            symbols = path.symbols[position : position + length]
            nodes = path.nodes[position : position + length + 1]
            segments.append(SampledPath(symbols, nodes))
            position += length
        return segments

    # ------------------------------------------------------------------
    # placeholder instantiation
    # ------------------------------------------------------------------

    def _instantiate(
        self, skeleton: Skeleton, plans: dict[int, _ConjunctPlan]
    ) -> tuple[dict[int, RegularExpression] | None, dict[str, str]]:
        """Fill every placeholder; returns (regexes, variable types)."""
        regexes: dict[int, RegularExpression] = {}
        var_types: dict[str, str] = {}

        # First pass: planned (chain) conjuncts — they pin variable types.
        for conjunct in skeleton.conjuncts:
            plan = plans.get(conjunct.placeholder)
            if plan is None:
                continue
            if plan.starred:
                regex = self._loop_regex(plan.loop_type)
                if regex is None:
                    return None, var_types
                var_types[conjunct.source] = plan.loop_type
                var_types[conjunct.target] = plan.loop_type
            else:
                regex = self._segment_regex(plan.segment)
                var_types[conjunct.source] = plan.segment.start.type_name
                var_types[conjunct.target] = plan.segment.end.type_name
            regexes[conjunct.placeholder] = regex

        # Second pass: unplanned conjuncts (branches, cycles, or the whole
        # body when selectivity control is off) — type-consistent draws.
        for conjunct in skeleton.conjuncts:
            if conjunct.placeholder in regexes:
                continue
            regex = self._free_conjunct(conjunct, var_types)
            if regex is None:
                return None, var_types
            regexes[conjunct.placeholder] = regex
        return regexes, var_types

    def _segment_regex(self, segment: SampledPath) -> RegularExpression:
        """Conjunct regex whose first disjunct is the main-path segment.

        Additional disjuncts (Example 5.5/5.6) are drawn between the
        *same* schema-graph endpoints so the disjunction cannot change
        the conjunct's selectivity class; when no alternative path
        exists the disjunct budget is simply not spent (relaxation).
        """
        size = self.configuration.query_size
        disjunct_count = self._sample_interval(size.disjuncts)
        paths = [PathExpression(segment.symbols)]
        if disjunct_count > 1 and segment.length > 0:
            graph = self.schema_graph
            start_id = graph.node_index(segment.start)
            end_id = graph.node_index(segment.end)
            starts = self._singleton_id(start_id)
            targets = self._singleton_id(end_id)
            for _ in range(disjunct_count - 1):
                extra = self._pooled_path(
                    ("pair", start_id, end_id),
                    starts,
                    targets,
                    size.length.lo,
                    size.length.hi,
                    size.length.hi + _RELAX_MARGIN,
                )
                if extra is None:
                    break
                candidate = PathExpression(extra.symbols)
                if candidate not in paths:
                    paths.append(candidate)
        return RegularExpression(tuple(paths))

    def _loop_regex(self, loop_type: str) -> RegularExpression | None:
        """A starred regex looping on ``loop_type`` (recursive conjunct)."""
        size = self.configuration.query_size
        starts = self._start_id_of(loop_type)
        targets = self.schema_graph.node_ids_of_type(loop_type)
        key = ("loop", loop_type)
        loop = self._pooled_path(
            key,
            starts,
            targets,
            max(1, size.length.lo),
            size.length.hi,
            size.length.hi + _RELAX_MARGIN,
        )
        if loop is None or loop.length == 0:
            return None
        disjunct_count = self._sample_interval(size.disjuncts)
        paths = [PathExpression(loop.symbols)]
        for _ in range(disjunct_count - 1):
            extra = self._pooled_path(
                key,
                starts,
                targets,
                max(1, size.length.lo),
                size.length.hi,
                size.length.hi + _RELAX_MARGIN,
            )
            if extra is None:
                break
            candidate = PathExpression(extra.symbols)
            if candidate not in paths:
                paths.append(candidate)
        return RegularExpression(tuple(paths), starred=True)

    def _free_conjunct(
        self, conjunct, var_types: dict[str, str]
    ) -> RegularExpression | None:
        """Instantiate an unplanned conjunct consistently with known types."""
        size = self.configuration.query_size
        p_r = self.configuration.recursion_probability
        source_type = var_types.get(conjunct.source)
        target_type = var_types.get(conjunct.target)

        if conjunct.source == conjunct.target:
            # Self-loop conjunct (degenerate cycles): loop on its type.
            loop_type = source_type or self._random_type()
            var_types[conjunct.source] = loop_type
            regex = self._loop_regex(loop_type)
            if regex is not None and self.rng.random() >= p_r:
                regex = RegularExpression(regex.disjuncts, starred=False)
            return regex

        starred = bool(self.rng.random() < p_r)
        if starred and source_type is not None:
            regex = self._loop_regex(source_type)
            if regex is not None:
                var_types[conjunct.target] = source_type
                return regex
            # fall through to a non-recursive draw

        if source_type is None and target_type is not None:
            # Draw backwards from the known endpoint, then reverse.
            path = self._draw_free_path(target_type, None)
            if path is None:
                return None
            var_types[conjunct.source] = path.end.type_name
            reversed_expr = RegularExpression(
                (PathExpression(path.symbols),)
            ).reversed()
            return self._pad_disjuncts(reversed_expr, path.end.type_name,
                                       var_types[conjunct.target])

        anchor = source_type or self._random_type()
        var_types.setdefault(conjunct.source, anchor)
        path = self._draw_free_path(anchor, target_type)
        if path is None:
            return None
        var_types[conjunct.target] = path.end.type_name
        expr = RegularExpression((PathExpression(path.symbols),))
        return self._pad_disjuncts(expr, anchor, path.end.type_name)

    def _pad_disjuncts(
        self, expr: RegularExpression, source_type: str, target_type: str
    ) -> RegularExpression:
        """Top up an expression with extra disjuncts between fixed types."""
        size = self.configuration.query_size
        disjunct_count = self._sample_interval(size.disjuncts)
        if disjunct_count <= len(expr.disjuncts):
            return expr
        starts = self._start_id_of(source_type)
        targets = self.schema_graph.node_ids_of_type(target_type)
        paths = list(expr.disjuncts)
        for _ in range(disjunct_count - len(paths)):
            extra = self._pooled_path(
                ("pad", source_type, target_type),
                starts, targets, size.length.lo, size.length.hi,
                size.length.hi + _RELAX_MARGIN,
            )
            if extra is None:
                break
            candidate = PathExpression(extra.symbols)
            if candidate not in paths:
                paths.append(candidate)
        return RegularExpression(tuple(paths), expr.starred)

    def _draw_free_path(
        self, source_type: str, target_type: str | None
    ) -> SampledPath | None:
        size = self.configuration.query_size
        starts = self._start_id_of(source_type)
        if target_type is None:
            targets = self._all_ids
        else:
            targets = self.schema_graph.node_ids_of_type(target_type)
        return self._pooled_path(
            ("free", source_type, target_type),
            starts, targets, size.length.lo, size.length.hi,
            size.length.hi + _RELAX_MARGIN,
        )

    def _random_type(self) -> str:
        types = self.schema.type_names
        return types[int(self.rng.integers(0, len(types)))]

    # ------------------------------------------------------------------

    def _combination_cycle(self):
        """Round-robin order over (arity, shape, selectivity) combos."""
        combos = []
        for selectivity in self.configuration.selectivities:
            for shape in self.configuration.shapes:
                for arity in self.configuration.arities:
                    effective = selectivity if arity == 2 else None
                    combos.append((arity, shape, effective))
        return combos


def generate_workload(
    configuration: WorkloadConfiguration,
    seed: int | np.random.Generator | None = None,
    budget=None,
) -> Workload:
    """Generate a workload (the Fig. 6 algorithm end to end)."""
    return WorkloadGenerator(configuration, seed).generate(budget=budget)
