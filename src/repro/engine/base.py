"""Engine base class, registry, and shared regex-evaluation helpers."""

from __future__ import annotations

from repro.columnar import expand_indptr, sorted_unique_keys
from repro.engine.budget import EvaluationBudget
from repro.engine.closure import ClosureRelation
from repro.engine.frontier import SymbolCSRCache
from repro.engine.joins import join_rule
from repro.engine.relations import BinaryRelation
from repro.engine.resultset import ResultSet
from repro.errors import EngineBudgetExceeded, EngineError, ExecutionCancelled
from repro.generation.graph import LabeledGraph
from repro.observability.trace import TRACER
from repro.queries.ast import Query, RegularExpression
from repro.registry import Registry

#: The engine registry (the §7 systems register themselves with
#: :func:`register_engine`; paper letters P/S/G/D resolve as aliases).
ENGINES: Registry["Engine"] = Registry("engine", error_type=EngineError)


def register_engine(engine_cls):
    """Class decorator: instantiate and register under ``cls.name``.

    The paper's system letter (``paper_system``) registers as an alias,
    so Table 4 / Fig. 12 row labels resolve too.
    """
    instance = engine_cls()
    aliases = (instance.paper_system,) if instance.paper_system != "?" else ()
    ENGINES.register(instance.name, instance, aliases=aliases)
    return engine_cls


class Engine:
    """Base class: evaluate UCRPQs on a :class:`LabeledGraph`.

    ``name`` is the registry key; ``paper_system`` the letter the paper
    uses for the corresponding real system (P, S, G, D).

    A homomorphic engine is its *conjunct strategy* and nothing else:
    :meth:`conjunct_relation` turns one conjunct's regular expression
    into a relation, and the rule loop, the ``engine.conjunct`` spans,
    the conjunct join, partial stashing and budget arming written once
    below are shared by every such engine.
    """

    name: str = "abstract"
    paper_system: str = "?"
    #: False for engines whose match semantics differ from the standard
    #: homomorphic UCRPQ semantics (openCypher's isomorphic matching).
    homomorphic: bool = True

    def evaluate(
        self,
        query: Query,
        graph: LabeledGraph,
        budget: EvaluationBudget | None = None,
        *,
        profile: bool = False,
    ):
        """Answers of ``query`` on ``graph`` as a columnar
        :class:`~repro.engine.resultset.ResultSet`.

        With ``profile=True`` the evaluation runs under an isolated
        trace recording and returns an
        :class:`~repro.observability.profile.EvaluationProfile` instead
        (the answers stay available as its ``result`` field).  Engines
        implement :meth:`conjunct_relation` (or, for other match
        semantics, :meth:`_evaluate`); a third-party engine may instead
        override ``evaluate`` directly, returning a ``ResultSet`` (from
        its answer tuples, :meth:`ResultSet.from_rows`) — the profiler
        drives the public method.

        The budget is armed here, once per call.  When it is an
        :class:`~repro.execution.context.ExecutionContext` with
        ``on_budget="partial"``, a budget abort (or cooperative
        cancellation) returns the answers accumulated so far as a
        ResultSet flagged incomplete — with an
        :class:`~repro.execution.context.AbortReport` attached — instead
        of raising.
        """
        if profile:
            from repro.engine.profiling import profiled_evaluate

            return profiled_evaluate(self, query, graph, budget)
        return self._bounded(
            query, budget, lambda armed: self._evaluate(query, graph, armed)
        )

    def _bounded(self, query: Query, budget: EvaluationBudget | None, compute):
        """The engine boundary: the single arming point of a call.

        Starts the clock of the caller's budget (the default limits when
        none was given; an ``ExecutionContext`` resets its partial stash
        and event list here), opens the ``engine.evaluate`` span and
        returns ``compute(armed_budget)`` — or, on a budget abort /
        cancellation the budget wants as a partial result, the
        incomplete :class:`ResultSet` instead.
        """
        budget = (budget or EvaluationBudget()).start()
        with TRACER.span("engine.evaluate", engine=self.name):
            try:
                return compute(budget)
            except (EngineBudgetExceeded, ExecutionCancelled) as exc:
                partial = budget.partial_result(exc, query.arity)
                if partial is None:
                    raise
                return partial

    #: Built once per evaluation and handed to every
    #: :meth:`conjunct_relation` call (engines compare on strategy alone).
    conjunct_cache = SymbolCSRCache

    def conjunct_relation(
        self,
        regex: RegularExpression,
        graph: LabeledGraph,
        budget: EvaluationBudget,
        cache,
    ):
        """The relation of one conjunct — the engine's strategy."""
        raise NotImplementedError

    def _evaluate(
        self, query: Query, graph: LabeledGraph, budget: EvaluationBudget
    ) -> ResultSet:
        """The homomorphic rule loop (``budget`` arrives armed)."""
        cache = self.conjunct_cache(graph)
        answers: ResultSet | None = None
        for rule_index, rule in enumerate(query.rules):
            relations = []
            for conjunct_index, conjunct in enumerate(rule.body):
                with TRACER.span(
                    "engine.conjunct",
                    rule=rule_index,
                    conjunct=conjunct_index,
                    text=conjunct.to_text(),
                ) as span:
                    relation = self.conjunct_relation(
                        conjunct.regex, graph, budget, cache
                    )
                    if span:
                        span.set(rows=len(relation))
                relations.append(relation)
            rule_answers = join_rule(rule, relations, budget)
            answers = (
                rule_answers if answers is None else answers.union(rule_answers)
            )
            budget.stash_partial(answers)
            budget.check_rows(answers.count())
        return answers if answers is not None else ResultSet.empty()

    def count_distinct(
        self,
        query: Query,
        graph: LabeledGraph,
        budget: EvaluationBudget | None = None,
    ) -> int:
        """``count(distinct ?v)`` — the §7.1 measurement form.

        Resolved via :meth:`ResultSet.count_distinct` (an array length):
        the aggregate boundary never materialises answer tuples.
        """
        return self.evaluate(query, graph, budget).count_distinct()

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


def disjunction_relation(
    regex: RegularExpression,
    cache: SymbolCSRCache,
    budget: EvaluationBudget,
) -> BinaryRelation:
    """The union of a regular expression's disjuncts, ignoring its star.

    Each disjunct starts from its first symbol's relation and extends by
    one CSR gather per further symbol, charging the step's raw size
    before building it; ε is the identity over every graph node.  The
    star, if any, is the caller's.
    """
    n = cache.graph.n
    combined: BinaryRelation | None = None
    for path in regex.disjuncts:
        if path.is_epsilon:
            path_relation = BinaryRelation.identity(n)
        else:
            path_relation = cache.relation(path.symbols[0])
            for symbol in path.symbols[1:]:
                csr = cache.get(symbol)
                if csr is None:  # a symbol with no edges ends the path
                    path_relation = BinaryRelation(n)
                    break
                probe, values = expand_indptr(
                    path_relation.target_array, *csr, budget.check_rows
                )
                budget.check_time()
                path_relation = BinaryRelation.from_keys(
                    sorted_unique_keys(path_relation.source_array[probe], values), n
                )
        combined = path_relation if combined is None else combined.union(path_relation)
        budget.check_time()
    assert combined is not None  # the AST guarantees >= 1 disjunct
    return combined


def regex_to_relation(
    regex: RegularExpression,
    cache: SymbolCSRCache,
    budget: EvaluationBudget,
) -> BinaryRelation:
    """Evaluate a regular expression to its full binary relation.

    A starred expression takes the reflexive-transitive closure of its
    :func:`disjunction_relation` over *all* graph nodes (ε matches
    everywhere under UCRPQ semantics).
    """
    combined = disjunction_relation(regex, cache, budget)
    if regex.starred:
        # Stars are outermost (§3.3), so the closure never composes
        # further — the SCC-compressed representation suffices for the
        # conjunct join and avoids materialising quadratic pair sets.
        return ClosureRelation(combined, cache.graph.n, budget)
    return combined
