"""Resource governance: budgets, contexts, degradation, partial results.

Covers the hardened-execution layer (:mod:`repro.execution`):

* :class:`ResourceBudget` semantics — auto-arm (the regression for the
  historical ``_started = 0.0`` foot-gun where an un-started budget
  measured from the monotonic epoch and aborted instantly), the row /
  byte / time caps, peak-byte tracking, cooperative cancellation;
* :class:`ExecutionContext` policy — degrade plans, proactive slicing,
  ``on_budget`` validation, ``from_budget`` upgrades;
* **degraded parity** — chunked-streaming execution returns results
  equal to direct execution on every engine family (frontier sweep,
  vectorized joins, isomorphic binding tables), both proactively
  (``degrade_rows``) and reactively (a byte cap the direct plan blows);
* **caps under degradation** — a sliced run whose answer exceeds the
  row cap aborts on rows within a bounded traced peak, and so does G's
  union of match branches that each fit the cap;
* **partial mode** — ``on_budget="partial"`` returns an incomplete
  :class:`ResultSet` carrying an :class:`AbortReport`;
* the Session default budget, atomic graph serialisation, and the CLI
  budget flags.
"""

from __future__ import annotations

import os
import time
import tracemalloc

import pytest

from repro.cli import EXIT_BUDGET_ABORT, main
from repro.engine.budget import EvaluationBudget, unlimited
from repro.errors import EngineBudgetExceeded, ExecutionCancelled
from repro.execution import (
    AbortReport,
    CancellationToken,
    ExecutionContext,
    ResourceBudget,
)
from repro.execution.degrade import row_slices, split_ranges
from repro.observability.metrics import METRICS
from repro.session import Session

QUERY_1 = "(?x, ?y) <- (?x, authors, ?y)"
QUERY_2 = "(?x, ?y) <- (?x, authors, ?z), (?z, publishedIn, ?y)"
QUERY_STAR = "(?x, ?y) <- (?x, (authors.authors-)*, ?y)"
QUERY_UNION = (
    "(?x, ?y) <- (?x, authors, ?y)\n"
    "(?x, ?y) <- (?x, authors, ?z), (?z, publishedIn, ?y)"
)


@pytest.fixture(scope="module")
def session():
    return Session.from_scenario("bib", 800, seed=11)


# -- ResourceBudget -----------------------------------------------------


class TestResourceBudget:
    def test_unarmed_budget_does_not_abort_instantly(self):
        """Regression: an un-started budget must measure from first use.

        The historical default ``_started = 0.0`` made ``elapsed`` the
        whole monotonic uptime, so any budget used without ``.start()``
        aborted on its first ``check_time``.
        """
        budget = ResourceBudget(timeout_seconds=30.0)
        assert budget.armed is False
        budget.check_time()  # must not raise
        assert budget.armed is True
        assert budget.elapsed < 1.0

    def test_elapsed_auto_arms(self):
        budget = ResourceBudget()
        assert budget.elapsed < 1.0
        assert budget.armed

    def test_check_time_aborts_past_deadline(self):
        budget = ResourceBudget(timeout_seconds=0.0).start()
        time.sleep(0.002)
        with pytest.raises(EngineBudgetExceeded) as info:
            budget.check_time()
        assert info.value.resource == "time"
        assert info.value.elapsed_seconds > 0

    def test_check_rows(self):
        budget = ResourceBudget(max_rows=10)
        budget.check_rows(10)  # at the cap: fine
        with pytest.raises(EngineBudgetExceeded) as info:
            budget.check_rows(11)
        assert info.value.resource == "rows"
        assert info.value.amount == 11

    def test_check_bytes_and_peak(self):
        budget = ResourceBudget(max_bytes=1000)
        budget.check_bytes(400)
        budget.check_bytes(900)
        budget.check_bytes(100)
        assert budget.peak_bytes == 900
        with pytest.raises(EngineBudgetExceeded) as info:
            budget.check_bytes(1001)
        assert info.value.resource == "bytes"
        assert budget.peak_bytes == 1001  # high-water includes the abort

    def test_no_byte_cap_only_tracks_peak(self):
        budget = ResourceBudget(max_bytes=None)
        budget.check_bytes(1 << 40)
        assert budget.peak_bytes == 1 << 40

    def test_cancellation_token(self):
        token = CancellationToken()
        budget = ResourceBudget(token=token)
        budget.check_time()
        token.cancel("user hit ^C")
        with pytest.raises(ExecutionCancelled) as info:
            budget.check_time()
        assert "user hit ^C" in str(info.value)
        token.reset()
        budget.check_time()  # reusable after reset

    def test_token_shared_across_budgets(self):
        token = CancellationToken()
        budgets = [ResourceBudget(token=token) for _ in range(3)]
        token.cancel()
        for budget in budgets:
            with pytest.raises(ExecutionCancelled):
                budget.check_cancelled()

    def test_plain_budget_hooks_are_inert(self):
        budget = ResourceBudget()
        assert budget.degrade_plan(10**9) is None
        assert budget.slice_plan(10**9) is None
        assert budget.should_degrade(EngineBudgetExceeded("x")) is False
        assert budget.wants_partial is False
        assert budget.partial_result(EngineBudgetExceeded("x"), 2) is None

    def test_legacy_evaluation_budget_is_a_resource_budget(self):
        assert issubclass(EvaluationBudget, ResourceBudget)
        budget = unlimited()
        assert budget.armed
        budget.check_time()
        budget.check_rows(10**12)


# -- ExecutionContext ---------------------------------------------------


class TestExecutionContext:
    def test_rejects_unknown_policy(self):
        with pytest.raises(ValueError):
            ExecutionContext(on_budget="explode")

    def test_from_budget_copies_caps(self):
        token = CancellationToken()
        budget = EvaluationBudget(
            timeout_seconds=5.0, max_rows=123, max_bytes=456, token=token
        )
        ctx = ExecutionContext.from_budget(budget, on_budget="partial")
        assert (ctx.timeout_seconds, ctx.max_rows, ctx.max_bytes) == (
            5.0, 123, 456,
        )
        assert ctx.token is token
        assert ctx.wants_partial

    def test_from_budget_on_context_applies_overrides_in_place(self):
        ctx = ExecutionContext(max_rows=7)
        again = ExecutionContext.from_budget(ctx, on_budget="partial")
        assert again is ctx
        assert ctx.on_budget == "partial"

    def test_degrade_plan(self):
        ctx = ExecutionContext(max_rows=100, chunk_rows=32)
        assert ctx.degrade_plan(100) is None  # fits: direct path
        assert ctx.degrade_plan(101) == 32  # chunked
        ctx_small = ExecutionContext(max_rows=10, chunk_rows=32)
        assert ctx_small.degrade_plan(50) == 10  # chunk never exceeds cap
        ctx_off = ExecutionContext(max_rows=10, degrade=False)
        assert ctx_off.degrade_plan(50) is None

    def test_degrade_plan_respects_byte_cap(self):
        # 160 bytes / 16 bytes-per-gathered-row => 10-row chunks.
        ctx = ExecutionContext(max_bytes=160, chunk_rows=1 << 16)
        assert ctx.degrade_plan(1000) == 10

    def test_slice_plan(self):
        ctx = ExecutionContext(degrade_rows=10)
        assert ctx.slice_plan(10) is None
        assert ctx.slice_plan(25) == 3  # ceil(25 / 10)
        assert ctx.slice_plan(1) is None
        assert ExecutionContext().slice_plan(10**9) is None  # no threshold

    def test_should_degrade_only_rows_and_bytes(self):
        ctx = ExecutionContext()
        rows = EngineBudgetExceeded("r", resource="rows")
        when = EngineBudgetExceeded("t", resource="time")
        assert ctx.should_degrade(rows)
        assert not ctx.should_degrade(when)
        assert not ctx.should_degrade(ValueError("x"))
        ctx.degrade = False
        assert not ctx.should_degrade(rows)

    def test_start_resets_run_state(self):
        ctx = ExecutionContext()
        ctx.record_degraded("x", rows=1)
        ctx.stash_partial("stale")
        ctx.start()
        assert ctx.events == []
        assert ctx._partial is None
        assert ctx.abort_report is None

    def test_record_degraded_counts_and_logs_events(self):
        ctx = ExecutionContext()
        before = METRICS.counter("execution.degraded").value
        ctx.record_degraded("test.site", rows=42, chunks=3)
        assert METRICS.counter("execution.degraded").value == before + 1
        assert ctx.events == [{"site": "test.site", "rows": 42, "chunks": 3}]


# -- chunking helpers ---------------------------------------------------


class TestChunkHelpers:
    def test_split_ranges_covers_exactly(self):
        for nrows, pieces in [(10, 3), (7, 7), (5, 9), (1, 1), (100, 4)]:
            ranges = split_ranges(nrows, pieces)
            flat = [i for lo, hi in ranges for i in range(lo, hi)]
            assert flat == list(range(nrows)), (nrows, pieces)

    def test_row_slices_respects_chunk_budget(self):
        import numpy as np

        counts = np.array([5, 1, 9, 2, 2, 8], dtype=np.int64)
        slices = row_slices(counts, 10)
        flat = [i for lo, hi in slices for i in range(lo, hi)]
        assert flat == list(range(len(counts)))
        # No slice exceeds the chunk budget unless a single count does.
        for lo, hi in slices:
            assert counts[lo:hi].sum() <= 10 or hi - lo == 1


# -- degraded parity ----------------------------------------------------


ENGINES_UNDER_TEST = ["sparql", "datalog", "postgres", "cypher"]


class TestDegradedParity:
    @pytest.mark.parametrize("engine", ENGINES_UNDER_TEST)
    @pytest.mark.parametrize("query", [QUERY_1, QUERY_2, QUERY_STAR])
    def test_proactive_chunking_is_result_identical(
        self, session, engine, query
    ):
        """Chunked streaming answers == direct answers, per engine."""
        direct = session.evaluate(query, engine)
        ctx = ExecutionContext(degrade_rows=48)
        degraded = session.evaluate(query, engine, budget=ctx)
        assert degraded == direct

    def test_proactive_chunking_actually_degrades(self, session):
        ctx = ExecutionContext(degrade_rows=48)
        before = METRICS.counter("execution.degraded").value
        session.evaluate(QUERY_2, "datalog", budget=ctx)
        assert METRICS.counter("execution.degraded").value > before
        assert ctx.events, "expected degraded-execution events"
        assert ctx.events[0]["site"] == "join.binding_table"

    def test_frontier_gather_degrades(self, session):
        ctx = ExecutionContext(degrade_rows=48)
        session.evaluate(QUERY_1, "sparql", budget=ctx)
        assert any(
            event["site"].startswith("frontier.") for event in ctx.events
        )

    @pytest.mark.parametrize("engine", ["datalog", "cypher"])
    def test_reactive_byte_cap_degrades_instead_of_aborting(
        self, session, engine
    ):
        """A byte cap the direct plan blows: plain budget aborts, the
        context falls back to sliced execution and still returns the
        identical result."""
        direct = session.evaluate(QUERY_2, engine)
        cap = 12_000
        with pytest.raises(EngineBudgetExceeded) as info:
            session.evaluate(
                QUERY_2, engine, budget=EvaluationBudget(max_bytes=cap)
            )
        assert info.value.resource == "bytes"
        ctx = ExecutionContext(max_bytes=cap)
        degraded = session.evaluate(QUERY_2, engine, budget=ctx)
        assert degraded == direct
        assert ctx.events, "reactive fallback should record events"
        assert ctx.peak_bytes > 0

    def test_degrade_disabled_still_aborts(self, session):
        ctx = ExecutionContext(max_bytes=12_000, degrade=False)
        with pytest.raises(EngineBudgetExceeded):
            session.evaluate(QUERY_2, "datalog", budget=ctx)


class TestDegradedParityOnFixtureGraphs:
    """Chunked execution on the frontier/iso-parity style graphs:
    the same two-label hand-built instances those suites pin engine
    parity on must also be byte-identical under degradation."""

    @pytest.fixture(scope="class")
    def tiny_graph(self):
        import numpy as np

        from repro.generation.graph import LabeledGraph
        from repro.schema.config import GraphConfiguration
        from repro.schema.constraints import proportion
        from repro.schema.distributions import (
            GaussianDistribution,
            ZipfianDistribution,
        )
        from repro.schema.schema import GraphSchema

        schema = GraphSchema(name="degrade-parity")
        schema.add_type("T", proportion(1.0))
        for label in ("a", "b"):
            schema.add_edge(
                "T", "T", label,
                in_dist=GaussianDistribution(2.0, 1.0),
                out_dist=ZipfianDistribution(2.5, 2.0),
            )
        n = 24
        graph = LabeledGraph(GraphConfiguration(n, schema))
        rng = np.random.default_rng(7)
        for label in ("a", "b"):
            graph.add_edges(
                label,
                rng.integers(0, n, 60).astype(np.int64),
                rng.integers(0, n, 60).astype(np.int64),
            )
        return graph

    FIXTURE_QUERIES = [
        "(?x, ?y) <- (?x, a.b, ?y)",
        "(?x, ?y) <- (?x, a-.b, ?y)",
        "(?x, ?y) <- (?x, (a.b)*, ?y)",
        "(?x, ?y) <- (?x, a, ?z), (?z, b-, ?y)",
    ]

    @pytest.mark.parametrize("engine", ENGINES_UNDER_TEST)
    @pytest.mark.parametrize("text", FIXTURE_QUERIES)
    def test_chunked_equals_direct(self, tiny_graph, engine, text):
        from repro.engine.evaluator import evaluate_query
        from repro.queries.parser import parse_query

        query = parse_query(text)
        try:
            direct = evaluate_query(query, tiny_graph, engine)
        except Exception as exc:  # engine rejects the shape: nothing to pin
            pytest.skip(f"{engine} rejects {text}: {exc}")
        ctx = ExecutionContext(degrade_rows=8, chunk_rows=8)
        assert evaluate_query(query, tiny_graph, engine, ctx) == direct


#: lsn Con 17 of ``stress_workload("lsn", cfg, 10, seed=1)``: every
#: binding-table slice passes a 40 000-row cap, the answer does not.
QUERY_OVER_CAP = (
    "(?x0, ?x3) <- "
    "(?x0, (hasCreator.knows.knows- + hasCreator.hasInterest.hasInterest-), ?x1), "
    "(?x1, (knows.knows- + knows-.likes.hasCreator), ?x2), "
    "(?x2, likes.likes-, ?x3)"
)


class TestCapsHoldWhileDegrading:
    """Sliced execution merges each slice's head rows under the caps, so
    an answer above the row cap aborts on rows, as under a plain budget,
    without first materialising the slices' full-width tables."""

    @pytest.fixture(scope="class")
    def lsn(self):
        lsn = Session.from_scenario("lsn", 2000, seed=0)
        lsn.graph()
        return lsn

    @pytest.mark.parametrize("engine", ENGINES_UNDER_TEST)
    def test_answer_above_the_cap_aborts_on_rows(self, lsn, engine):
        ctx = ExecutionContext(max_rows=40_000)
        tracemalloc.start()
        try:
            with pytest.raises(EngineBudgetExceeded) as info:
                lsn.evaluate(QUERY_OVER_CAP, engine, budget=ctx)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert info.value.resource == "rows"
        assert ctx.events, "the cap should have been met by slicing first"
        assert peak < 64 << 20, f"traced peak {peak / 2**20:.0f} MiB"

    @pytest.mark.parametrize("engine", ENGINES_UNDER_TEST)
    def test_partial_mode_returns_an_incomplete_result(self, lsn, engine):
        ctx = ExecutionContext(max_rows=40_000, on_budget="partial")
        result = lsn.evaluate(QUERY_OVER_CAP, engine, budget=ctx)
        assert result.complete is False
        assert result.abort_report.resource == "rows"

    @pytest.mark.nightly
    @pytest.mark.parametrize("scenario", ["bib", "lsn", "sp", "wd"])
    def test_stress_corpus_stays_inside_the_caps(self, scenario):
        """Every Len / Dis / Con / Rec stress query at 2 000 nodes, on
        every engine, under a 40 000-row cap and a 1 s deadline: the
        context never raises ``MemoryError``, peaks below 64 MiB
        traced, and answers as a plain budget does wherever both
        answer."""
        from repro.analysis.experiments import STRESS_WORKLOADS, stress_workload
        from repro.engine.evaluator import evaluate_query
        from repro.errors import EngineCapabilityError

        def answer(query, graph, engine, budget):
            try:
                return evaluate_query(query, graph, engine, budget)
            except (EngineBudgetExceeded, EngineCapabilityError):
                return None

        graph = Session.from_scenario(scenario, 2000, seed=0).graph()
        caps = dict(max_rows=40_000, timeout_seconds=1.0)
        for family in STRESS_WORKLOADS:
            workload = stress_workload(family, graph.config, 10, seed=1)
            for generated in workload:
                query = generated.query
                for engine in ENGINES_UNDER_TEST:
                    tracemalloc.start()
                    try:
                        sliced = answer(
                            query, graph, engine, ExecutionContext(**caps)
                        )
                        _, peak = tracemalloc.get_traced_memory()
                    finally:
                        tracemalloc.stop()
                    where = (family, query.to_text(), engine)
                    assert peak <= 64 << 20, (where, peak)
                    plain = answer(query, graph, engine, ResourceBudget(**caps))
                    if sliced is not None and plain is not None:
                        assert sliced == plain, where


#: bib Dis 5 of ``stress_workload("Dis", cfg, 10, seed=1)``: each of G's
#: three match branches fits a 40 000-row cap, their union does not.
UNION_PATHS = (
    "extendedTo.extendedTo-.authors-.authors",
    "publishedIn.publishedIn-.authors-.authors",
    "authors-.authors",
)
QUERY_UNION_OVER_CAP = f"(?x0, ?x1) <- (?x0, ({' + '.join(UNION_PATHS)}), ?x1)"


class TestBranchUnionIsCharged:
    @pytest.fixture(scope="class")
    def bib(self):
        bib = Session.from_scenario("bib", 2000, seed=0)
        bib.graph()
        return bib

    def test_union_above_the_cap_aborts_on_rows(self, bib):
        for path in UNION_PATHS:
            text = f"(?x0, ?x1) <- (?x0, {path}, ?x1)"
            ctx = ExecutionContext(max_rows=40_000)
            assert len(bib.evaluate(text, "cypher", budget=ctx)) <= 40_000
        ctx = ExecutionContext(max_rows=40_000)
        with pytest.raises(EngineBudgetExceeded) as info:
            bib.evaluate(QUERY_UNION_OVER_CAP, "cypher", budget=ctx)
        assert info.value.resource == "rows"


# -- partial results ----------------------------------------------------


class TestPartialResults:
    def test_partial_returns_incomplete_resultset(self, session):
        ctx = ExecutionContext(max_rows=100, on_budget="partial",
                               degrade=False)
        result = session.evaluate(QUERY_2, "datalog", budget=ctx)
        assert result.complete is False
        report = result.abort_report
        assert report is not None
        assert report.resource == "rows"
        assert ctx.abort_report is report

    def test_partial_union_keeps_earlier_rules(self, session):
        """Rule 1 fits, rule 2 blows the cap: the partial result carries
        at least rule 1's answers."""
        rule1 = session.evaluate(QUERY_1, "datalog")
        full = session.evaluate(QUERY_UNION, "datalog")
        cap = len(rule1) + 1
        assert cap < len(full)
        ctx = ExecutionContext(max_rows=cap, on_budget="partial",
                               degrade=False)
        partial = session.evaluate(QUERY_UNION, "datalog", budget=ctx)
        assert partial.complete is False
        assert len(partial) >= len(rule1)
        assert not partial.difference(full)

    def test_partial_with_nothing_stashed_is_empty(self, session):
        ctx = ExecutionContext(timeout_seconds=0.0, on_budget="partial")
        ctx.start()
        time.sleep(0.002)
        result = session.evaluate(QUERY_2, "datalog", budget=ctx)
        assert result.complete is False
        assert result.arity == 2
        assert len(result) == 0
        assert result.abort_report.resource == "time"

    def test_raise_mode_raises(self, session):
        ctx = ExecutionContext(max_rows=10, degrade=False)  # on_budget=raise
        with pytest.raises(EngineBudgetExceeded):
            session.evaluate(QUERY_2, "datalog", budget=ctx)

    def test_partial_does_not_swallow_real_errors(self):
        ctx = ExecutionContext(on_budget="partial")
        assert ctx.partial_result(ValueError("not a budget abort"), 2) is None

    def test_abort_report_records(self, session):
        ctx = ExecutionContext(max_rows=100, on_budget="partial",
                               degrade=False)
        result = session.evaluate(QUERY_2, "datalog", budget=ctx)
        records = list(result.abort_report.records())
        assert records[0]["kind"] == "abort"
        assert records[0]["resource"] == "rows"

    def test_mark_incomplete_is_zero_copy_flagging(self, session):
        direct = session.evaluate(QUERY_1, "datalog")
        report = AbortReport(reason="test")
        flagged = direct.mark_incomplete(report)
        assert flagged is not direct
        assert direct.complete is True
        assert flagged.complete is False
        assert flagged.abort_report is report
        assert flagged == direct  # same answers, only the flag differs

    @pytest.mark.parametrize("engine", ["P", "S", "D"])
    def test_partial_count_of_a_single_path_query(self, engine):
        """``count_distinct`` of a one-conjunct path query (D's aggregate
        fast path) sits behind the same engine boundary as ``evaluate``:
        a partial-result context gets the partial count, an abort report
        and the ``engine.evaluate`` span — on every engine alike."""
        from repro.engine import count_distinct
        from repro.observability.trace import TRACER

        small = Session.from_scenario("bib", 600, seed=17)
        query = small.query("(?x, ?y) <- (?x, authors.authors-, ?y)")
        graph = small.graph()
        ctx = ExecutionContext(max_rows=200, on_budget="partial")
        with TRACER.recording() as capture:
            assert count_distinct(query, graph, engine, ctx) == 0
        assert ctx.abort_report.resource == "rows"
        assert [root.name for root in capture.roots] == ["engine.evaluate"]
        assert small.count_distinct(query, engine, on_budget="partial") > 0
        assert small.count_distinct(
            query, engine, budget=EvaluationBudget(max_rows=200),
            on_budget="partial",
        ) == 0

    def test_cancellation_yields_partial(self, session):
        token = CancellationToken()
        ctx = ExecutionContext(token=token, on_budget="partial")
        token.cancel("shed load")
        result = session.evaluate(QUERY_2, "datalog", budget=ctx)
        assert result.complete is False
        assert result.abort_report.resource == "cancelled"
        token.reset()
        assert session.evaluate(QUERY_2, "datalog", budget=ctx).complete


class TestAbortReportJson:
    """The wire form: ``to_json``/``from_json`` round-trips exactly."""

    def test_round_trip_preserves_fields(self):
        report = AbortReport(
            reason="row budget exhausted",
            resource="rows",
            elapsed_seconds=0.25,
            span_path="evaluate/join",
            amount=100,
            peak_bytes=4096,
            degraded_events=[{"stage": "join"}, {"stage": "gather"}],
        )
        restored = AbortReport.from_json(report.to_json())
        assert restored.reason == report.reason
        assert restored.resource == report.resource
        assert restored.elapsed_seconds == report.elapsed_seconds
        assert restored.span_path == report.span_path
        assert restored.amount == report.amount
        assert restored.peak_bytes == report.peak_bytes
        # The summary flattens events to a count; placeholders round-trip it.
        assert len(restored.degraded_events) == 2
        assert restored.to_json() == report.to_json()

    def test_round_trip_from_real_abort(self, session):
        ctx = ExecutionContext(max_rows=50, on_budget="partial", degrade=False)
        result = session.evaluate(QUERY_2, "datalog", budget=ctx)
        report = result.abort_report
        restored = AbortReport.from_json(report.to_json())
        assert restored.resource == "rows"
        assert restored.to_dict() == report.to_dict()

    def test_from_dict_rejects_foreign_records(self):
        with pytest.raises(ValueError):
            AbortReport.from_dict({"kind": "metric", "reason": "nope"})


# -- Session integration ------------------------------------------------


class TestSessionBudget:
    def test_session_default_budget_applies(self):
        session = Session.from_scenario(
            "bib", 400, seed=3,
            budget=EvaluationBudget(max_rows=1),
        )
        # QUERY_2 joins two conjuncts, so an intermediate table is
        # actually materialised (QUERY_1 resolves as a zero-copy view
        # of the stored relation, which the row cap deliberately
        # doesn't charge).
        with pytest.raises(EngineBudgetExceeded):
            session.count_distinct(QUERY_2)

    def test_per_call_budget_wins_over_default(self):
        session = Session.from_scenario(
            "bib", 400, seed=3,
            budget=EvaluationBudget(max_rows=1),
        )
        count = session.count_distinct(QUERY_2, budget=unlimited())
        assert count > 1

    def test_on_budget_upgrades_default_to_context(self):
        session = Session.from_scenario(
            "bib", 400, seed=3,
            budget=EvaluationBudget(max_rows=1, timeout_seconds=30.0),
        )
        result = session.evaluate(QUERY_1, on_budget="partial")
        assert result.complete is False

    def test_on_budget_without_budget_builds_fresh_context(self):
        session = Session.from_scenario("bib", 400, seed=3)
        result = session.evaluate(QUERY_1, on_budget="partial")
        assert result.complete is True  # default caps are generous

    def test_budget_abort_leaves_session_reusable(self, session):
        with pytest.raises(EngineBudgetExceeded):
            session.evaluate(QUERY_2, budget=EvaluationBudget(max_rows=1))
        complete = session.evaluate(QUERY_2)
        assert complete.complete
        assert len(complete) > 0

    def test_generation_respects_budget(self):
        from repro.generation.generator import generate_graph
        from repro.scenarios import scenario_schema
        from repro.schema.config import GraphConfiguration

        config = GraphConfiguration(2000, scenario_schema("bib"))
        with pytest.raises(EngineBudgetExceeded) as info:
            generate_graph(config, seed=1,
                           budget=ResourceBudget(max_rows=10))
        assert info.value.resource == "rows"
        graph = generate_graph(config, seed=1, budget=ResourceBudget())
        assert graph.edge_count > 10

    def test_workload_generation_respects_timeout(self):
        from repro.queries.generator import generate_workload
        from repro.queries.workload import WorkloadConfiguration
        from repro.scenarios import scenario_schema
        from repro.schema.config import GraphConfiguration

        config = GraphConfiguration(500, scenario_schema("bib"))
        budget = ResourceBudget(timeout_seconds=0.0).start()
        time.sleep(0.002)
        with pytest.raises(EngineBudgetExceeded):
            generate_workload(
                WorkloadConfiguration(config, size=5), seed=1, budget=budget
            )


# -- atomic serialisation -----------------------------------------------


class TestAtomicWriters:
    def test_failed_write_leaves_previous_file_intact(self, tmp_path):
        from repro.execution.faults import FAULTS

        session = Session.from_scenario("bib", 300, seed=5)
        path = tmp_path / "graph.txt"
        session.write_graph(path)
        original = path.read_bytes()
        with FAULTS.inject("writers.serialize", OSError, nth=1):
            with pytest.raises(OSError):
                session.write_graph(path)
        assert path.read_bytes() == original
        assert not list(tmp_path.glob("*.tmp.*")), "temp residue left behind"

    def test_failed_first_write_leaves_nothing(self, tmp_path):
        from repro.execution.faults import FAULTS

        session = Session.from_scenario("bib", 300, seed=5)
        path = tmp_path / "fresh.txt"
        with FAULTS.inject("writers.serialize", OSError, nth=1):
            with pytest.raises(OSError):
                session.write_graph(path)
        assert not path.exists()
        assert not list(tmp_path.iterdir()), "no artifacts on failure"

    def test_successful_write_is_complete(self, tmp_path):
        session = Session.from_scenario("bib", 300, seed=5)
        path = tmp_path / "ok.txt"
        written = session.write_graph(path)
        assert written == sum(1 for _ in open(path, encoding="utf-8"))
        assert not list(tmp_path.glob("*.tmp.*"))


# -- CLI ----------------------------------------------------------------


BASE_ARGS = [
    "evaluate", "--scenario", "bib", "--nodes", "400", "--seed", "3",
    "--query", QUERY_1,
]


class TestCliBudgetFlags:
    def test_no_flags_unchanged(self, capsys):
        assert main(BASE_ARGS) == 0
        assert int(capsys.readouterr().out.strip()) > 0

    def test_abort_exits_3(self, capsys):
        assert main(BASE_ARGS + ["--max-rows", "1"]) == EXIT_BUDGET_ABORT
        captured = capsys.readouterr()
        assert "error:" in captured.err

    def test_abort_report_written_on_raise(self, tmp_path, capsys):
        report = tmp_path / "abort.ndjson"
        code = main(
            BASE_ARGS + ["--max-rows", "1", "--abort-report", str(report)]
        )
        assert code == EXIT_BUDGET_ABORT
        import json

        record = json.loads(report.read_text().splitlines()[0])
        assert record["kind"] == "abort"
        assert record["resource"] == "rows"

    def test_partial_mode_exits_0_with_warning(self, tmp_path, capsys):
        report = tmp_path / "abort.ndjson"
        code = main(
            BASE_ARGS + ["--max-rows", "1", "--on-budget", "partial",
                         "--abort-report", str(report)]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "warning: partial result" in captured.err
        assert report.exists()

    def test_generous_budget_matches_unbudgeted(self, capsys):
        assert main(BASE_ARGS) == 0
        plain = capsys.readouterr().out.strip()
        assert main(BASE_ARGS + ["--timeout", "60", "--max-rows",
                                 "1000000"]) == 0
        assert capsys.readouterr().out.strip() == plain

    def test_timeout_abort(self, capsys):
        assert main(BASE_ARGS + ["--timeout", "0"]) == EXIT_BUDGET_ABORT
