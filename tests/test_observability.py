"""Instrumentation layer: spans, metrics, logs, evaluation profiles.

Covers the observability acceptance criteria:

* span nesting, attributes, and the recording window's isolation;
* the disabled-tracer no-op fast path (span_count stays 0 across a hot
  frontier sweep — the benchmark floor probe, asserted here too);
* NDJSON export round-trips and the human-readable tree renderer;
* typed metric instruments (kind mismatches fail loudly) and reset;
* ``EvaluationProfile``: every registered engine pairs each conjunct's
  estimated cardinality with its observed result size;
* ``Session`` stage metrics on cache hit vs. miss;
* budget aborts carrying the active span path into the exception and
  the structured log;
* the ``gmark evaluate --profile`` CLI end to end.
"""

from __future__ import annotations

import json
import logging

import pytest

from repro.cli import main as cli_main
from repro.engine.budget import EvaluationBudget, unlimited
from repro.engine.evaluator import ENGINES, evaluate_query
from repro.engine.frontier import frontier_regex_relation
from repro.engine.automaton import build_nfa
from repro.errors import EngineBudgetExceeded
from repro.execution.faults import FAULTS
from repro.observability import (
    METRICS,
    NOOP_SPAN,
    TRACER,
    EvaluationProfile,
    MetricsRegistry,
    parse_ndjson,
    render_span_tree,
    span_records,
    to_ndjson,
    verbosity_level,
    write_ndjson,
)
from repro.observability.metrics import timed_stage
from repro.queries.parser import parse_query, parse_regex
from repro.session import Session

QUERY = "(?x, ?y) <- (?x, authors, ?y)"


@pytest.fixture(autouse=True)
def _clean_observability():
    """Each test sees a disabled tracer and zeroed global metrics."""
    TRACER.disable()
    TRACER.reset()
    METRICS.reset()
    yield
    TRACER.disable()
    TRACER.reset()
    METRICS.reset()


# -- tracer ---------------------------------------------------------------


class TestTracer:
    def test_nested_spans_and_attributes(self):
        with TRACER.recording() as capture:
            with TRACER.span("outer", stage="test") as outer:
                with TRACER.span("inner") as inner:
                    inner.set(rows=42)
                assert TRACER.current() is outer
        [root] = capture.roots
        assert root.name == "outer"
        assert root.attributes == {"stage": "test"}
        [child] = root.children
        assert child.name == "inner"
        assert child.attributes == {"rows": 42}
        assert root.duration_s >= child.duration_s >= 0.0
        assert capture.span_count == 2

    def test_span_path_inside_nesting(self):
        with TRACER.recording():
            with TRACER.span("a"), TRACER.span("b"):
                assert TRACER.span_path() == "a/b"
        assert TRACER.span_path() is None

    def test_exception_marks_span(self):
        with TRACER.recording() as capture:
            with pytest.raises(ValueError):
                with TRACER.span("boom"):
                    raise ValueError("x")
        [root] = capture.roots
        assert root.attributes["error"] == "ValueError"

    def test_disabled_returns_falsy_noop_singleton(self):
        span = TRACER.span("anything", expensive="nope")
        assert span is NOOP_SPAN
        assert not span
        assert span.set(rows=1) is NOOP_SPAN
        assert TRACER.span_count == 0

    def test_recording_isolation(self):
        with TRACER.recording() as capture:
            with TRACER.span("only.here"):
                pass
        assert capture.span_count == 1
        assert TRACER.enabled is False
        assert TRACER.roots == []
        assert TRACER.span_count == 0

    def test_disabled_noop_probe_on_hot_sweep(self, bib_graph):
        """The benchmark floor probe: a full sweep records zero spans."""
        assert TRACER.enabled is False and FAULTS.armed is False
        idle = ("execution.degraded", "engine.budget_aborts")
        before = [METRICS.counter(name).value for name in idle]
        nfa = build_nfa(parse_regex("authors.publishedIn"))
        relation = frontier_regex_relation(nfa, bib_graph, unlimited())
        assert len(relation) > 0
        assert TRACER.span_count == 0
        # Governance armed but unlimited neither degrades nor aborts.
        assert [METRICS.counter(name).value for name in idle] == before

    def test_enabled_sweep_records_level_breakdown(self, bib_graph):
        nfa = build_nfa(parse_regex("authors.publishedIn"))
        with TRACER.recording() as capture:
            frontier_regex_relation(nfa, bib_graph, unlimited())
        [sweep] = capture.roots
        assert sweep.name == "frontier.sweep"
        levels = sweep.attributes["levels"]
        assert levels and levels[0]["level"] == 0
        assert sweep.attributes["result_pairs"] > 0


# -- metrics --------------------------------------------------------------


class TestMetrics:
    def test_typed_get_or_create(self):
        registry = MetricsRegistry()
        counter = registry.counter("x")
        counter.inc()
        counter.inc(2)
        assert registry.counter("x") is counter
        assert counter.value == 3
        with pytest.raises(TypeError):
            registry.gauge("x")

    def test_histogram_summary(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h")
        for value in (1.0, 3.0):
            histogram.observe(value)
        snap = registry.snapshot()["h"]
        assert snap == {
            "type": "histogram",
            "count": 2,
            "total": 4.0,
            "mean": 2.0,
            "min": 1.0,
            "max": 3.0,
        }

    def test_reset_keeps_registrations(self):
        registry = MetricsRegistry()
        bound = registry.counter("kept")
        bound.inc(5)
        registry.reset()
        assert bound.value == 0
        bound.inc()  # module-level bound instruments stay live
        assert registry.counter("kept").value == 1

    def test_timed_stage_observes_latency(self):
        with timed_stage("test.stage"):
            pass
        snap = METRICS.snapshot("test.stage")["test.stage.seconds"]
        assert snap["count"] == 1
        assert snap["min"] >= 0.0

    def test_columnar_counters_fire(self, bib_graph):
        assert METRICS.counter("columnar.batch_merges").value > 0
        bib_graph.csr_arrays("authors")
        assert METRICS.counter("columnar.csr_builds").value > 0


# -- export ---------------------------------------------------------------


class TestExport:
    def test_ndjson_round_trip(self, tmp_path):
        with TRACER.recording() as capture:
            with TRACER.span("outer", engine="datalog"):
                with TRACER.span("inner"):
                    pass
        records = list(span_records(capture.roots))
        assert [r["path"] for r in records] == ["outer", "outer/inner"]
        assert [r["depth"] for r in records] == [0, 1]
        assert parse_ndjson(to_ndjson(records)) == records

        path = tmp_path / "spans.ndjson"
        assert write_ndjson(path, records) == 2
        assert parse_ndjson(path.read_text()) == records

    def test_render_span_tree(self):
        with TRACER.recording() as capture:
            with TRACER.span("outer", rows=7):
                with TRACER.span("inner"):
                    pass
        text = render_span_tree(capture.roots)
        lines = text.splitlines()
        assert lines[0].startswith("outer") and "rows=7" in lines[0]
        assert lines[1].startswith("  inner")


# -- logging --------------------------------------------------------------


class TestLogging:
    def test_verbosity_mapping(self):
        assert verbosity_level(0) == logging.WARNING
        assert verbosity_level(1) == logging.INFO
        assert verbosity_level(2) == logging.DEBUG
        assert verbosity_level(5) == logging.DEBUG


# -- evaluation profiles --------------------------------------------------


class TestEvaluationProfile:
    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_estimated_and_observed_per_engine(self, bib_graph, engine):
        query = parse_query(QUERY)
        profile = evaluate_query(query, bib_graph, engine, profile=True)
        assert isinstance(profile, EvaluationProfile)
        assert profile.engine == engine
        assert profile.answers == profile.result.count()
        assert profile.conjuncts, "profile must cover every conjunct"
        for conjunct in profile.conjuncts:
            assert conjunct.estimated_cardinality is not None
            assert conjunct.estimated_cardinality > 0
            assert conjunct.observed_cardinality > 0
        # The trace never leaks out of the profiling window.
        assert TRACER.enabled is False
        assert TRACER.span_count == 0

    def test_profile_records_and_render(self, bib_graph):
        profile = evaluate_query(
            parse_query(QUERY), bib_graph, "datalog", profile=True
        )
        records = list(profile.records())
        kinds = {record["record"] for record in records}
        assert {"profile", "conjunct", "span", "metric"} <= kinds
        header = records[0]
        assert header["record"] == "profile"
        assert header["engine"] == "datalog"
        conjunct = next(r for r in records if r["record"] == "conjunct")
        assert {"estimated_cardinality", "observed_cardinality"} <= set(conjunct)
        text = profile.render()
        assert "estimated=" in text and "observed=" in text
        assert parse_ndjson(profile.to_ndjson()) == records

    def test_session_profile_flag(self, bib_config):
        session = Session(bib_config, seed=42)
        profile = session.evaluate(QUERY, profile=True)
        assert isinstance(profile, EvaluationProfile)
        assert profile.result.count_distinct() == session.count_distinct(QUERY)


# -- session stage metrics ------------------------------------------------


class TestSessionMetrics:
    def test_graph_cache_hit_vs_miss(self, bib_config):
        session = Session(bib_config, seed=42)
        session.graph()
        assert METRICS.counter("session.graph.cache_misses").value == 1
        assert METRICS.counter("session.graph.cache_hits").value == 0
        session.graph()
        assert METRICS.counter("session.graph.cache_misses").value == 1
        assert METRICS.counter("session.graph.cache_hits").value == 1
        assert METRICS.histogram("session.graph.seconds").count == 1

    def test_query_cache_and_evaluate_latency(self, bib_config):
        session = Session(bib_config, seed=42)
        session.count_distinct(QUERY)
        session.count_distinct(QUERY)
        assert METRICS.counter("session.query.cache_misses").value == 1
        assert METRICS.counter("session.query.cache_hits").value == 1
        assert METRICS.histogram("session.evaluate.seconds").count == 2


# -- budget aborts --------------------------------------------------------


@pytest.fixture
def abort_log(caplog):
    """caplog attached to the budget's own logger at INFO.

    The handler sits on the emitting logger itself (which stops
    propagating meanwhile, so each record is captured once), and the
    capture does not depend on whether an earlier CLI run stopped the
    ``repro`` root from propagating.
    """
    logger = logging.getLogger("repro.execution.budget")
    logger.addHandler(caplog.handler)
    logger.propagate = False
    try:
        with caplog.at_level(logging.INFO, logger=logger.name):
            yield caplog
    finally:
        logger.propagate = True
        logger.removeHandler(caplog.handler)


class TestBudgetAborts:
    def test_abort_carries_span_path_and_logs(self, bib_graph, abort_log):
        budget = EvaluationBudget(timeout_seconds=0.0, max_rows=10).start()
        with TRACER.recording():
            with TRACER.span("engine.evaluate"), TRACER.span("engine.conjunct"):
                with pytest.raises(EngineBudgetExceeded) as excinfo:
                    budget.check_rows(11)
        assert excinfo.value.span_path == "engine.evaluate/engine.conjunct"
        assert excinfo.value.elapsed_seconds is not None
        assert METRICS.counter("engine.budget_aborts").value == 1
        [record] = [r for r in abort_log.records if "budget abort" in r.message]
        assert record.levelno == logging.INFO
        assert "at engine.evaluate/engine.conjunct" in record.message

    def test_abort_without_tracing_has_no_path(self):
        budget = EvaluationBudget(timeout_seconds=0.0, max_rows=10).start()
        with pytest.raises(EngineBudgetExceeded) as excinfo:
            budget.check_rows(11)
        assert excinfo.value.span_path is None

    def test_untraced_abort_logs_no_warning_and_no_unknown_site(self, abort_log):
        budget = EvaluationBudget(timeout_seconds=0.0, max_rows=10).start()
        with pytest.raises(EngineBudgetExceeded):
            budget.check_rows(11)
        assert not [r for r in abort_log.records if r.levelno >= logging.WARNING]
        [record] = abort_log.records
        assert record.levelno == logging.INFO
        assert record.message.startswith("budget abort after ")
        assert " at " not in record.message and "?" not in record.message


# -- CLI ------------------------------------------------------------------


class TestCli:
    def test_evaluate_profile_writes_ndjson(self, tmp_path, capsys):
        output = tmp_path / "profile.ndjson"
        code = cli_main(
            [
                "evaluate",
                "--scenario", "bib",
                "--nodes", "300",
                "--seed", "1",
                "--query", QUERY,
                "--engine", "datalog",
                "--profile",
                "--profile-output", str(output),
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        count = int(captured.out.strip())
        records = parse_ndjson(output.read_text())
        header = records[0]
        assert header["record"] == "profile"
        assert header["answers"] == count
        conjuncts = [r for r in records if r["record"] == "conjunct"]
        assert conjuncts
        for record in conjuncts:
            assert record["estimated_cardinality"] is not None
            assert record["observed_cardinality"] >= 0
        assert any(r["record"] == "span" for r in records)

    def test_verbose_flag_accepted(self, capsys):
        code = cli_main(
            [
                "-v",
                "evaluate",
                "--scenario", "bib",
                "--nodes", "300",
                "--seed", "1",
                "--query", QUERY,
            ]
        )
        assert code == 0
        assert int(capsys.readouterr().out.strip()) >= 0
