"""Chaos suite: deterministic fault injection over the whole pipeline.

Arms every registered injection point (:data:`repro.execution.faults.
FAULTS`) with every default error kind against a small end-to-end
pipeline (graph generation → workload → evaluation → serialisation) and
asserts the hardened-execution invariants:

* a failed stage never leaves **half-mutated state** — columnar stores
  keep their sorted-unique invariants (``self_check``), Session caches
  never retain artifacts from a failed fill, writers never leave a
  partial or temp file;
* a **retry inside the same injection window succeeds** (plans fire on
  exactly the Nth hit), and its results are byte-equal to a fault-free
  run — failure is transient, not corrupting;
* the injector is **disarmed by default** and a disarmed hit costs one
  ``None`` check (the benchmark no-op probe pins the same thing);
* the **job journal** (PR 10) holds its durability contract under
  faults at the append and replay points: an append fault never leaves
  a partial line, a lost settle record degrades to a safe re-run (never
  a duplicate or divergent result), and a replay fault leaves an empty
  manager whose in-window retry recovers identically.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

import repro.service.jobs  # noqa: F401 — registers the journal fault points
from repro.columnar import PairStore
from repro.execution.faults import FAULT_ERRORS, FAULTS, InjectedFault
from repro.observability.metrics import METRICS
from repro.service.jobs import JobManager
from repro.service.pool import WorkerPool
from repro.session import Session

QUERY_JOIN = "(?x, ?y) <- (?x, authors, ?z), (?z, publishedIn, ?y)"
QUERY_STAR = "(?x, ?y) <- (?x, (authors.authors-)*, ?y)"

#: Every injection point registered at import time, pinned so a silently
#: dropped registration fails loudly here rather than shrinking the sweep.
EXPECTED_POINTS = {
    "columnar.batch_merge",
    "columnar.csr_build",
    "frontier.advance",
    "generation.batch",
    "jobs.journal_append",
    "jobs.journal_replay",
    "sampler.refill",
    "session.graph_cache",
    "session.workload_cache",
    "writers.serialize",
}

#: Points the sweep pipeline is known to exercise (the ``jobs.journal_*``
#: points only fire inside a journaled JobManager, covered separately).
PIPELINE_POINTS = sorted(
    EXPECTED_POINTS - {"jobs.journal_append", "jobs.journal_replay"}
)


def _fresh_session() -> Session:
    return Session.from_scenario("bib", 300, seed=5)


def _pipeline(session: Session, directory, tag: str) -> tuple:
    """One full loop; returns a deterministic fingerprint of its outputs."""
    graph = session.graph()
    graph.self_check()
    workload = session.workload(size=2)
    joined = session.count_distinct(QUERY_JOIN)
    starred = session.count_distinct(QUERY_STAR, "sparql")
    path = directory / f"{tag}.txt"
    lines = session.write_graph(path)
    return (
        graph.statistics().edges,
        len(workload),
        joined,
        starred,
        lines,
    )


def _assert_consistent(session: Session) -> None:
    """The no-half-mutation invariant over everything a session holds."""
    for graph in session._graphs.values():
        graph.self_check()
    for workload in session._workloads.values():
        assert len(workload) > 0


@pytest.fixture(scope="module")
def baseline(tmp_path_factory):
    return _pipeline(
        _fresh_session(), tmp_path_factory.mktemp("baseline"), "base"
    )


def test_registered_points_are_exactly_the_expected_set():
    assert FAULTS.points == EXPECTED_POINTS


def test_injector_disarmed_by_default():
    assert FAULTS.armed is False
    FAULTS.hit("columnar.batch_merge")  # disarmed: a no-op


def test_unknown_point_rejected():
    with pytest.raises(ValueError):
        with FAULTS.inject("no.such.point"):
            pass


class TestFaultSweep:
    @pytest.mark.parametrize("error", FAULT_ERRORS)
    @pytest.mark.parametrize("point", PIPELINE_POINTS)
    def test_every_point_every_error(self, point, error, baseline, tmp_path):
        """Inject ``error`` at the first hit of ``point``; whatever
        breaks, state stays consistent and the in-window retry matches
        the fault-free baseline exactly."""
        session = _fresh_session()
        with FAULTS.inject(point, error, nth=1) as plan:
            try:
                first = _pipeline(session, tmp_path, "first")
            except FAULT_ERRORS:
                first = None
            _assert_consistent(session)
            assert plan.fired == 1, f"{point} never hit by the pipeline"
            retry = _pipeline(session, tmp_path, "retry")
        assert retry == baseline
        if first is not None:
            assert first == baseline
        assert FAULTS.armed is False  # the context manager disarms

    def test_seeded_sweep_is_reproducible(self, baseline, tmp_path):
        """``inject_seeded``: same seed → same (point, error, N) plan."""
        with FAULTS.inject_seeded(1234) as plan_a:
            recorded = (plan_a.point, plan_a.error, plan_a.nth)
        with FAULTS.inject_seeded(1234) as plan_b:
            assert (plan_b.point, plan_b.error, plan_b.nth) == recorded
            session = _fresh_session()
            try:
                _pipeline(session, tmp_path, "seeded")
            except FAULT_ERRORS:
                pass
            _assert_consistent(session)
            assert _pipeline(session, tmp_path, "seeded-retry") == baseline


class TestNthHitSemantics:
    def test_fires_on_exactly_the_nth_hit(self):
        store = PairStore(domain_size=100)
        with FAULTS.inject("columnar.batch_merge", InjectedFault, nth=2):
            assert store.add_batch(
                np.array([1, 2]), np.array([3, 4])
            ) == 2  # hit 1: passes
            with pytest.raises(InjectedFault):
                store.add_batch(np.array([5]), np.array([6]))  # hit 2
            assert store.first.tolist() == [1, 2]  # the failed batch: no trace
            assert store.add_batch(
                np.array([5]), np.array([6])
            ) == 1  # hit 3: the in-window retry lands the same batch
        assert store.first.tolist() == [1, 2, 5]
        assert store.second.tolist() == [3, 4, 6]

    def test_injected_counter_increments(self):
        from repro.observability.metrics import METRICS

        before = METRICS.counter("execution.faults_injected").value
        store = PairStore(domain_size=10)
        with FAULTS.inject("columnar.batch_merge", InjectedFault, nth=1):
            with pytest.raises(InjectedFault):
                store.add_batch(np.array([1]), np.array([2]))
        assert METRICS.counter("execution.faults_injected").value == before + 1


class TestTransactionalMutation:
    def test_failed_add_edges_never_half_mutates(self):
        """The ISSUE invariant: a batch that dies mid-merge leaves the
        graph exactly as it was."""
        session = _fresh_session()
        graph = session.graph()
        label = graph.labels()[0]
        before_count = graph.edge_count
        before_keys = graph.edge_keys(label).copy()
        for error in FAULT_ERRORS:
            with FAULTS.inject("columnar.batch_merge", error, nth=1):
                with pytest.raises(FAULT_ERRORS):
                    graph.add_edges(
                        label,
                        np.array([0, 1], dtype=np.int64),
                        np.array([299, 298], dtype=np.int64),
                    )
            assert graph.edge_count == before_count
            assert np.array_equal(graph.edge_keys(label), before_keys)
            graph.self_check()
        # The same batch succeeds once the injector disarms.
        inserted = graph.add_edges(
            label,
            np.array([0, 1], dtype=np.int64),
            np.array([299, 298], dtype=np.int64),
        )
        assert inserted >= 0
        graph.self_check()

    def test_failed_batch_merge_keeps_built_indexes(self):
        store = PairStore(domain_size=50)
        store.add_batch(np.array([1, 2]), np.array([4, 5]))
        seconds, firsts = store.backward()
        indptr = store.forward_indptr()
        with FAULTS.inject("columnar.batch_merge", MemoryError, nth=1):
            with pytest.raises(MemoryError):
                store.add_batch(np.array([3]), np.array([6]))
        # Nothing lost, nothing stale: the built indexes still describe
        # the store, and the retry lands the batch and refreshes them.
        assert store.backward()[0] is seconds and store.backward()[1] is firsts
        assert store.forward_indptr() is indptr
        store.self_check()
        assert store.add_batch(np.array([3]), np.array([6])) == 1
        assert store.backward()[0].tolist() == [4, 5, 6]
        assert np.diff(store.forward_indptr())[3] == 1
        store.self_check()

    def test_failed_csr_build_retries_clean(self):
        store = PairStore(domain_size=50)
        store.add_batch(np.array([1, 2, 3]), np.array([4, 5, 6]))
        with FAULTS.inject("columnar.csr_build", MemoryError, nth=1):
            with pytest.raises(MemoryError):
                store.backward()
            seconds, firsts = store.backward()  # hit 2: builds
        assert seconds.tolist() == [4, 5, 6]
        assert firsts.tolist() == [1, 2, 3]
        store.self_check()


class TestSessionCacheConsistency:
    def test_graph_cache_never_retains_failed_fill(self):
        session = _fresh_session()
        with FAULTS.inject("session.graph_cache", MemoryError, nth=1):
            with pytest.raises(MemoryError):
                session.graph()
            assert session._graphs == {}, "failed fill left a cache entry"
            graph = session.graph()  # hit 2: fills
        assert session._graphs != {}
        assert graph.statistics().edges == _fresh_session().graph(
        ).statistics().edges

    def test_workload_cache_never_retains_failed_fill(self):
        session = _fresh_session()
        session.graph()
        with FAULTS.inject("session.workload_cache", TimeoutError, nth=1):
            with pytest.raises(TimeoutError):
                session.workload(size=2)
            assert session._workloads == {}
            workload = session.workload(size=2)
        assert len(workload) == 2

    def test_generation_fault_leaves_no_graph_behind(self):
        session = _fresh_session()
        for error in FAULT_ERRORS:
            with FAULTS.inject("generation.batch", error, nth=2):
                with pytest.raises(FAULT_ERRORS):
                    session.graph()
            assert session._graphs == {}
        assert session.graph().statistics().edges > 0

    def test_evaluation_fault_keeps_cached_artifacts_valid(self):
        session = _fresh_session()
        expected = session.count_distinct(QUERY_STAR, "sparql")
        with FAULTS.inject("frontier.advance", MemoryError, nth=1):
            with pytest.raises(MemoryError):
                session.count_distinct(QUERY_STAR, "sparql")
            _assert_consistent(session)
            assert session.count_distinct(QUERY_STAR, "sparql") == expected


RESULT_TEXT = (
    '{"arity": 2, "complete": true, "record": "result", "rows": 1}\n'
    "[7, 9]\n"
)


def _journaled_manager(tmp_path, runner=None):
    pool = WorkerPool(workers=1, max_queue=4)
    manager = JobManager(
        pool,
        runner or (lambda payload, token: RESULT_TEXT),
        journal_path=str(tmp_path / "jobs.ndjson"),
        backoff_base=0.01, backoff_cap=0.05,
    )
    return manager, pool


def _journal_lines(tmp_path) -> list[dict]:
    """Every journal line, asserting each is a whole JSON record."""
    path = tmp_path / "jobs.ndjson"
    if not path.exists():
        return []
    raw = path.read_bytes()
    assert raw == b"" or raw.endswith(b"\n"), "journal ends in a partial line"
    return [json.loads(line) for line in raw.decode().splitlines() if line]


class TestJobJournalChaos:
    def test_append_fault_at_submit_is_transactional(self, tmp_path):
        """A failed submit append fails the submit and leaves nothing —
        no in-memory job, no partial journal line; the in-window retry
        lands the same job."""
        manager, pool = _journaled_manager(tmp_path)
        try:
            with FAULTS.inject("jobs.journal_append", InjectedFault, nth=1):
                with pytest.raises(InjectedFault):
                    manager.submit({"q": 1})
                assert manager.jobs() == []
                assert _journal_lines(tmp_path) == []
                record, created = manager.submit({"q": 1})  # hit 2: passes
                assert created and record.done.wait(5.0)
                assert record.state == "succeeded"
            kinds = [entry["record"] for entry in _journal_lines(tmp_path)]
            assert kinds[0] == "submit" and kinds[-1] == "done"
        finally:
            manager.stop(), pool.shutdown(), manager.close()

    def test_lost_settle_record_degrades_to_a_safe_rerun(self, tmp_path):
        """A fault on the ``done`` append is absorbed (the live job still
        succeeds); after a restart the job re-runs to the identical
        result instead of serving a stale or duplicate one."""
        manager, pool = _journaled_manager(tmp_path)
        errors = METRICS.counter("service.jobs.journal_errors")
        before = errors.value
        # Appends for one clean job: submit, state(running), done.
        with FAULTS.inject("jobs.journal_append", InjectedFault, nth=3):
            record, _ = manager.submit({"q": 1})
            assert record.done.wait(5.0)
            assert record.state == "succeeded"  # best-effort: not failed
        assert errors.value == before + 1
        entries = _journal_lines(tmp_path)
        assert [e["record"] for e in entries] == ["submit", "state"]
        manager.stop(), pool.shutdown(), manager.close()

        calls: list[int] = []

        def runner(payload, token):
            calls.append(1)
            return RESULT_TEXT

        revived, pool2 = _journaled_manager(tmp_path, runner)
        try:
            assert revived.recover() == 1  # no done record: re-queued
            replayed = revived.get(record.job_id)
            assert replayed.done.wait(5.0)
            assert calls == [1]  # exactly one re-run, no duplicates
            assert "".join(
                revived.result_stream(record.job_id)
            ) == RESULT_TEXT
        finally:
            revived.stop(), pool2.shutdown(), revived.close()

    def test_replay_fault_leaves_empty_manager_then_recovers(self, tmp_path):
        manager, pool = _journaled_manager(tmp_path)
        record, _ = manager.submit({"q": 1})
        assert record.done.wait(5.0)
        manager.stop(), pool.shutdown(), manager.close()

        calls: list[int] = []

        def runner(payload, token):
            calls.append(1)
            return RESULT_TEXT

        revived, pool2 = _journaled_manager(tmp_path, runner)
        try:
            with FAULTS.inject("jobs.journal_replay", InjectedFault, nth=1):
                with pytest.raises(InjectedFault):
                    revived.recover()
                assert revived.jobs() == []  # transactional: nothing partial
                assert revived.recover() == 0  # in-window retry replays all
            replayed = revived.get(record.job_id)
            assert replayed.state == "succeeded" and replayed.recovered
            assert calls == []  # completed job served, never re-run
            assert "".join(
                revived.result_stream(record.job_id)
            ) == RESULT_TEXT
        finally:
            revived.stop(), pool2.shutdown(), revived.close()

    def test_seeded_journal_chaos_round_trip(self, tmp_path):
        """Whatever a seeded plan does to the journal points, a journaled
        submit→settle→recover loop either fails cleanly or converges to
        the same result — and the journal never holds a partial line."""
        for seed in range(4):
            directory = tmp_path / f"seed{seed}"
            directory.mkdir()
            manager, pool = _journaled_manager(directory)
            try:
                with FAULTS.inject_seeded(seed) as plan:
                    if not plan.point.startswith("jobs."):
                        continue  # this seed targets another subsystem
                    try:
                        record, _ = manager.submit({"q": seed})
                        assert record.done.wait(5.0)
                    except FAULT_ERRORS:
                        pass
                    _journal_lines(directory)  # whole lines, always
                    record, _ = manager.submit({"q": seed})
                    assert record.done.wait(5.0)
                    assert record.state == "succeeded"
            finally:
                manager.stop(), pool.shutdown(), manager.close()


class TestNestedInjection:
    def test_nested_blocks_compose_and_unwind(self):
        store = PairStore(domain_size=50)
        with FAULTS.inject("columnar.batch_merge", InjectedFault, nth=1):
            with FAULTS.inject("columnar.csr_build", MemoryError, nth=1):
                assert len(FAULTS._plans) == 2
                with pytest.raises(InjectedFault):
                    store.add_batch(np.array([1]), np.array([2]))
            assert set(FAULTS._plans) == {"columnar.batch_merge"}
        assert FAULTS.armed is False
        assert store.add_batch(np.array([1]), np.array([2])) == 1
