"""Unit tests of the ledger's own machinery (no server, < 3 s)."""

from __future__ import annotations

import json
import os
import random
import re

import pytest

from benchmarks.ledger import loadgen, stats
from benchmarks.ledger import workloads as W
from benchmarks.ledger.compare import verdict
from benchmarks.ledger.pipeline import Window, best, pooled_rate
from benchmarks.ledger.runner import interleave
from benchmarks.ledger.spans import Span, SpanRecorder, self_time

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


# -- the ">= 10 samples beyond" percentile rule --------------------------------

@pytest.mark.parametrize("count, expected", [
    (39, None), (40, 75.0), (99, 75.0), (100, 90.0), (199, 90.0),
    (200, 95.0), (999, 95.0), (1000, 99.0), (10_000, 99.9),
])
def test_highest_supported_percentile(count, expected):
    assert stats.highest_supported_percentile(count) == expected


def test_timing_summary_states_count_and_tail():
    summary = stats.timing_summary(list(range(1, 201)))
    assert summary == {"count": 200, "p50": 100.5,
                       "tail_percentile": 95.0, "tail": 190.0}
    assert "tail" not in stats.timing_summary([1.0, 2.0, 3.0])


def test_percentile_is_nearest_rank():
    assert stats.percentile([5, 1, 3, 2, 4], 50) == 3
    assert stats.percentile([5, 1, 3, 2, 4], 100) == 5
    assert stats.percentile([7], 95) == 7


def test_quartile_spread_is_iqr_over_median():
    values = [10.0, 11.0, 12.0, 13.0, 14.0]
    assert stats.quartile_spread(values) == pytest.approx(3.0 / 12.0)


# -- span self time -------------------------------------------------------------

def test_self_time_subtracts_the_union_of_overlapping_children():
    parent = Span(0, "phase", None, "w", start=0.0, end=10.0)
    children = [
        Span(1, "a", 0, "w", start=1.0, end=4.0),
        Span(2, "b", 0, "w", start=3.0, end=6.0),    # overlaps a
        Span(3, "c", 0, "w", start=8.0, end=12.0),   # runs past the parent
    ]
    # covered: [1, 6] and [8, 10] = 7 of the parent's 10
    assert self_time(parent, children) == pytest.approx(3.0)
    assert self_time(parent, []) == pytest.approx(10.0)


def test_recorder_nests_per_thread_and_writes_every_field(tmp_path):
    ticks = iter(range(100))
    recorder = SpanRecorder("serve-warm", True, clock=lambda: float(next(ticks)))
    with recorder.span("outer") as outer:
        with recorder.span("inner", scenario="bib"):
            pass
        recorder.add("timed-elsewhere", 1.0, 1.5, parent=outer.span_id)
    assert [(s.name, s.parent) for s in recorder.spans] == [
        ("outer", None), ("inner", 0), ("timed-elsewhere", 0)]
    assert recorder.self_times()["outer"] == pytest.approx(3.0 - 1.0)
    assert recorder.total("inner", scenario="bib") == pytest.approx(1.0)
    assert recorder.total("inner", scenario="lsn") == 0.0
    path = tmp_path / "trace.ndjson"
    recorder.write_ndjson(path)
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(records) == 3
    for record in records:
        assert {"name", "start", "end", "parent", "workload"} <= set(record)
        assert record["workload"] == "serve-warm"


def test_disabled_recorder_records_nothing_and_reads_no_clock():
    def clock():
        raise AssertionError("a disabled recorder must not read the clock")

    recorder = SpanRecorder("graph-gen", False, clock=clock)
    with recorder.span("anything"):
        recorder.add("x", 0.0, 1.0)
    assert recorder.spans == []


# -- open loop on a fake clock ---------------------------------------------------

class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        assert seconds > 0
        self.now += seconds


def test_open_loop_times_from_the_due_time():
    clock = FakeClock()
    service_s = [0.05, 0.35, 0.05, 0.05]   # the second reply stalls

    def send(worker, item, index):
        clock.now += service_s[index]
        return "evaluate", True, None

    samples = loadgen.run_open_loop(
        ["a", "b", "c", "d"], rate=10.0, count=4, senders=1, send=send,
        clock=clock, sleep=clock.sleep)
    assert [s.due - 100.0 for s in samples] == pytest.approx([0, .1, .2, .3])
    # 0 and 1 start on time; 1 ends at 0.45, so 2 (due 0.2) starts 0.25
    # late and 3 (due 0.3) starts at 0.5, 0.2 late.
    assert [s.late_ms for s in samples] == pytest.approx([0, 0, 250, 200])
    # latency is counted from the due time: the stall is charged to the
    # requests it delayed, not just to the one that stalled.
    assert [s.latency_ms for s in samples] == pytest.approx([50, 350, 300, 250])


def test_closed_loop_sends_the_next_item_when_the_reply_arrived():
    clock = FakeClock()

    def send(worker, item, index):
        clock.now += 0.3
        return "evaluate", item != "bad", (item, index)

    samples, elapsed = loadgen.run_closed_loop(
        ["ok", "bad", "ok"], clients=1, send=send, first_index=40, clock=clock)
    assert [s.info for s in samples] == [("ok", 40), ("bad", 41), ("ok", 42)]
    assert [s.ok for s in samples] == [True, False, True]
    assert [s.start - 100.0 for s in samples] == pytest.approx([0, .3, .6])
    assert elapsed == pytest.approx(0.9)


# -- seeded inputs -----------------------------------------------------------------

def test_scan_block_is_deterministic_and_every_block_does_the_same_work():
    keys = [(s, n) for s in "abc" for n in range(4)]
    first = loadgen.scan_block(7, keys)
    assert first == loadgen.scan_block(7, keys)
    other = loadgen.scan_block(8, keys)
    assert first != other
    # the seed permutes the keys, never the reuse pattern: A A B B A B
    for block in (first, other):
        assert len(block) == 36
        assert sorted(block.count(key) for key in keys) == [3] * 12
        a, b = block[0], block[2]
        assert block[:6] == [a, a, b, b, a, b] and a != b
    # LRU over the block: a key is never re-used once the scan moved on
    last_seen = {key: max(i for i, k in enumerate(first) if k == key)
                 for key in keys}
    first_seen = {key: first.index(key) for key in keys}
    assert all(last_seen[key] - first_seen[key] <= 5 for key in keys)


def test_request_cycle_is_deterministic_and_carries_the_same_work():
    def cycles(seed):
        rng = random.Random(seed)
        return [loadgen.request_cycle(rng, texts=13, job_every=4)
                for _ in range(3)]

    assert cycles(7) == cycles(7)
    assert cycles(7) != cycles(8)
    for cycle in cycles(7) + cycles(8):
        assert sorted(cycle) == sorted(
            [("evaluate", t) for t in range(13)]
            + [("job", t) for t in (0, 4, 8, 12)])


# -- the best-time rule ------------------------------------------------------------------

def test_best_picks_the_fastest_repetition_and_rates_sum_best_times():
    slow, fast = Window(2.0, 100), Window(1.0, 100)
    assert best([slow, fast, Window(1.5, 100)]) is fast
    # two units of work: 100 in 1.0 s at best, 50 in 0.5 s at best
    assert pooled_rate([[slow, fast], [Window(0.5, 50), Window(0.9, 50)]]) \
        == pytest.approx(150 / 1.5)


def test_interleave_keeps_shares_and_minimum_repetitions():
    clock = FakeClock()

    class Fake:
        window_kinds = 1

        def __init__(self, cost):
            self.cost, self.rounds = cost, 0

        def window(self):
            clock.now += self.cost
            self.rounds += 1

    phases = {"a": Fake(0.1), "b": Fake(0.1), "c": Fake(1.0)}
    interleave(phases, {"a": 0.6, "b": 0.3, "c": 0.1}, seconds=10.0,
               repetitions=3, clock=clock)
    assert phases["c"].rounds == 3           # its minimum, over its share
    assert phases["a"].rounds == pytest.approx(2 * phases["b"].rounds, abs=2)
    assert clock.now - 100.0 >= 10.0


# -- compare ------------------------------------------------------------------------

def test_verdict_ok_regressed_unresolved():
    higher = W.Metric("x", "1/s", "higher", 0.10)
    lower = W.Metric("y", "ms", "lower", 0.10)
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert verdict(higher, steady, [v * 0.95 for v in steady])["status"] == "ok"
    assert verdict(higher, steady, [v * 0.85 for v in steady])["status"] == "regressed"
    assert verdict(higher, steady, [v * 1.30 for v in steady])["status"] == "ok"
    assert verdict(lower, steady, [v * 1.15 for v in steady])["status"] == "regressed"
    assert verdict(lower, steady, [v * 0.80 for v in steady])["status"] == "ok"
    noisy = [60.0, 100.0, 140.0, 80.0, 120.0]
    assert verdict(higher, steady, noisy)["status"] == "unresolved"
    row = verdict(lower, [10.0], [10.5])
    assert row["spread"] is None and row["status"] == "ok"
    assert row["ratio"] == pytest.approx(1.05)


# -- BENCHMARK.json agrees with what the runner emits -----------------------------------

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_benchmark_json_matches_the_declarations():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)
    assert set(declared) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert declared["paths"] == ["benchmarks/ledger"]
    assert [w["name"] for w in declared["workloads"]] == list(W.WORKLOADS)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in declared["workloads"])
    assert declared["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in W.END_TO_END]
    assert declared["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in W.PER_LAYER]
    names = [m.name for m in W.END_TO_END + W.PER_LAYER] + list(W.WORKLOADS)
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert len(W.END_TO_END) == 13 and len(W.PER_LAYER) <= 128
    assert all(0 < m.bound <= 0.25 for m in W.END_TO_END)
    assert any(m.name == "setup_s" and m.unit == "s" and m.better == "lower"
               for m in W.END_TO_END)


def test_every_profile_spends_exactly_the_run_and_focuses_its_phase():
    for smoke in (False, True):
        for workload in W.WORKLOADS:
            profile = W.profile_for(workload, smoke)
            assert sum(profile.slices.values()) == pytest.approx(1.0)
            assert max(profile.slices, key=profile.slices.get) == workload
            assert set(profile.slices) == set(W.WORKLOADS)
