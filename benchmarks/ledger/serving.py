"""The serving phases: ``gmark serve`` as a subprocess, driven through
``ServiceClient`` by two closed-loop clients.

Everything is observed from outside the server: client-side clocks,
``GET /metrics``, ``GET /healthz`` and ``/proc/<pid>``.
"""

from __future__ import annotations

import json
import os
import random
import select
import signal
import subprocess
import sys
import threading
import time
from collections import defaultdict

from benchmarks.ledger import loadgen
from benchmarks.ledger import workloads as W
from benchmarks.ledger.pipeline import Phase, RunState, Window, best
from benchmarks.ledger.stats import median, percentile, timing_summary

BOOT_TIMEOUT_S = 60.0
DRAIN_TIMEOUT_S = 60.0
HTTP_TIMEOUT_S = 60.0
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")
_PAGE_BYTES = os.sysconf("SC_PAGE_SIZE")


class ServerProcess:
    """One ``python -m repro serve`` child on an ephemeral port."""

    def __init__(self, source_dir: str, scratch: str, name: str,
                 cache_bytes: int | None = None):
        self.journal = os.path.join(scratch, name + ".journal.ndjson")
        self._log_path = os.path.join(scratch, name + ".log")
        self._command = [
            sys.executable, "-m", "repro", "serve", "--port", "0",
            "--workers", str(W.SERVE_WORKERS),
            "--journal", self.journal,
            "--cache-capacity", "64",
        ]
        if cache_bytes is not None:
            self._command += ["--cache-bytes", str(cache_bytes)]
        self._env = {**os.environ, "PYTHONPATH": source_dir}
        self._process: subprocess.Popen | None = None
        self._log = None
        self.port = 0

    @property
    def pid(self) -> int:
        return self._process.pid

    def start(self) -> float:
        """Boot and wait until ``/healthz`` answers; returns the seconds."""
        started = time.perf_counter()
        self._log = open(self._log_path, "wb")
        self._process = subprocess.Popen(
            self._command, env=self._env, stdout=subprocess.PIPE,
            stderr=self._log)
        try:
            ready, _, _ = select.select(
                [self._process.stdout], [], [], BOOT_TIMEOUT_S)
            banner = self._process.stdout.readline().decode() if ready else ""
            if "serving on http://" not in banner:
                raise RuntimeError(f"server did not start: {banner!r}")
            address = banner.split("serving on http://", 1)[1].split()[0]
            self.port = int(address.rsplit(":", 1)[1])
            with self.client() as client:
                if client.healthz().get("status") != "ok":
                    raise RuntimeError("server is not healthy after boot")
        except BaseException:
            self.stop()
            raise
        return time.perf_counter() - started

    def client(self, sleep=time.sleep):
        from repro.service import ServiceClient

        return ServiceClient("127.0.0.1", self.port, timeout=HTTP_TIMEOUT_S,
                             sleep=sleep)

    def stop(self) -> float:
        """SIGTERM, wait for the drain to finish; returns the seconds."""
        process, self._process = self._process, None
        if process is None:
            return 0.0
        started = time.perf_counter()
        try:
            if process.poll() is None:
                process.send_signal(signal.SIGTERM)
            process.wait(DRAIN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
        finally:
            process.stdout.close()
            if self._log is not None:
                self._log.close()
        return time.perf_counter() - started

    # -- observation from outside --------------------------------------

    def observe(self) -> dict:
        """The server's readings now, from outside: every ``GET /metrics``
        counter and gauge (histograms as ``name:count`` / ``name:total``),
        CPU seconds from ``/proc`` and the journal's size."""
        readings: dict = {}
        with self.client() as client:
            _, _, body = client.request("GET", "/metrics")
        for line in body.decode().splitlines():
            record = json.loads(line)
            if "value" in record:
                readings[record["name"]] = float(record["value"])
            else:
                readings[record["name"] + ":count"] = float(record["count"])
                readings[record["name"] + ":total"] = float(record["total"])
        with open(f"/proc/{self.pid}/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        readings["cpu_s"] = (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS
        try:
            readings["journal_bytes"] = os.path.getsize(self.journal)
        except FileNotFoundError:   # created by the first submission
            readings["journal_bytes"] = 0
        return readings

    def rss_mb(self) -> float:
        with open(f"/proc/{self.pid}/statm", encoding="ascii") as handle:
            return int(handle.read().split()[1]) * _PAGE_BYTES / 2**20


class HealthSampler:
    """Polls ``GET /healthz`` at 10 Hz for the deepest queue seen."""

    def __init__(self, server: ServerProcess):
        self.queue_depth_max = 0
        self._stop = threading.Event()
        self._client = server.client()
        self._thread = threading.Thread(target=self._poll, daemon=True)
        self._thread.start()

    def _poll(self) -> None:
        from repro.service.client import ServiceUnavailable

        while not self._stop.wait(0.1):
            try:
                depth = self._client.healthz().get("queue_depth", 0)
            except (ServiceUnavailable, OSError):
                return
            self.queue_depth_max = max(self.queue_depth_max, depth)

    def stop(self) -> int:
        self._stop.set()
        self._thread.join(5.0)
        self._client.close()
        return self.queue_depth_max


class _RetryCounter:
    """``ServiceClient``'s sleep hook: it sleeps only before a retry."""

    def __init__(self):
        self.retries = 0

    def __call__(self, seconds: float) -> None:
        self.retries += 1
        time.sleep(seconds)


def parse_reply(body: bytes) -> tuple[int, bool]:
    """``(header rows, rows == NDJSON line count - 1)`` of a reply."""
    header, _, _ = body.partition(b"\n")
    rows = json.loads(header)["rows"]
    return rows, rows == body.count(b"\n") - 1


# -- serve-warm ---------------------------------------------------------------

class ServeWarm(Phase):
    """Closed loop over keep-alive connections, working set in the cache.

    A window is one cycle of the warm traffic: every text evaluated
    once (``POST /v1/evaluate``, streamed NDJSON) and every fourth also
    run as a durable job (submit, poll every ``JOB_POLL_S``, fetch the
    bytes).  Windows alternate between two clients, which give
    ``serve_rps`` (the best cycle), and one client, which gives the
    latencies (every text at its best reply time, then percentiles over
    the texts).  The
    server runs under one interpreter lock, so with two clients half the
    replies wait behind the other client's request and the median sits
    on the knee between the two cases: 2 ms or 11 ms from one run to
    the next.
    """

    name = "serve-warm"
    window_kinds = 2      # two clients and one, alternating

    def __init__(self, run: RunState, server: ServerProcess, texts: list):
        super().__init__(run)
        self.server = server
        self.texts = texts
        self.expected: dict[int, bytes] = {}
        self.retry_counter = _RetryCounter()
        self.clients = [server.client(self.retry_counter)
                        for _ in range(W.SERVE_CLIENTS)]
        self.rng = random.Random(run.seed)
        self.sent = 0
        self.windows: list[Window] = []        # two clients: throughput
        self.alone: list[Window] = []          # one client: latency
        self.server_side: list[tuple[dict, dict]] = []

    def payload(self, text_index: int) -> dict:
        return {"scenario": "bib", "nodes": self.run.profile.bib_nodes,
                "seed": W.INSTANCE_SEED, "query": self.texts[text_index],
                "max_rows": W.SERVE_MAX_ROWS, "on_budget": "partial"}

    def warm_pass(self) -> None:
        """Ensure the graph and request every text once; the replies are
        what every later reply for the same text must equal."""
        client = self.clients[0]
        client.ensure_graph("bib", self.run.profile.bib_nodes,
                            seed=W.INSTANCE_SEED)
        for index, text in enumerate(self.texts):
            status, body = client.evaluate(self.payload(index))
            if status != 200:
                raise RuntimeError(
                    f"warm pass: {text!r} -> {status} {body[:200]!r}")
            _, consistent = parse_reply(body)
            self.run.check(consistent, "serve: header rows != NDJSON lines - 1")
            self.expected[index] = body

    def cycle(self, job_every: int = W.JOB_EVERY) -> list:
        return loadgen.request_cycle(self.rng, len(self.texts), job_every)

    def send(self, worker: int, item, index: int):
        from repro.service.client import ServiceUnavailable

        kind, text_index = item
        client = self.clients[worker]
        payload = self.payload(text_index)
        try:
            if kind == "evaluate":
                status, body = client.evaluate(payload)
                info = {"bytes": len(body)}
            else:
                status, body, info = self._job(client, payload, index)
        except (ServiceUnavailable, OSError) as exc:
            return kind, False, {"error": repr(exc)}
        info["text"] = text_index
        if status != 200:
            return kind, False, {"status": status}
        if body != self.expected[text_index]:
            self.run.check(False, f"serve: {kind} reply differs for text "
                                  f"{text_index}")
        return kind, True, info

    def _job(self, client, payload: dict, index: int):
        """Submit, poll the result every ``JOB_POLL_S``, fetch the bytes."""
        payload["idempotency_key"] = f"{self.run.seed}-{index}"
        started = time.perf_counter()
        job = client.submit_job(payload)
        submit_ms = (time.perf_counter() - started) * 1e3
        polls = 0
        while True:
            status, body = client.job_result(job["job_id"])
            if status != 404:
                break
            polls += 1
            time.sleep(W.JOB_POLL_S)
        return status, body, {"bytes": len(body), "polls": polls,
                              "submit_ms": submit_ms}

    def round(self) -> None:
        run = self.run
        before = self.server.observe() if run.traced else None
        together = self.rounds % 2 == 0
        # Alone, every text also runs as a job: the median turn-around
        # is then over all texts, not over the few of the 80/20 mix,
        # where one text landing on the next poll moved it by 20 %.
        items = self.cycle() if together else self.cycle(job_every=1)
        samples, elapsed = loadgen.run_closed_loop(
            items, W.SERVE_CLIENTS if together else 1, self.send,
            first_index=self.sent)
        self.sent += len(items)
        if run.traced:
            self.server_side.append((before, self.server.observe()))
            for sample in samples:
                run.spans.add("service.request." + sample.kind, sample.start,
                              sample.end)
        good = [s for s in samples if s.ok]
        run.attempted += len(samples)
        run.failed += len(samples) - len(good)
        (self.windows if together else self.alone).append(
            Window(elapsed, len(good), good))

    def series(self) -> dict[str, list[Window]]:
        return {"two-clients": self.windows, "one-client": self.alone}

    def finish(self) -> None:
        run = self.run
        run.metrics["serve_rps"] = best(self.windows).rate
        fastest: dict[tuple, float] = {}
        for window in self.alone:
            for sample in window.samples:
                key = (sample.kind, sample.info["text"])
                fastest[key] = min(fastest.get(key, float("inf")),
                                   sample.latency_ms)
        evaluations = [v for (kind, _), v in fastest.items()
                       if kind == "evaluate"]
        jobs = [v for (kind, _), v in fastest.items() if kind == "job"]
        run.metrics["serve_p50_ms"] = median(evaluations)
        run.metrics["serve_p95_ms"] = percentile(evaluations, 95.0)
        run.metrics["serve_job_p50_ms"] = median(jobs)
        every = [s.latency_ms for window in self.alone
                 for s in window.samples if s.kind == "evaluate"]
        run.facts["serve-warm"] = {
            "texts": len(self.texts), "job_texts": len(jobs),
            "clients": W.SERVE_CLIENTS, "loop": "closed",
            "poll_s": W.JOB_POLL_S,
            "evaluate_latency_ms_all_replies": timing_summary(every),
        }
        if run.traced:
            self._layers()

    def _layers(self) -> None:
        layers = self.run.layers
        every = [s for window in self.windows + self.alone
                 for s in window.samples]
        evaluations = [s for s in every if s.kind == "evaluate"]
        jobs = [s for s in every if s.kind == "job"]
        delta = _summed(self.server_side)
        hits, misses = delta["service.cache.hit"], delta["service.cache.miss"]
        layers["service.store.hit_rate"] = hits / max(hits + misses, 1.0)
        layers["service.server.request_mean_ms"] = 1e3 * (
            delta["service.request.evaluate.seconds:total"]
            / max(delta["service.request.evaluate.seconds:count"], 1.0))
        layers["service.server_cpu_ms_per_request"] = (
            1e3 * delta["cpu_s"] / max(len(every), 1))
        layers["service.server_rss_mb"] = self.server.rss_mb()
        layers["service.pool.rejected"] = delta["service.queue.rejected"]
        layers["service.jobs.deduplicated"] = delta["service.jobs.deduplicated"]
        layers["service.client.retries"] = self.retry_counter.retries
        layers["service.stream.mb_per_s"] = (
            sum(s.info["bytes"] for s in evaluations) / 1e6
            / max(sum(s.latency_ms for s in evaluations) / 1e3, 1e-9))
        layers["service.jobs.submit_p50_ms"] = median(
            [s.info["submit_ms"] for s in jobs])
        layers["service.jobs.polls_per_job"] = (
            sum(s.info["polls"] for s in jobs) / len(jobs))
        layers["service.jobs.journal_bytes_per_result_byte"] = (
            delta["journal_bytes"] / max(sum(s.info["bytes"] for s in jobs), 1))

    def open_loop(self) -> None:
        """Traced pass only, un-gated: the warm traffic on a fixed
        schedule at a share of the measured closed-loop rate, timed from
        each request's due time."""
        run = self.run
        rate = W.OPEN_LOOP_SHARE * run.metrics["serve_rps"]
        count = max(20, int(rate * W.OPEN_LOOP_SECONDS))
        items = []
        while len(items) < count:
            items.extend(self.cycle())
        with run.spans.span("window.open-loop"):
            samples = loadgen.run_open_loop(
                items, rate, count, W.SERVE_CLIENTS,
                lambda worker, item, index: self.send(
                    worker, item, self.sent + index))
        self.sent += count
        run.attempted += len(samples)
        run.failed += sum(1 for s in samples if not s.ok)
        latencies = [s.latency_ms for s in samples if s.ok]
        run.layers["service.openloop.rate_rps"] = rate
        run.layers["service.openloop.p50_ms"] = median(latencies)
        run.layers["service.openloop.p95_ms"] = percentile(latencies, 95.0)
        run.layers["loadgen.late_p95_ms"] = percentile(
            [s.late_ms for s in samples], 95.0)

    def close(self) -> None:
        for client in self.clients:
            client.close()


def _summed(pairs: list[tuple[dict, dict]]) -> dict:
    """Sum of ``after - before`` over the observed windows, per reading."""
    total: dict = defaultdict(float)
    for before, after in pairs:
        for name, value in after.items():
            total[name] += value - before.get(name, 0.0)
    return total


# -- serve-churn --------------------------------------------------------------

def churn_keys(run: RunState) -> list[tuple[str, int]]:
    return [(scenario, run.seed + offset)
            for scenario in W.CHURN_SCENARIOS
            for offset in range(W.CHURN_SEEDS_PER_SCENARIO)]


def churn_cache_bytes(run: RunState) -> int:
    """``--cache-bytes`` holding about a third of the churn key set,
    sized from one in-process instance per churn scenario."""
    from repro import GraphConfiguration, generate_graph
    from repro.scenarios import scenario_schema

    total = 0
    for scenario in W.CHURN_SCENARIOS:
        graph = generate_graph(
            GraphConfiguration(run.profile.churn_nodes,
                               scenario_schema(scenario)),
            seed=W.INSTANCE_SEED)
        total += graph.nbytes * W.CHURN_SEEDS_PER_SCENARIO
    return int(total * W.CHURN_CACHE_SHARE)


class ServeChurn(Phase):
    """Closed loop, two clients, a key set three times the cache.

    A window is one block of ``loadgen.scan_block``; every request is a
    cheap single-label evaluation on the graph its key names, so a miss
    pays for generating that graph inside the request.  ``churn_rps`` is
    the best block.
    """

    name = "serve-churn"

    def __init__(self, run: RunState, server: ServerProcess):
        super().__init__(run)
        self.server = server
        self.clients = [server.client() for _ in range(W.SERVE_CLIENTS)]
        self.block = loadgen.scan_block(run.seed, churn_keys(run))
        self.rows: dict[tuple, int] = {}
        self.windows: list[Window] = []
        self.server_side: list[tuple[dict, dict]] = []

    def send(self, worker: int, item, index: int):
        from repro.service.client import ServiceUnavailable

        scenario, seed = item
        payload = {
            "scenario": scenario, "nodes": self.run.profile.churn_nodes,
            "seed": seed,
            "query": f"(?x, ?y) <- (?x, {W.CHURN_LABELS[scenario]}, ?y)",
        }
        try:
            status, body = self.clients[worker].evaluate(payload)
        except (ServiceUnavailable, OSError) as exc:
            return "evaluate", False, {"error": repr(exc)}
        if status != 200:
            return "evaluate", False, {"status": status}
        rows, consistent = parse_reply(body)
        # A regenerated key must give the answer it gave before eviction.
        if not consistent or not rows or self.rows.setdefault(item, rows) != rows:
            self.run.check(False, f"churn: inconsistent reply for {item}")
        return "evaluate", True, None

    def round(self) -> None:
        run = self.run
        before = self.server.observe() if run.traced else None
        samples, elapsed = loadgen.run_closed_loop(
            self.block, W.SERVE_CLIENTS, self.send)
        if run.traced:
            self.server_side.append((before, self.server.observe()))
            for sample in samples:
                run.spans.add("service.request.churn", sample.start,
                              sample.end)
        good = [s for s in samples if s.ok]
        run.attempted += len(samples)
        run.failed += len(samples) - len(good)
        self.windows.append(Window(elapsed, len(good), good))

    def finish(self) -> None:
        run = self.run
        run.metrics["churn_rps"] = best(self.windows).rate
        run.facts["serve-churn"] = {
            "keys": len(churn_keys(run)), "block": len(self.block),
            "nodes": run.profile.churn_nodes, "clients": W.SERVE_CLIENTS,
            "loop": "closed",
        }
        if not run.traced:
            return
        layers = run.layers
        delta = _summed(self.server_side)
        hits, misses = delta["service.cache.hit"], delta["service.cache.miss"]
        adopted = delta["service.cache.inflight"]
        layers["service.churn.hit_rate"] = hits / max(hits + misses, 1.0)
        layers["service.store.evicted"] = delta["service.cache.evicted"]
        layers["service.store.adopted"] = adopted
        layers["service.store.bytes"] = self.server_side[-1][1][
            "service.cache.bytes"]
        # The server counts fills; it does not say which request paid for
        # one.  A fill (or waiting for a racing one) costs several times a
        # hit, so the slowest ``misses + adopted`` replies are the miss path.
        latencies = sorted(s.latency_ms for window in self.windows
                           for s in window.samples)
        slow = min(int(misses + adopted), len(latencies) - 1)
        cut = len(latencies) - slow
        layers["service.churn.hit_p50_ms"] = median(latencies[:cut])
        layers["service.churn.miss_p50_ms"] = (
            median(latencies[cut:]) if slow else 0.0)

    def series(self) -> dict[str, list[Window]]:
        return {"blocks": self.windows}

    def close(self) -> None:
        for client in self.clients:
            client.close()
