"""One workload run: set-up, the five phases, output checks, result.

The process running this *is* the workload's fresh process: peak RSS
and the package's module-level memo caches start from nothing.
"""

from __future__ import annotations

import gc
import json
import logging
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import warnings

from benchmarks.ledger import pipeline, serving
from benchmarks.ledger import workloads as W
from benchmarks.ledger.spans import SpanRecorder

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SOURCE_DIR = os.path.join(ROOT, "src")
RESULTS_DIR = os.path.join(ROOT, "bench_results", "ledger")


class DirtyRun(RuntimeError):
    """The measured pass was not the plain program: numbers are void."""


def provenance(run: pipeline.RunState, load_start: float) -> dict:
    import numpy

    def git(*args: str) -> str | None:
        try:
            done = subprocess.run(["git", *args], cwd=ROOT, timeout=10,
                                  capture_output=True, text=True)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    status = git("status", "--porcelain")
    return {
        "workload": run.workload, "seed": run.seed, "seconds": run.seconds,
        "traced": run.traced,
        "cpus_usable": len(os.sched_getaffinity(0)),
        "load_1m_start": load_start, "load_1m_end": os.getloadavg()[0],
        "python": platform.python_version(), "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_sha": git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "mix_seed": W.MIX_SEED, "instance_seed": W.INSTANCE_SEED,
        "profile": {
            "slices": run.profile.slices,
            "graph_nodes": run.profile.graph_nodes,
            "workload_queries": run.profile.workload_queries,
            "bib_nodes": run.profile.bib_nodes,
            "churn_nodes": run.profile.churn_nodes,
        },
        "eval_max_rows": W.EVAL_MAX_ROWS, "serve_max_rows": W.SERVE_MAX_ROWS,
        "serve_clients": W.SERVE_CLIENTS, "serve_workers": W.SERVE_WORKERS,
        "job_every": W.JOB_EVERY, "job_poll_s": W.JOB_POLL_S,
        "min_windows": W.MIN_WINDOWS,
    }


class _Purity:
    """The end-to-end pass must run the plain program: tracer off, no
    fault plan armed, no governed degradation.  Otherwise refuse."""

    def __init__(self):
        from repro.execution.faults import FAULTS
        from repro.observability.metrics import METRICS
        from repro.observability.trace import TRACER

        self._tracer, self._faults, self._metrics = TRACER, FAULTS, METRICS
        self._spans = TRACER.span_count
        self._degraded = METRICS.counter("execution.degraded").value
        self.verify()

    def verify(self) -> None:
        if self._tracer.enabled or self._tracer.span_count != self._spans:
            raise DirtyRun("repro TRACER was enabled during the measured pass")
        if self._faults.armed:
            raise DirtyRun("a fault plan was armed during the measured pass")
        if self._metrics.counter("execution.degraded").value != self._degraded:
            raise DirtyRun("execution.degraded moved during the measured pass")


def interleave(phases: dict, shares: dict, seconds: float, repetitions: int,
               clock=time.perf_counter) -> None:
    """Run the phases' windows interleaved for ``seconds``.

    The next window always goes to the phase furthest behind its share
    of the time spent so far, so every phase is sampled across the whole
    run (a slow spell of the machine never covers just one of them) and
    still ends with its share.  Every kind of window is run at least
    ``repetitions`` times even if that overruns ``seconds``.
    """
    spent = {name: 0.0 for name in phases}
    deadline = clock() + seconds
    while True:
        behind = [n for n, p in phases.items()
                  if p.rounds < repetitions * p.window_kinds]
        if not behind:
            if clock() >= deadline:
                return
            behind = list(phases)
        name = min(behind, key=lambda n: spent[n] / shares[n])
        started = clock()
        phases[name].window()
        spent[name] += clock() - started


def run_workload(workload: str, seed: int, seconds: float, traced: bool,
                 smoke: bool = False, started: float | None = None,
                 out_dir: str = RESULTS_DIR) -> dict:
    """Run one workload in this process; returns the result document."""
    started = time.perf_counter() if started is None else started
    load_start = os.getloadavg()[0]
    # The workload generator warns when path counts leave int64 and the
    # engines log every abort; neither belongs in a benchmark's output.
    warnings.simplefilter("ignore")
    logging.getLogger("repro").setLevel(logging.ERROR)
    import repro  # import time is part of set-up

    if not os.path.abspath(repro.__file__).startswith(SOURCE_DIR + os.sep):
        raise SystemExit(f"repro was imported from {repro.__file__}, not "
                         f"from this checkout's {SOURCE_DIR}")

    os.makedirs(out_dir, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{workload}-", dir=out_dir)
    run = pipeline.RunState(
        workload=workload, seed=seed, seconds=seconds,
        profile=W.profile_for(workload, smoke),
        spans=SpanRecorder(workload, traced), scratch=scratch)
    purity = _Purity()
    servers: list[serving.ServerProcess] = []
    try:
        # -- set-up: everything before the first timed window ------------
        with run.spans.span("setup"):
            configurations = pipeline.graph_configurations(run)
            inputs = pipeline.prepare_eval(run)
            warm_server = serving.ServerProcess(SOURCE_DIR, scratch, "warm")
            churn_server = serving.ServerProcess(
                SOURCE_DIR, scratch, "churn", serving.churn_cache_bytes(run))
            servers += [warm_server, churn_server]
            with run.spans.span("service.boot"):
                boot_s = warm_server.start()
                churn_server.start()
            # Sorted, so that which texts also run as jobs (every fourth)
            # does not depend on the seeded evaluation order.
            warm_texts = sorted(
                text for text, generated in zip(inputs.texts, inputs.mix)
                if generated.selectivity is not None
                and generated.selectivity.value in ("constant", "linear"))
            phases = {
                "graph-gen": pipeline.GraphGen(run, configurations),
                "workload-gen": pipeline.WorkloadGen(run),
                "workload-eval": pipeline.WorkloadEval(run, inputs),
                "serve-warm": serving.ServeWarm(run, warm_server, warm_texts),
                "serve-churn": serving.ServeChurn(run, churn_server),
            }
            warm = phases["serve-warm"]
            with run.spans.span("setup.warm-pass"):
                warm.warm_pass()
        gc.collect()
        run.metrics["setup_s"] = time.perf_counter() - started
        run.facts["setup"] = {"boot_s": boot_s}

        # -- the measured part ----------------------------------------------
        if traced:
            from benchmarks.ledger import layers

            sampler = serving.HealthSampler(warm_server)
        interleave(phases, run.profile.slices, seconds,
                   W.SMOKE_MIN_WINDOWS if smoke else W.MIN_WINDOWS)
        for phase in phases.values():
            phase.finish()
        run.facts["windows"] = {n: p.rounds for n, p in phases.items()}
        run.facts["paces"] = {n: p.paces() for n, p in phases.items()}
        measured_s = time.perf_counter() - started - run.metrics["setup_s"]
        run.metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        if not traced:
            purity.verify()

        # -- an output check that compares across phases ----------------------
        served = {text: serving.parse_reply(warm.expected[index])[0]
                  for index, text in enumerate(warm_texts)}
        counted = dict(zip(inputs.texts, phases["workload-eval"].counts["D"]))
        for text, rows in served.items():
            run.check(rows == counted[text],
                      f"serve: {text!r} served {rows} rows, in-process "
                      f"count {counted[text]}")

        if traced:
            run.layers["service.pool.queue_depth_max"] = sampler.stop()
            run.layers["service.boot_s"] = boot_s
            warm.open_loop()
            layers.from_spans(run, phases)
            layers.probe(run, configurations, inputs, warm)
        for phase in (warm, phases["serve-churn"]):
            phase.close()
        drain_s = warm_server.stop()
        churn_server.stop()
        if traced:
            run.layers["service.drain_s"] = drain_s
    finally:
        for server in servers:
            server.stop()
        shutil.rmtree(scratch, ignore_errors=True)

    declared = W.PER_LAYER if traced else W.END_TO_END
    values = run.layers if traced else run.metrics
    missing = [m.name for m in declared if m.name not in values]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    document = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m.name: {"value": float(values[m.name]), "unit": m.unit}
                    for m in declared},
        "problems": run.problems,
        "wall_s": time.perf_counter() - started,
        "measured_s": measured_s,
        "facts": run.facts,
        "provenance": provenance(run, load_start),
    }
    if traced:
        document["end_to_end_under_tracing"] = dict(run.metrics)
        document["self_time_s"] = run.spans.self_times()
    path = result_path(out_dir, workload, seed, traced)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    if traced:
        run.spans.write_ndjson(path.replace(".traced.json", ".trace.ndjson"))
    return document


def result_path(out_dir: str, workload: str, seed: int, traced: bool) -> str:
    kind = ".traced.json" if traced else ".json"
    return os.path.join(out_dir, f"{workload}.s{seed}{kind}")


def result_line(document: dict) -> str:
    """The driver's last line: exactly correct/attempted/failed/metrics."""
    return json.dumps({key: document[key] for key in
                       ("correct", "attempted", "failed", "metrics")})


def print_report(document: dict, stream=sys.stdout) -> None:
    prov = document["provenance"]
    print(f"== {prov['workload']} (seed {prov['seed']}, "
          f"{'traced' if prov['traced'] else 'end-to-end'}, "
          f"{document['wall_s']:.1f}s wall) ==", file=stream)
    for name, metric in document["metrics"].items():
        print(f"  {name:<46} {metric['value']:>16.6g} {metric['unit']}",
              file=stream)
    print(f"  operations: {document['attempted']} attempted, "
          f"{document['failed']} failed; output checks: "
          f"{'ok' if document['correct'] else 'FAILED'}", file=stream)
    for problem in document["problems"]:
        print(f"  check failed: {problem}", file=stream)
