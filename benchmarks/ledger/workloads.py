"""What the ledger runs and what it reports: workload names, their
size profiles, and the end-to-end / per-layer metric declarations.

``BENCHMARK.json`` at the repository root repeats the names, units,
directions and bounds declared here; ``test_ledger.py`` keeps the two
in step.

Every run drives the whole pipeline — generate and write graphs,
generate and translate workloads, evaluate on the four engines, serve
over HTTP with a fitting and with an overflowing cache — so every
end-to-end metric is observed on every workload.  A workload is a
*scale profile*: it names the phase that runs at full size and gets the
larger share of the measuring time; the other phases run at the base
size.  A metric's authoritative reading is the one on its home workload.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

SCENARIOS = ("bib", "lsn", "sp", "wd")
ENGINES = ("P", "S", "G", "D")
DIALECTS = ("sparql", "cypher", "sql", "datalog")
SHAPES = ("chain", "star", "cycle", "star-chain")
CLASSES = ("constant", "linear", "quadratic")

#: The evaluated and served bib instance and query mix are generated by
#: gMark's own generators from these fixed seeds; ``--seed`` drives the
#: generation phases, every order, the request streams and the churn
#: keys.  (A seed-drawn mix or instance cannot hold a bound: query cost
#: is heavy-tailed in the query and, through Zipfian hubs, in the
#: instance — see the README.)
MIX_SEED = 2017
INSTANCE_SEED = 0
MIX_SIZE = 60
MIX_RECURSION = 0.3
#: Screening keeps a query when all four engines finish it on the
#: instance within this many rows per node ...
SCREEN_ROWS_PER_NODE = 20
#: ... and the timed passes then run under the issue's budget, an
#: order of magnitude looser, so no evaluation aborts.
EVAL_MAX_ROWS = 2_000_000
EVAL_TIMEOUT_S = 60.0

SERVE_CLIENTS = 2
SERVE_WORKERS = 2
#: Every fourth text of a warm cycle is also run as a durable job (20 %
#: of the requests).
JOB_EVERY = 4
JOB_POLL_S = 0.001
SERVE_MAX_ROWS = 500_000
OPEN_LOOP_SHARE = 0.3
OPEN_LOOP_SECONDS = 2.0

CHURN_SCENARIOS = ("bib", "lsn", "sp")
CHURN_SEEDS_PER_SCENARIO = 4
CHURN_CACHE_SHARE = 1 / 3
#: One cheap single-label evaluation per churn scenario (≈ nodes/10 rows).
CHURN_LABELS = {"bib": "heldIn", "lsn": "hasModerator", "sp": "inSeries"}

#: Every phase runs at least this many windows, however short the run.
MIN_WINDOWS = 8



@dataclass(frozen=True)
class Profile:
    """Sizes of one run.  ``slices`` are shares of ``--seconds``."""

    slices: dict
    graph_nodes: dict          # graph-gen instance size per scenario
    workload_queries: int      # workload-gen queries per scenario and round
    bib_nodes: int             # instance evaluated in process and served warm
    churn_nodes: int           # instance size of every churn key


_BASE_SLICES = {"graph-gen": 0.06, "workload-gen": 0.12,
                "workload-eval": 0.16, "serve-warm": 0.16,
                "serve-churn": 0.10}
#: The focus phase gets what the base shares leave.
_FOCUS_EXTRA = 1.0 - sum(_BASE_SLICES.values())

_BASE = Profile(
    slices=_BASE_SLICES,
    graph_nodes={"bib": 10_000, "lsn": 10_000, "sp": 10_000, "wd": 3_000},
    workload_queries=5,
    bib_nodes=1_000,
    churn_nodes=5_000,
)

_FOCUS = {
    "graph-gen": dict(graph_nodes={"bib": 100_000, "lsn": 100_000,
                                   "sp": 100_000, "wd": 25_000}),
    "workload-gen": dict(workload_queries=40),
    "workload-eval": dict(bib_nodes=2_500),
    "serve-warm": dict(bib_nodes=2_500),
    "serve-churn": dict(churn_nodes=30_000),
}

_SMOKE = Profile(
    slices=_BASE_SLICES,
    graph_nodes={"bib": 2_000, "lsn": 2_000, "sp": 2_000, "wd": 1_000},
    workload_queries=2,
    bib_nodes=500,
    churn_nodes=2_000,
)
#: ``--smoke`` also makes do with fewer repetitions.
SMOKE_MIN_WINDOWS = 2

WORKLOADS = {
    "graph-gen": "Table 3: generation + columnar batch merges + the edge "
                 "writer do all the work at 100k nodes; no selectivity, "
                 "engine or service code is on the large path",
    "workload-gen": "Fig. 10-style schema-only generation: selectivity + "
                    "queries + translate at 40 queries per scenario; no "
                    "instance, so a generation or engine change shows no move",
    "workload-eval": "Sec. 7: the four engines over one generated mix on bib "
                     "at 2.5k nodes; the columnar layer graph-gen writes is "
                     "here read through CSR navigation",
    "serve-warm": "working set fits the artifact cache: HTTP, pool, jobs "
                  "journal and NDJSON streaming dominate, every lookup hits",
    "serve-churn": "12 graph keys at 30k nodes over a cache holding a third: "
                   "generation, single-flight and LRU eviction sit in the "
                   "request path",
}


def profile_for(workload: str, smoke: bool = False) -> Profile:
    """The scale profile of ``workload`` (``--smoke`` shrinks every size)."""
    base = _SMOKE if smoke else _BASE
    slices = dict(base.slices)
    slices[workload] += _FOCUS_EXTRA
    overrides = {} if smoke else _FOCUS[workload]
    return replace(base, slices=slices, **overrides)


# -- metric declarations ------------------------------------------------------

@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float | None = None    # end-to-end only
    home: str | None = None       # the workload whose reading is cited


END_TO_END = [
    Metric("setup_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MiB", "lower", 0.15),
    Metric("graph_edges_per_s", "1/s", "higher", 0.25, "graph-gen"),
    Metric("workload_queries_per_s", "1/s", "higher", 0.25, "workload-gen"),
    Metric("eval_qps.P", "1/s", "higher", 0.25, "workload-eval"),
    Metric("eval_qps.S", "1/s", "higher", 0.25, "workload-eval"),
    Metric("eval_qps.G", "1/s", "higher", 0.25, "workload-eval"),
    Metric("eval_qps.D", "1/s", "higher", 0.25, "workload-eval"),
    Metric("serve_rps", "1/s", "higher", 0.25, "serve-warm"),
    Metric("serve_p50_ms", "ms", "lower", 0.25, "serve-warm"),
    Metric("serve_p95_ms", "ms", "lower", 0.25, "serve-warm"),
    Metric("serve_job_p50_ms", "ms", "lower", 0.25, "serve-warm"),
    Metric("churn_rps", "1/s", "higher", 0.25, "serve-churn"),
]


def _layer(name: str, unit: str, better: str = "lower") -> Metric:
    return Metric(name, unit, better)


def _per_layer() -> list[Metric]:
    metrics = [
        _layer("schema.build_s", "s"),
        _layer("config.xml_roundtrip_s", "s"),
        _layer("generation.generate_s", "s"),
        *(_layer(f"generation.generate_s.{s}", "s") for s in SCENARIOS),
        _layer("generation.edges", "count", "higher"),
        _layer("generation.edges_per_s", "1/s", "higher"),
        _layer("generation.graph_nbytes", "bytes"),
        _layer("generation.bytes_per_edge", "bytes"),
        _layer("generation.csr_build_s", "s"),
        _layer("columnar.batch_merges", "count"),
        _layer("columnar.flushes", "count"),
        _layer("columnar.csr_builds", "count"),
        _layer("writers.edges_s", "s"),
        _layer("writers.ntriples_s", "s"),
        _layer("writers.csv_s", "s"),
        _layer("writers.bytes", "bytes"),
        _layer("writers.mb_per_s", "MB/s", "higher"),
        _layer("selectivity.schema_graph_s", "s"),
        _layer("selectivity.sampler_s", "s"),
        _layer("selectivity.estimate_us_per_query", "us"),
        _layer("selectivity.class_hit_rate", "ratio", "higher"),
        _layer("sampler.table_extensions", "count"),
        _layer("sampler.batch_draws", "count"),
        _layer("queries.generate_s", "s"),
        *(_layer(f"queries.generate_s.{s}", "s") for s in SCENARIOS),
        *(_layer(f"queries.generate_ms_per_query.{s}", "ms") for s in SHAPES),
        _layer("queries.retries_per_query", "ratio"),
        _layer("queries.relaxed_share", "ratio"),
        _layer("queries.pool_refills", "count"),
        _layer("queries.parse_us_per_query", "us"),
        *(_layer(f"translate.{d}_s", "s") for d in DIALECTS),
        _layer("translate.failed", "count"),
        _layer("translate.bytes", "bytes"),
    ]
    for engine in ENGINES:
        prefix = f"engine.{engine}"
        metrics += [
            _layer(f"{prefix}.busy_s", "s"),
            _layer(f"{prefix}.p50_ms", "ms"),
            _layer(f"{prefix}.p90_ms", "ms"),
            *(_layer(f"{prefix}.busy_s.{c}", "s") for c in CLASSES),
            _layer(f"{prefix}.busy_s.recursive", "s"),
            _layer(f"{prefix}.aborted", "count"),
            _layer(f"{prefix}.answers", "count", "higher"),
        ]
    metrics += [
        _layer("engine.automaton.build_nfa_s", "s"),
        _layer("engine.frontier.sweep_s", "s"),
        _layer("engine.relations.load_s", "s"),
        _layer("engine.closure.closure_s", "s"),
        _layer("engine.resultset.union_s", "s"),
        _layer("engine.resultset.count_s", "s"),
        _layer("engine.resultset.ndjson_mb_per_s", "MB/s", "higher"),
        _layer("engine.agreement_share", "ratio", "higher"),
        _layer("engine.G_subset_share", "ratio", "higher"),
        _layer("execution.governed_ratio", "ratio"),
        _layer("execution.degraded", "count"),
        _layer("engine.budget_aborts", "count"),
        _layer("observability.enabled_ratio", "ratio"),
        _layer("observability.spans", "count"),
        _layer("session.facade_overhead_us", "us"),
        _layer("session.graph.cache_hits", "count", "higher"),
        _layer("session.graph.cache_misses", "count"),
        _layer("service.boot_s", "s"),
        _layer("service.drain_s", "s"),
        _layer("service.http.healthz_p50_ms", "ms"),
        _layer("service.protocol.parse_us", "us"),
        _layer("service.inprocess_rps", "1/s", "higher"),
        _layer("service.efficiency", "ratio", "higher"),
        _layer("service.overhead_ms", "ms"),
        _layer("service.stream.mb_per_s", "MB/s", "higher"),
        _layer("service.server.request_mean_ms", "ms"),
        _layer("service.server_cpu_ms_per_request", "ms"),
        _layer("service.server_rss_mb", "MiB"),
        _layer("service.pool.queue_depth_max", "count"),
        _layer("service.pool.rejected", "count"),
        _layer("service.client.retries", "count"),
        _layer("service.store.hit_rate", "ratio", "higher"),
        _layer("service.store.evicted", "count"),
        _layer("service.store.bytes", "bytes"),
        _layer("service.store.adopted", "count"),
        _layer("service.jobs.submit_p50_ms", "ms"),
        _layer("service.jobs.polls_per_job", "ratio"),
        _layer("service.jobs.journal_bytes_per_result_byte", "ratio"),
        _layer("service.jobs.deduplicated", "count"),
        _layer("service.churn.hit_p50_ms", "ms"),
        _layer("service.churn.miss_p50_ms", "ms"),
        _layer("service.churn.hit_rate", "ratio", "higher"),
        _layer("service.openloop.rate_rps", "1/s", "higher"),
        _layer("service.openloop.p50_ms", "ms"),
        _layer("service.openloop.p95_ms", "ms"),
        _layer("loadgen.late_p95_ms", "ms"),
    ]
    return metrics


PER_LAYER = _per_layer()
