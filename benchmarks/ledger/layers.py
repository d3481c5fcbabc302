"""Per-layer attribution for the traced pass.

Two sources, both outside the program: the spans the phases recorded
around their calls into each layer (plus exact counter deltas read from
``METRICS.snapshot()``), and a set of *probes* — extra timed calls into
the public functions of layers that the phases only reach indirectly
(the automaton, the frontier sweep, the closure, the result set, the
selectivity structures, the session facade).  Probes run after the
phases on the same inputs, so they cannot disturb the phase spans.
"""

from __future__ import annotations

import os
import time
from dataclasses import replace

from benchmarks.ledger import pipeline
from benchmarks.ledger import workloads as W
from benchmarks.ledger.pipeline import counter_values
from benchmarks.ledger.stats import (highest_supported_percentile, median,
                                     percentile)


def _timed(run: pipeline.RunState, name: str, call, *args):
    """Call under a ``probe.<name>`` span; returns (result, seconds)."""
    started = time.perf_counter()
    with run.spans.span("probe." + name):
        result = call(*args)
    return result, time.perf_counter() - started


def _mix_regexes(inputs: pipeline.EvalInputs) -> list:
    """The distinct conjunct regular expressions of the evaluated mix."""
    seen = {}
    for generated in inputs.mix:
        for rule in generated.query.rules:
            for conjunct in rule.body:
                seen.setdefault(conjunct.regex, None)
    return list(seen)


# -- probes -------------------------------------------------------------------

def probe(run, configurations, inputs, warm) -> None:
    """Everything the phases do not time by themselves."""
    _probe_generation(run, configurations)
    _probe_selectivity(run)
    _probe_engine(run, inputs)
    _probe_governance(run, inputs)
    _probe_session(run, inputs)
    _probe_service(run, warm)


def _probe_generation(run, configurations) -> None:
    from repro import GRAPH_WRITERS, generate_graph
    from repro.config.xml_io import graph_config_from_xml, graph_config_to_xml
    from repro.queries.ast import inverse_symbol

    layers = run.layers
    configuration = configurations["bib"]

    def roundtrip():
        for each in configurations.values():
            graph_config_from_xml(graph_config_to_xml(each))

    _, layers["config.xml_roundtrip_s"] = _timed(run, "config.xml", roundtrip)
    graph = generate_graph(configuration, seed=run.seed)

    def first_touch():
        for label in graph.labels():
            graph.csr_arrays(label)
            graph.csr_arrays(inverse_symbol(label))

    _, layers["generation.csr_build_s"] = _timed(run, "csr", first_touch)
    path = os.path.join(run.scratch, "probe-graph")
    _, layers["writers.ntriples_s"] = _timed(
        run, "writers.ntriples", GRAPH_WRITERS["ntriples"], graph, path)
    os.remove(path)
    _, layers["writers.csv_s"] = _timed(
        run, "writers.csv", GRAPH_WRITERS["csv"], graph, path + ".d")


def _probe_selectivity(run) -> None:
    from repro import QueryShape, generate_workload
    from repro.scenarios import scenario_schema
    from repro.selectivity import SelectivityEstimator
    from repro.selectivity.distance import DistanceMatrix
    from repro.selectivity.path_sampler import PathSampler
    from repro.selectivity.schema_graph import SchemaGraph
    from repro.selectivity.selectivity_graph import SelectivityGraph

    layers = run.layers
    schema_graphs = {}

    def structures():
        for scenario in W.SCENARIOS:
            schema_graph = SchemaGraph(scenario_schema(scenario))
            DistanceMatrix(schema_graph)
            SelectivityGraph(schema_graph, 2, 10)
            schema_graphs[scenario] = schema_graph

    _, layers["selectivity.schema_graph_s"] = _timed(
        run, "selectivity.structures", structures)

    def sample():
        for scenario, schema_graph in schema_graphs.items():
            nodes = schema_graph.nodes
            PathSampler(schema_graph).sample_paths(nodes, nodes, 4, 10_000,
                                                   run.seed)

    _, layers["selectivity.sampler_s"] = _timed(
        run, "selectivity.sampler", sample)

    configuration = pipeline.workload_configuration("bib", 40)
    workload = generate_workload(configuration, seed=run.seed)
    estimator = SelectivityEstimator(scenario_schema("bib"))

    def estimate():
        for generated in workload:
            for rule in generated.query.rules:
                for conjunct in rule.body:
                    estimator.regex_map(conjunct.regex)

    _, seconds = _timed(run, "selectivity.estimate", estimate)
    layers["selectivity.estimate_us_per_query"] = 1e6 * seconds / len(workload)
    for shape in QueryShape:
        single = replace(configuration, size=20, shapes=(shape,))
        _, seconds = _timed(run, "queries.shape", generate_workload, single,
                            run.seed)
        layers[f"queries.generate_ms_per_query.{shape.value}"] = (
            1e3 * seconds / single.size)


def _probe_engine(run, inputs) -> None:
    from repro.engine import ResultSet
    from repro.engine.automaton import build_nfa
    from repro.engine.budget import unlimited
    from repro.engine.closure import ClosureRelation
    from repro.engine.frontier import frontier_regex_relation
    from repro.engine.relations import BinaryRelation
    from repro.queries.ast import inverse_symbol

    layers = run.layers
    graph = inputs.graph
    regexes = _mix_regexes(inputs)
    build_nfa.cache_clear()
    automata, layers["engine.automaton.build_nfa_s"] = _timed(
        run, "engine.automaton", lambda: [build_nfa(r) for r in regexes])
    relations, layers["engine.frontier.sweep_s"] = _timed(
        run, "engine.frontier",
        lambda: [frontier_regex_relation(nfa, graph, unlimited())
                 for nfa in automata])
    symbols = [s for label in graph.labels()
               for s in (label, inverse_symbol(label))]
    loaded, layers["engine.relations.load_s"] = _timed(
        run, "engine.relations",
        lambda: [BinaryRelation.from_graph_symbol(graph, s) for s in symbols])
    nodes = graph.config.total_nodes
    _, layers["engine.closure.closure_s"] = _timed(
        run, "engine.closure",
        lambda: [len(ClosureRelation(base, nodes)) for base in loaded[::2]])
    results = [ResultSet.from_relation(relation) for relation in relations]

    def union():
        merged = results[0]
        for other in results[1:]:
            merged = merged.union(other)
        return merged

    _, layers["engine.resultset.union_s"] = _timed(
        run, "engine.resultset.union", union)
    _, layers["engine.resultset.count_s"] = _timed(
        run, "engine.resultset.count",
        lambda: [result.count_distinct() for result in results])
    size, seconds = _timed(
        run, "engine.resultset.ndjson",
        lambda: sum(len(chunk) for result in results
                    for chunk in result.iter_ndjson()))
    layers["engine.resultset.ndjson_mb_per_s"] = size / 1e6 / max(seconds, 1e-9)


def _s_pass(inputs, budget_factory) -> float:
    from repro import count_distinct

    started = time.perf_counter()
    for generated in inputs.mix:
        count_distinct(generated.query, inputs.graph, "S", budget_factory())
    return time.perf_counter() - started


def _probe_governance(run, inputs) -> None:
    """The S pass with vs without its budget, and with vs without the
    program's own tracer — each ratio from interleaved passes."""
    from repro.observability.trace import TRACER

    def governed():
        return pipeline.budget(W.EVAL_MAX_ROWS)

    with run.spans.span("probe.execution"):
        with_budget, without = [], []
        for _ in range(3):
            with_budget.append(_s_pass(inputs, governed))
            without.append(_s_pass(inputs, lambda: None))
    run.layers["execution.governed_ratio"] = (
        median(with_budget) / median(without))
    with run.spans.span("probe.observability"):
        enabled, disabled = [], []
        spans_before = TRACER.span_count
        for _ in range(3):
            disabled.append(_s_pass(inputs, governed))
            TRACER.enable()
            try:
                enabled.append(_s_pass(inputs, governed))
            finally:
                TRACER.disable()
        run.layers["observability.spans"] = TRACER.span_count - spans_before
        TRACER.reset()
    run.layers["observability.enabled_ratio"] = (
        median(enabled) / median(disabled))


def _probe_session(run, inputs) -> None:
    from repro import Session, count_distinct

    before = counter_values()
    session = Session.from_scenario("bib", run.profile.bib_nodes,
                                    seed=W.INSTANCE_SEED)
    graph = session.graph()
    query = session.query(inputs.texts[0])
    facade, direct = [], []
    with run.spans.span("probe.session"):
        for _ in range(200):
            session.graph()
            started = time.perf_counter()
            session.count_distinct(query, "datalog")
            middle = time.perf_counter()
            count_distinct(query, graph, "datalog")
            direct.append(time.perf_counter() - middle)
            facade.append(middle - started)
    after = counter_values()
    run.layers["session.facade_overhead_us"] = 1e6 * (
        median(facade) - median(direct))
    for name in ("session.graph.cache_hits", "session.graph.cache_misses"):
        run.layers[name] = after.get(name, 0) - before.get(name, 0)


def _probe_service(run, warm) -> None:
    from repro import Session
    from repro.execution import ExecutionContext
    from repro.execution.budget import CancellationToken
    from repro.service.protocol import budget_from_payload, graph_key

    layers = run.layers
    with warm.server.client() as client, run.spans.span("probe.healthz"):
        timings = []
        for _ in range(50):
            started = time.perf_counter()
            client.healthz()
            timings.append(1e3 * (time.perf_counter() - started))
    layers["service.http.healthz_p50_ms"] = median(timings)

    payloads = [warm.payload(index) for index in range(len(warm.texts))]
    with run.spans.span("probe.protocol"):
        started = time.perf_counter()
        for _ in range(20):
            for payload in payloads:
                graph_key(payload)
                budget_from_payload(payload, 60.0, CancellationToken())
        layers["service.protocol.parse_us"] = 1e6 * (
            time.perf_counter() - started) / (20 * len(payloads))

    # The same request list without HTTP, pool or journal: one thread,
    # Session.evaluate + iter_ndjson, replies checked against the served
    # bytes.
    session = Session.from_scenario("bib", run.profile.bib_nodes,
                                    seed=W.INSTANCE_SEED)
    session.graph()
    queries = [session.query(text) for text in warm.texts]
    latencies = []
    with run.spans.span("probe.inprocess"):
        began = time.perf_counter()
        for _, text_index in warm.cycle() + warm.cycle():
            started = time.perf_counter()
            result = session.evaluate(
                queries[text_index], "datalog",
                budget=ExecutionContext(max_rows=W.SERVE_MAX_ROWS,
                                        on_budget="partial"))
            body = "".join(result.iter_ndjson()).encode()
            latencies.append(1e3 * (time.perf_counter() - started))
            run.check(body == warm.expected[text_index],
                      "in-process NDJSON differs from the served reply")
        elapsed = time.perf_counter() - began
    layers["service.inprocess_rps"] = len(latencies) / elapsed
    layers["service.efficiency"] = (
        run.metrics["serve_rps"] / layers["service.inprocess_rps"])
    layers["service.overhead_ms"] = (
        run.metrics["serve_p50_ms"] - median(latencies))


# -- from spans and counters ----------------------------------------------------

def from_spans(run: pipeline.RunState, phases: dict) -> None:
    """The per-layer metrics the window spans and counter deltas give."""
    spans, layers, facts = run.spans, run.layers, run.facts
    layers["schema.build_s"] = spans.total("schema.build")

    generate_s = spans.total("generation.generate")
    layers["generation.generate_s"] = generate_s
    for scenario in W.SCENARIOS:
        layers[f"generation.generate_s.{scenario}"] = spans.total(
            "generation.generate", scenario=scenario)
    layers["generation.edges_per_s"] = layers["generation.edges"] / generate_s
    layers["generation.graph_nbytes"] = facts["graph_nbytes"]
    layers["generation.bytes_per_edge"] = (
        facts["graph_nbytes"] / facts["graph_edges"])
    written = phases["graph-gen"].counters
    for name in ("batch_merges", "flushes", "csr_builds"):
        layers["columnar." + name] = written["columnar." + name]
    run.check(layers["columnar.csr_builds"] == 0,
              "graph-gen built a CSR index: writing must not need one")
    layers["writers.edges_s"] = spans.total("writers.edges")
    layers["writers.mb_per_s"] = (
        layers["writers.bytes"] / 1e6 / layers["writers.edges_s"])

    made = phases["workload-gen"].counters
    tally = facts["queries"]
    layers["sampler.table_extensions"] = made["sampler.table_extensions"]
    layers["sampler.batch_draws"] = made["sampler.batch_draws"]
    layers["queries.generate_s"] = spans.total("queries.generate")
    for scenario in W.SCENARIOS:
        layers[f"queries.generate_s.{scenario}"] = spans.total(
            "queries.generate", scenario=scenario)
    layers["queries.retries_per_query"] = (
        made["workload.retries"] / tally["count"])
    layers["queries.relaxed_share"] = made["workload.relaxed"] / tally["count"]
    layers["queries.pool_refills"] = made["workload.pool_refills"]
    layers["queries.parse_us_per_query"] = (
        1e6 * spans.total("queries.parse") / tally["count"])
    layers["selectivity.class_hit_rate"] = (
        tally["on_target"] / max(tally["targeted"], 1))
    for dialect in W.DIALECTS:
        layers[f"translate.{dialect}_s"] = spans.total("translate." + dialect)
    layers.setdefault("translate.failed", 0)
    stray = [span.name for span in spans.spans
             if span.name.startswith(("generation.", "engine."))
             and _within(spans, span, "window.workload-gen")]
    run.check(not stray, f"{stray[:3]} inside a workload-gen window")

    evaluated = phases["workload-eval"]
    mix = evaluated.inputs.mix
    for engine in W.ENGINES:
        prefix = f"engine.{engine}"
        evaluations = spans.select("engine.eval", engine=engine)
        durations = [1e3 * span.duration for span in evaluations]
        layers[prefix + ".busy_s"] = sum(durations) / 1e3
        layers[prefix + ".p50_ms"] = median(durations)
        tail = min(90.0, highest_supported_percentile(len(durations)) or 75.0)
        layers[prefix + ".p90_ms"] = percentile(durations, tail)
        for name in W.CLASSES:
            layers[f"{prefix}.busy_s.{name}"] = sum(
                span.duration for span in evaluations
                if _class_of(mix[span.attributes["query"]]) == name)
        layers[prefix + ".busy_s.recursive"] = sum(
            span.duration for span in evaluations
            if mix[span.attributes["query"]].query.has_recursion)
        counts = evaluated.counts[engine]
        layers[prefix + ".aborted"] = counts.count("aborted")
        layers[prefix + ".answers"] = sum(
            count for count in counts if isinstance(count, int))
    for name in ("execution.degraded", "engine.budget_aborts"):
        layers[name] = sum(phase.counters[name] for phase in phases.values())


def _class_of(generated) -> str | None:
    return generated.selectivity.value if generated.selectivity else None


def _within(spans, span, ancestor_name: str) -> bool:
    while span.parent is not None:
        span = spans.spans[span.parent]
        if span.name == ancestor_name:
            return True
    return False
