"""Using gMark to benchmark *your own* graph query engine.

The paper's §3.1 user story: a researcher with a new query-processing
algorithm needs graphs of controlled shape and workloads of controlled
difficulty.  This example shows the full loop for a user-supplied
engine — here, a deliberately naive evaluator — compared against the
bundled reference engines on a generated workload, including failure
accounting under a time budget.

Run:  python examples/benchmark_my_engine.py
"""

from repro import (
    GraphConfiguration,
    QuerySize,
    WorkloadConfiguration,
    bib_schema,
    generate_graph,
    generate_workload,
)
from repro.analysis.reporting import format_table
from repro.engine import EvaluationBudget, ResultSet
from repro.engine.base import Engine, regex_to_relation
from repro.engine.evaluator import ENGINES
from repro.errors import EngineError


class NestedLoopEngine(Engine):
    """A user-defined engine: nested-loop joins, no planning.

    Subclassing :class:`repro.engine.base.Engine` is the extension
    point — implement ``evaluate`` and the whole harness (budgets,
    timing protocol, failure accounting) applies unchanged.  Relations
    are read as columns; the answer tuples go back through
    :meth:`ResultSet.from_rows`.
    """

    name = "nested-loop"
    paper_system = "-"

    def evaluate(self, query, graph, budget=None):
        budget = (budget or EvaluationBudget()).start()
        cache = self.conjunct_cache(graph)
        answers = set()
        for rule in query.rules:
            relations = [
                regex_to_relation(conjunct.regex, cache, budget)
                for conjunct in rule.body
            ]
            rows = [{}]
            for conjunct, relation in zip(rule.body, relations):
                # Every relation, a star's closure included, lists its
                # pairs through a gather over every node.
                sources, targets = relation.gather(None, True, budget.check_rows)
                pairs = list(zip(sources.tolist(), targets.tolist()))
                next_rows = []
                for row in rows:
                    budget.check_time()
                    for source, target in pairs:
                        if row.get(conjunct.source, source) != source:
                            continue
                        if row.get(conjunct.target, target) != target:
                            continue
                        extended = dict(row)
                        extended[conjunct.source] = source
                        extended[conjunct.target] = target
                        next_rows.append(extended)
                rows = next_rows
                budget.check_rows(len(rows))
            answers |= {tuple(row[v] for v in rule.head) for row in rows}
        return ResultSet.from_rows(answers, arity=query.arity)


def main() -> None:
    config = GraphConfiguration(2_000, bib_schema())
    graph = generate_graph(config, seed=3)
    workload = generate_workload(
        WorkloadConfiguration(
            config,
            size=6,
            query_size=QuerySize(conjuncts=(1, 2), disjuncts=(1, 2), length=(1, 3)),
        ),
        seed=3,
    )

    contenders = {"mine": NestedLoopEngine(), **ENGINES}
    rows = []
    for index, generated in enumerate(workload):
        row = [f"q{index} ({generated.selectivity.value})"]
        reference = None
        for name, engine in contenders.items():
            budget = EvaluationBudget(timeout_seconds=5.0).start()
            try:
                import time

                started = time.perf_counter()
                answers = engine.evaluate(generated.query, graph, budget)
                elapsed = time.perf_counter() - started
                cell = f"{elapsed:.3f}"
                if engine.homomorphic:
                    if reference is None:
                        reference = answers
                    elif answers != reference:
                        cell += " (!)"  # would flag a correctness bug
            except EngineError:
                cell = "-"
            row.append(cell)
        rows.append(row)

    print(format_table(
        ["query"] + list(contenders),
        rows,
        title="your engine vs the bundled reference engines (seconds; "
              "'-' = 5s budget exceeded)",
    ))
    print("\nThe naive nested-loop engine keeps up on constant queries and "
          "falls off a cliff on quadratic ones —\nexactly the chokepoint "
          "separation the workload was generated to expose.")


if __name__ == "__main__":
    main()
