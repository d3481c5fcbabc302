"""gMark reproduction: schema-driven generation of graphs and queries.

Public API quickstart — the :class:`Session` facade drives the whole
Fig. 1 pipeline with cached artifacts and explicit seeds::

    from repro import Session

    session = Session.from_scenario("bib", nodes=10_000, seed=42)
    graph = session.graph()
    sparql = session.translate("sparql", size=20, count_distinct=True)
    result = session.evaluate("(?x, ?y) <- (?x, authors, ?y)")
    result.count_distinct()          # array-side, no tuples
    sources, targets = result.arrays()  # zero-copy columns

Evaluation returns the columnar :class:`~repro.engine.ResultSet`
(read as columns; it is not a Python set of tuples), and every
extension point — engines, translators, scenarios, graph writers
— is a :class:`Registry` (``ENGINES``, ``TRANSLATORS``, ``SCENARIOS``,
``GRAPH_WRITERS``) accepting plugins via ``register()``.  The lower
layers remain importable directly::

    from repro import GraphConfiguration, generate_graph, bib_schema
    graph = generate_graph(GraphConfiguration(10_000, bib_schema()), seed=42)
"""

from repro.errors import (
    ConfigurationError,
    EngineBudgetExceeded,
    EngineCapabilityError,
    EngineError,
    GenerationError,
    GmarkError,
    QuerySyntaxError,
    SchemaError,
    TranslationError,
    WorkloadError,
)
from repro.schema import (
    GaussianDistribution,
    GraphConfiguration,
    GraphSchema,
    NON_SPECIFIED,
    UniformDistribution,
    ZipfianDistribution,
    fixed,
    proportion,
    validate_schema,
)
from repro.generation import (
    GRAPH_WRITERS,
    LabeledGraph,
    generate_graph,
    write_edge_list,
    write_graph,
    write_ntriples,
)
from repro.registry import Registry
from repro.queries import (
    Query,
    QueryShape,
    QuerySize,
    Workload,
    WorkloadConfiguration,
    generate_workload,
    parse_query,
    parse_regex,
)
from repro.selectivity import SelectivityClass, SelectivityEstimator
from repro.scenarios import SCENARIOS, bib_schema, lsn_schema, sp_schema, wd_schema
from repro.engine import ENGINES, ResultSet, count_distinct, evaluate_query
from repro.session import Session
from repro.translate import TRANSLATORS, translate

__version__ = "1.1.0"

__all__ = [
    "GmarkError",
    "ConfigurationError",
    "SchemaError",
    "WorkloadError",
    "GenerationError",
    "QuerySyntaxError",
    "TranslationError",
    "EngineError",
    "EngineCapabilityError",
    "EngineBudgetExceeded",
    "GraphSchema",
    "GraphConfiguration",
    "UniformDistribution",
    "GaussianDistribution",
    "ZipfianDistribution",
    "NON_SPECIFIED",
    "fixed",
    "proportion",
    "validate_schema",
    "LabeledGraph",
    "generate_graph",
    "write_ntriples",
    "write_edge_list",
    "write_graph",
    "Session",
    "ResultSet",
    "Registry",
    "ENGINES",
    "TRANSLATORS",
    "SCENARIOS",
    "GRAPH_WRITERS",
    "evaluate_query",
    "count_distinct",
    "translate",
    "Query",
    "QueryShape",
    "QuerySize",
    "Workload",
    "WorkloadConfiguration",
    "generate_workload",
    "parse_query",
    "parse_regex",
    "SelectivityClass",
    "SelectivityEstimator",
    "bib_schema",
    "lsn_schema",
    "sp_schema",
    "wd_schema",
    "__version__",
]
