"""An independent count oracle: the repository's SQL translation on sqlite.

The engines P, S and D share columnar kernels; this oracle shares none
of them.  A graph is loaded into an in-memory stdlib ``sqlite3``
database in the standard relational encoding the SQL translator
targets (paper §7, footnote 4) — ``nodes(id)`` plus one
``edge_<label>(src, trg)`` table per schema predicate, indexed on
``(src, trg)`` and ``(trg, src)`` — and a query's
``TRANSLATORS["sql"].translate_query(query, count_distinct=True)`` text
runs there unmodified.  sqlite evaluates ``WITH RECURSIVE`` as
working-table recursion and joins with its own planner, so a count that
agrees with the engines was computed by nothing they have in common.
"""

from __future__ import annotations

import sqlite3
import time

from repro.queries.ast import Query
from repro.translate import TRANSLATORS
from repro.translate.sql import edge_table

#: A query still running this long raises ``sqlite3.OperationalError``
#: (interrupted) rather than hanging the test that asked.
TIMEOUT_SECONDS = 120.0
#: sqlite calls the progress handler every this many virtual-machine
#: instructions; the handler aborts a query past its deadline.
_PROGRESS_STEPS = 10_000


class SqliteOracle:
    """One graph in an in-memory sqlite database; counts queries on it."""

    def __init__(self, graph):
        self.connection = sqlite3.connect(":memory:")
        self._deadline = float("inf")
        self.connection.set_progress_handler(self._expired, _PROGRESS_STEPS)
        self._load(graph)

    def _expired(self) -> bool:
        return time.perf_counter() > self._deadline

    def _load(self, graph) -> None:
        cursor = self.connection.cursor()
        cursor.execute("CREATE TABLE nodes(id INTEGER PRIMARY KEY)")
        cursor.executemany(
            "INSERT INTO nodes VALUES (?)", ((node,) for node in range(graph.n))
        )
        for label in graph.config.schema.alphabet:
            table = edge_table(label)
            cursor.execute(f"CREATE TABLE {table}(src INTEGER, trg INTEGER)")
            sources, targets = graph.edge_arrays(label)
            cursor.executemany(
                f"INSERT INTO {table} VALUES (?, ?)",
                zip(sources.tolist(), targets.tolist()),
            )
            cursor.execute(f"CREATE INDEX {table}_st ON {table}(src, trg)")
            cursor.execute(f"CREATE INDEX {table}_ts ON {table}(trg, src)")
        self.connection.commit()
        cursor.execute("ANALYZE")

    def count(self, query: Query) -> int:
        """``count(distinct head)`` of ``query``, computed by sqlite."""
        return self.scalar(
            TRANSLATORS["sql"].translate_query(query, count_distinct=True)
        )

    def scalar(self, text: str) -> int:
        """The single integer a ``SELECT`` returns, under the deadline."""
        self._deadline = time.perf_counter() + TIMEOUT_SECONDS
        try:
            (value,) = self.connection.execute(text).fetchone()
        finally:
            self._deadline = float("inf")
        return int(value)

    def edge_count(self, label: str) -> int:
        """Rows loaded for one label (a load sanity probe)."""
        (count,) = self.connection.execute(
            f"SELECT COUNT(*) FROM {edge_table(label)}"
        ).fetchone()
        return int(count)

    def close(self) -> None:
        self.connection.close()

    def __enter__(self) -> "SqliteOracle":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
