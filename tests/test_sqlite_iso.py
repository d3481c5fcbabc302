"""The edge-isomorphic SQL oracle (``oracles/sqlite_iso.py``) on
hand-sized graphs, checked against G.

The generated-input checks of G against this oracle live with the other
sqlite differentials (``test_sqlite_oracle.py``, ``test_mix_fixture.py``).
"""

from __future__ import annotations

import pytest

from repro import count_distinct
from repro.queries.parser import parse_query

from oracles.sqlite_iso import iso_count, iso_sql
from oracles.sqlite_oracle import SqliteOracle
from oracles.tuples import graph_from_triples


class TestIsomorphicOracle:
    """The edge-isomorphic SQL on hand-sized graphs, against G."""

    TRIPLES = [(0, "authors", 1), (2, "authors", 1), (1, "publishedIn", 3)]

    @pytest.mark.parametrize(
        "text, expected",
        [
            # x -authors-> z <-authors- y: one edge may not serve both
            # atoms, so (0, 0) and (2, 2) drop out.
            ("(?x, ?y) <- (?x, authors.authors-, ?y)", 2),
            ("(?x, ?y) <- (?x, authors, ?z), (?y, authors, ?z)", 2),
            # ε merges its two variables; a lone one ranges over the
            # 1 000 nodes.
            ("(?x, ?y) <- (?x, (authors + eps), ?y)", 2 + 1_000),
            ("(?x) <- (?x, eps, ?y), (?y, publishedIn, ?z)", 1),
            ("() <- (?x, authors.publishedIn, ?y)", 1),
            ("() <- (?x, authors.authors-.authors, ?y)", 0),
        ],
    )
    def test_counts_match_g(self, bib_config, text, expected):
        graph = graph_from_triples(bib_config, self.TRIPLES)
        query = parse_query(text)
        with SqliteOracle(graph) as oracle:
            assert iso_count(oracle, query) == expected
        assert count_distinct(query, graph, "G") == expected

    def test_refuses_stars(self):
        with pytest.raises(ValueError):
            iso_sql(parse_query("(?x, ?y) <- (?x, (authors)*, ?y)"))
