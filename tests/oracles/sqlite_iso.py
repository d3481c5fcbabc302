"""G's exact oracle: edge-isomorphic matching as plain SQL on sqlite.

The openCypher-like engine G matches a pattern *edge-isomorphically*:
within one match no physical edge is used twice.  For a star-free query
that semantics is a plain SQL join, written here independently of G's
binding table, edge-isomorphism mask and step order:

* each rule expands into the product of its conjuncts' disjuncts, and
  each such branch is one ``SELECT DISTINCT <head>`` over one
  ``edge_<label> AS e_i`` per edge step of its paths;
* shared pattern variables become column equalities; an ε step merges
  its two variables, and an inverse step swaps ``src`` / ``trg`` (it is
  the same physical edge, read backwards);
* every pair of atoms on the same label gets ``e_i.rowid <>
  e_j.rowid`` — the edge tables hold each edge once, so distinct rowids
  are distinct edges (openCypher's relationship uniqueness);
* a variable no edge atom touches ranges over ``nodes``;
* the branches are combined with ``UNION`` and counted; a Boolean head
  asks each branch for one row (``LIMIT 1``).

The SQL runs on a :class:`~oracles.sqlite_oracle.SqliteOracle`'s
connection.  Starred conjuncts are refused: G's variable-length
approximation (§7.1) has no SQL counterpart worth writing.
"""

from __future__ import annotations

from itertools import count, product

from repro.queries.ast import PathExpression, Query, QueryRule, is_inverse, symbol_base
from repro.translate.sql import edge_table

from oracles.sqlite_oracle import SqliteOracle


def iso_sql(query: Query) -> str:
    """A ``SELECT COUNT(*)`` of ``query``'s edge-isomorphic answers."""
    if query.has_recursion:
        raise ValueError("the isomorphic oracle covers star-free queries only")
    boolean = query.arity == 0
    branches = [
        _branch_sql(rule, paths, boolean)
        for rule in query.rules
        for paths in product(*(conjunct.regex.disjuncts for conjunct in rule.body))
    ]
    return f"SELECT COUNT(*) FROM ({' UNION '.join(branches)})"


def iso_count(oracle: SqliteOracle, query: Query) -> int:
    """``count(distinct head)`` of ``query`` under G's semantics."""
    return oracle.scalar(iso_sql(query))


def _branch_sql(
    rule: QueryRule, paths: tuple[PathExpression, ...], boolean: bool
) -> str:
    parent: dict[str, str] = {}

    def find(var: str) -> str:
        while parent.get(var, var) != var:
            var = parent[var]
        return var

    # (label, source variable, target variable) per physical edge atom.
    atoms: list[tuple[str, str, str]] = []
    fresh = count()
    for conjunct, path in zip(rule.body, paths):
        if path.is_epsilon:
            parent[find(conjunct.source)] = find(conjunct.target)
            continue
        current = conjunct.source
        for index, symbol in enumerate(path.symbols):
            last = index == len(path.symbols) - 1
            nxt = conjunct.target if last else f"?_{next(fresh)}"
            ends = (nxt, current) if is_inverse(symbol) else (current, nxt)
            atoms.append((symbol_base(symbol), *ends))
            current = nxt

    tables: list[str] = []
    columns: dict[str, list[str]] = {}
    for index, (label, source, target) in enumerate(atoms):
        tables.append(f"{edge_table(label)} AS e{index}")
        columns.setdefault(find(source), []).append(f"e{index}.src")
        columns.setdefault(find(target), []).append(f"e{index}.trg")
    for var in sorted(rule.variables):
        cls = find(var)
        if cls not in columns:
            alias = f"n{len(tables)}"
            tables.append(f"nodes AS {alias}")
            columns[cls] = [f"{alias}.id"]

    conditions = [
        f"{refs[0]} = {ref}" for refs in columns.values() for ref in refs[1:]
    ]
    conditions += [
        f"e{i}.rowid <> e{j}.rowid"
        for i in range(len(atoms))
        for j in range(i + 1, len(atoms))
        if atoms[i][0] == atoms[j][0]
    ]
    where = f" WHERE {' AND '.join(conditions)}" if conditions else ""
    if boolean:
        return f"SELECT * FROM (SELECT 1 FROM {', '.join(tables)}{where} LIMIT 1)"
    head = ", ".join(columns[find(var)][0] for var in rule.head)
    return f"SELECT DISTINCT {head} FROM {', '.join(tables)}{where}"
