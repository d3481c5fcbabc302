"""Columnar query results: the engine API's return type.

A :class:`ResultSet` is a set of fixed-arity integer tuples stored as
**columns**, never as Python tuples, in the same canonical physical
shapes as the rest of the columnar core (:mod:`repro.columnar`):

* **2-ary** — a sorted unique packed ``(first << 32) | second`` key
  column, adopted zero-copy from :class:`~repro.engine.relations.
  BinaryRelation` / frontier-sweep output; endpoint columns are
  unpacked lazily on first :meth:`arrays` access;
* **1-ary** — one sorted unique ``int64`` id column;
* **k-ary (k ≥ 3)** — a lexicographically sorted unique row group,
  held as parallel columns;
* **0-ary** (Boolean rules) — zero columns and zero rows ("false") or
  one row ("true").

Rows are unique and ordered by construction, so ``count()`` and
``count_distinct()`` are array lengths — the §7.1 ``count(distinct
?v)`` measurement never builds a tuple — and the set algebra
(:meth:`union`, :meth:`difference`, :meth:`project`) runs on the
sorted-key kernels (:func:`~repro.columnar.merge_keys`,
:func:`~repro.columnar.keys_difference`,
:func:`~repro.columnar.unique_rows`).

Columns in, columns out: results are built from columns
(:meth:`ResultSet.from_keys`, :meth:`~ResultSet.from_relation`,
:meth:`~ResultSet.from_column`, :meth:`~ResultSet.from_table`), with
:meth:`~ResultSet.from_rows` as the one tuple constructor for engines
that collect answers tuple-at-a-time, and are read as columns
(:meth:`~ResultSet.arrays`, :meth:`~ResultSet.key_array`) or streamed
(:meth:`~ResultSet.iter_ndjson`).  A ``ResultSet`` is not iterable and
is not a :class:`collections.abc.Set`; ``len`` and truthiness are the
row count.
"""

from __future__ import annotations

import json
from typing import Iterator, Sequence

import numpy as np

from repro.columnar import (
    EMPTY_I64,
    frozen,
    keys_difference,
    merge_keys,
    pack_pairs,
    rows_in,
    sorted_unique,
    sorted_unique_keys,
    unique_rows,
    unpack_keys,
)


def _strictly_increasing(column: np.ndarray) -> bool:
    """True when a column is already sorted and duplicate-free."""
    return column.size < 2 or bool(np.all(column[1:] > column[:-1]))


class ResultSet:
    """Lazy, columnar set of fixed-arity answer tuples."""

    __slots__ = ("_arity", "_nrows", "_keys", "_cols", "_incomplete")

    def __init__(
        self,
        arity: int,
        nrows: int,
        keys: np.ndarray | None = None,
        cols: tuple[np.ndarray, ...] | None = None,
    ):
        """Adopt canonical columns as they are (no checks).

        ``keys`` holds a 2-ary result, ``cols`` any other arity.  Use
        the ``from_*`` constructors, which canonicalise their input.
        """
        self._arity = arity
        self._nrows = nrows
        self._keys = keys
        self._cols = cols
        self._incomplete = None

    # -- construction ---------------------------------------------------

    @classmethod
    def empty(cls, arity: int = 0) -> "ResultSet":
        """The empty result of the given arity."""
        if arity == 2:
            return cls(2, 0, keys=EMPTY_I64)
        return cls(arity, 0, cols=tuple([EMPTY_I64] * arity))

    @classmethod
    def unit(cls) -> "ResultSet":
        """The Boolean "true" result: exactly one empty row."""
        return cls(0, 1, cols=())

    @classmethod
    def from_keys(cls, keys: np.ndarray) -> "ResultSet":
        """Adopt a sorted unique packed key column zero-copy (2-ary)."""
        return cls(2, keys.size, keys=frozen(keys))

    @classmethod
    def from_relation(cls, relation) -> "ResultSet":
        """Wrap a :class:`BinaryRelation`'s key column zero-copy."""
        return cls.from_keys(relation.key_array)

    @classmethod
    def from_column(cls, column: np.ndarray, *, canonical: bool = False) -> "ResultSet":
        """1-ary result from an id column.

        ``canonical`` declares the column already sorted and unique
        (e.g. the output of :func:`sorted_unique`), skipping normalisation.
        """
        column = np.ascontiguousarray(column, dtype=np.int64)
        if not canonical:
            column = sorted_unique(column)
        return cls(1, column.size, cols=(frozen(column),))

    @classmethod
    def from_table(cls, table: np.ndarray) -> "ResultSet":
        """k-ary result from an ``(n, k)`` row matrix (deduplicates)."""
        table = np.ascontiguousarray(table, dtype=np.int64)
        if table.ndim != 2:
            raise ValueError(f"expected a 2-D row matrix, got shape {table.shape}")
        arity = table.shape[1]
        if arity == 0:
            return cls.unit() if table.shape[0] else cls.empty(0)
        if arity == 1:
            # A sorted column is still a view of the caller's table:
            # copy it, or writes to the table would reach the result.
            column = table[:, 0]
            if _strictly_increasing(column):
                column = column.copy()
            else:
                column = sorted_unique(column)
            return cls(1, column.size, cols=(frozen(column),))
        if arity == 2:
            # Joins usually hand over rows in relation order (sorted by
            # packed key already): one O(n) monotonicity check saves the
            # O(n log n) re-sort on that common path.
            keys = pack_pairs(table[:, 0], table[:, 1])
            if not _strictly_increasing(keys):
                keys = sorted_unique(keys)
            return cls.from_keys(keys)
        canonical = unique_rows(table)
        cols = tuple(frozen(np.ascontiguousarray(canonical[:, j]))
                     for j in range(arity))
        return cls(arity, canonical.shape[0], cols=cols)

    @classmethod
    def from_rows(cls, rows, arity: int | None = None) -> "ResultSet":
        """Result from a set/list of equal-length tuples.

        The one tuple constructor, for engines that collect answers
        tuple-at-a-time: one ``np.fromiter`` pass flattens the rows
        straight into the ``(n, k)`` matrix :meth:`from_table`
        canonicalises.  ``arity`` is required when ``rows`` may be
        empty (an empty set carries no arity of its own).
        """
        count = len(rows)
        if count == 0:
            return cls.empty(0 if arity is None else arity)
        if arity is None:
            arity = len(next(iter(rows)))
        if arity == 0:
            return cls.unit()
        flat = np.fromiter(
            (value for row in rows for value in row), dtype=np.int64
        )
        if flat.size != count * arity:
            raise ValueError(f"rows are not all of arity {arity}")
        return cls.from_table(flat.reshape(count, arity))

    # -- columnar access ------------------------------------------------

    @property
    def arity(self) -> int:
        return self._arity

    @property
    def key_array(self) -> np.ndarray:
        """Packed sorted keys (2-ary results only, read-only)."""
        if self._arity != 2:
            raise ValueError(f"key_array is 2-ary only; this result is {self._arity}-ary")
        return self._keys

    def arrays(self) -> tuple[np.ndarray, ...]:
        """The result columns, zero-copy and read-only (one per position)."""
        if self._cols is None:
            first, second = unpack_keys(self._keys)
            self._cols = (frozen(first), frozen(second))
        return self._cols

    def count(self) -> int:
        """Number of answer rows — an array length, no tuples built."""
        return self._nrows

    def count_distinct(self) -> int:
        """``count(distinct ?v)``, the §7.1 measurement form.

        Rows are unique by construction, so this is :meth:`count`
        resolved entirely array-side — the whole point of the columnar
        boundary: the seed paid a full ``set[tuple]`` materialisation
        here.
        """
        return self._nrows

    # -- completeness (hardened execution / partial results) ------------

    @property
    def complete(self) -> bool:
        """False when this result was truncated by a budget abort."""
        return self._incomplete is None

    @property
    def abort_report(self):
        """The :class:`~repro.execution.context.AbortReport` describing
        why an incomplete result was cut short (None when complete)."""
        return self._incomplete

    def mark_incomplete(self, report) -> "ResultSet":
        """A shallow copy of this result flagged incomplete.

        The columns are shared zero-copy; only the completeness flag
        differs, so set algebra on the copy behaves identically.
        """
        result = ResultSet(self._arity, self._nrows, self._keys, self._cols)
        result._incomplete = report
        return result

    # -- NDJSON streaming (the service's wire format) -------------------

    def iter_ndjson(self, chunk_rows: int = 1 << 16) -> Iterator[str]:
        """Stream this result as NDJSON text in bounded chunks.

        Yields one header record (``{"record": "result", "arity": k,
        "rows": n, "complete": bool}``), then the answer rows as one
        JSON array per line (``[src,trg]``), ``chunk_rows`` rows per
        yielded string, and — for an incomplete result — one trailing
        abort record (:meth:`AbortReport.to_json`).  Rows are formatted
        with one ``%``-template pass per chunk (the graph writers'
        idiom), so a 10M-row answer streams as ~64k-row strings and
        never materialises a whole response body.
        """
        header = {
            "record": "result",
            "arity": self._arity,
            "rows": self._nrows,
            "complete": self.complete,
        }
        yield json.dumps(header, sort_keys=True) + "\n"
        if self._nrows:
            if self._arity == 0:
                yield "[]\n" * self._nrows
            else:
                cols = self.arrays()
                template = "[" + ",".join(["%d"] * self._arity) + "]\n"
                for start in range(0, self._nrows, chunk_rows):
                    block = np.column_stack(
                        [column[start:start + chunk_rows] for column in cols]
                    )
                    yield (template * block.shape[0]) % tuple(block.ravel())
        if self._incomplete is not None:
            yield self._incomplete.to_json() + "\n"

    # -- set algebra (sorted-key kernels) -------------------------------

    def _check_arity(self, other: "ResultSet") -> None:
        if self._arity != other._arity:
            raise ValueError(
                f"arity mismatch: {self._arity}-ary vs {other._arity}-ary"
            )

    def _table(self) -> np.ndarray:
        cols = self.arrays()
        if not cols:
            return np.zeros((self._nrows, 0), dtype=np.int64)
        return np.column_stack(cols)

    def union(self, other: "ResultSet") -> "ResultSet":
        """Columnar set union (sorted merge; no tuples).

        Arity must match even when an operand is empty — a silent
        arity flip in an accumulator would surface as a confusing
        failure far downstream.
        """
        self._check_arity(other)
        if other._nrows == 0:
            return self
        if self._nrows == 0:
            return other
        if self._arity == 2:
            return ResultSet.from_keys(merge_keys(self._keys, other._keys))
        if self._arity == 1:
            return ResultSet.from_column(
                merge_keys(self.arrays()[0], other.arrays()[0]),
                canonical=True,
            )
        if self._arity == 0:
            return self  # both non-empty Booleans are "true"
        return ResultSet.from_table(
            np.concatenate((self._table(), other._table()))
        )

    def difference(self, other: "ResultSet") -> "ResultSet":
        """Columnar set difference (sorted-key difference; no tuples)."""
        self._check_arity(other)
        if self._nrows == 0 or other._nrows == 0:
            return self
        if self._arity == 2:
            return ResultSet.from_keys(keys_difference(self._keys, other._keys))
        if self._arity == 1:
            return ResultSet.from_column(
                keys_difference(self.arrays()[0], other.arrays()[0]),
                canonical=True,
            )
        if self._arity == 0:
            return ResultSet.empty(0)
        mine, theirs = self._table(), other._table()
        return ResultSet.from_table(mine[~rows_in(mine, theirs)])

    def project(self, positions: Sequence[int]) -> "ResultSet":
        """Project onto the given column positions (re-deduplicates)."""
        for position in positions:
            if not 0 <= position < self._arity:
                raise ValueError(
                    f"position {position} out of range for {self._arity}-ary result"
                )
        if not positions:
            return ResultSet.unit() if self._nrows else ResultSet.empty(0)
        cols = self.arrays()
        if len(positions) == 1:
            return ResultSet.from_column(cols[positions[0]])
        if len(positions) == 2:
            return ResultSet.from_keys(
                sorted_unique_keys(cols[positions[0]], cols[positions[1]])
            )
        return ResultSet.from_table(
            np.column_stack([cols[p] for p in positions])
        )

    # -- size and equality ----------------------------------------------

    def __len__(self) -> int:
        return self._nrows

    def __bool__(self) -> bool:
        return self._nrows > 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, ResultSet):
            return NotImplemented
        if self._nrows != other._nrows:
            return False
        if self._nrows == 0:
            return True
        if self._arity != other._arity:
            return False
        if self._arity == 2:
            return bool(np.array_equal(self._keys, other._keys))
        return all(
            np.array_equal(mine, theirs)
            for mine, theirs in zip(self.arrays(), other.arrays())
        )

    __hash__ = None  # mutable-adjacent view; matches set's unhashability

    def __repr__(self) -> str:
        return f"ResultSet(arity={self._arity}, rows={self._nrows})"
