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

Backward compatibility: ``ResultSet`` registers as a
:class:`collections.abc.Set`, so the seed-era idioms — iteration,
``len``, ``in``, ``==`` / ``<=`` / ``&`` against ``set[tuple]`` — keep
working, with :meth:`to_set` as the explicit escape hatch.  Those paths
materialise Python tuples and exist only for migration and tests;
**new code should consume** :meth:`arrays` / :meth:`count` /
:meth:`count_distinct` instead (the tuple-at-a-time surface is
deprecated for hot paths and asserted cold by the regression tests).
"""

from __future__ import annotations

import json
from collections.abc import Set as AbstractSet
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.columnar import (
    EMPTY_I64,
    frozen,
    keys_contain,
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


class ResultSet(AbstractSet):
    """Lazy, columnar set of fixed-arity answer tuples."""

    __slots__ = ("_arity", "_nrows", "_keys", "_cols", "_incomplete")

    def __init__(self, rows: Iterable[tuple[int, ...]] = (), arity: int | None = None):
        """Compatibility constructor from an iterable of tuples.

        The columnar entry points — :meth:`from_keys`,
        :meth:`from_relation`, :meth:`from_column`, :meth:`from_table` —
        are the zero-copy fast paths; this one exists so ``ResultSet``
        can stand in anywhere a ``set`` of tuples was built before.
        """
        if isinstance(rows, ResultSet):
            other = rows
            self._arity = other._arity
            self._nrows = other._nrows
            self._keys = other._keys
            self._cols = other._cols
            self._incomplete = other._incomplete
            return
        row_list = list(rows)
        if not row_list:
            arity = arity or 0
            self._init_raw(
                arity,
                0,
                EMPTY_I64 if arity == 2 else None,
                None if arity == 2 else tuple([EMPTY_I64] * arity),
            )
            return
        inferred = len(row_list[0])
        if arity is not None and arity != inferred:
            raise ValueError(f"rows have arity {inferred}, expected {arity}")
        if inferred == 0:
            self._init_raw(0, 1, None, ())
            return
        table = np.asarray(row_list, dtype=np.int64).reshape(len(row_list), inferred)
        self._init_from_table(table)

    # -- construction ---------------------------------------------------

    def _init_raw(
        self,
        arity: int,
        nrows: int,
        keys: np.ndarray | None,
        cols: tuple[np.ndarray, ...] | None,
    ) -> None:
        self._arity = arity
        self._nrows = nrows
        self._keys = keys
        self._cols = cols
        self._incomplete = None

    def _init_from_table(self, table: np.ndarray) -> None:
        arity = table.shape[1]
        if arity == 1:
            column = np.ascontiguousarray(table[:, 0], dtype=np.int64)
            if not _strictly_increasing(column):
                column = sorted_unique(column)
            self._init_raw(1, column.size, None, (frozen(column),))
        elif arity == 2:
            # Joins usually hand over rows in relation order (sorted by
            # packed key already): one O(n) monotonicity check saves the
            # O(n log n) re-sort on that common path.
            keys = pack_pairs(table[:, 0], table[:, 1])
            if not _strictly_increasing(keys):
                keys = sorted_unique(keys)
            self._init_raw(2, keys.size, frozen(keys), None)
        else:
            canonical = unique_rows(table)
            cols = tuple(frozen(np.ascontiguousarray(canonical[:, j]))
                         for j in range(arity))
            self._init_raw(arity, canonical.shape[0], None, cols)

    @classmethod
    def _raw(cls, arity, nrows, keys=None, cols=None) -> "ResultSet":
        result = cls.__new__(cls)
        result._init_raw(arity, nrows, keys, cols)
        return result

    @classmethod
    def empty(cls, arity: int = 0) -> "ResultSet":
        """The empty result of the given arity."""
        return cls._raw(arity, 0, EMPTY_I64 if arity == 2 else None,
                        None if arity == 2 else tuple([EMPTY_I64] * arity))

    @classmethod
    def unit(cls) -> "ResultSet":
        """The Boolean "true" result: exactly one empty row."""
        return cls._raw(0, 1, None, ())

    @classmethod
    def from_keys(cls, keys: np.ndarray) -> "ResultSet":
        """Adopt a sorted unique packed key column zero-copy (2-ary)."""
        return cls._raw(2, keys.size, frozen(keys), None)

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
        return cls._raw(1, column.size, None, (frozen(column),))

    @classmethod
    def from_table(cls, table: np.ndarray) -> "ResultSet":
        """k-ary result from an ``(n, k)`` row matrix (deduplicates)."""
        table = np.ascontiguousarray(table, dtype=np.int64)
        if table.ndim != 2:
            raise ValueError(f"expected a 2-D row matrix, got shape {table.shape}")
        if table.shape[1] == 0:
            return cls.unit() if table.shape[0] else cls.empty(0)
        result = cls.__new__(cls)
        result._init_from_table(table)
        return result

    @classmethod
    def from_rows(
        cls, rows, arity: int | None = None
    ) -> "ResultSet":
        """Fast path from a set/list of equal-length tuples.

        One ``np.fromiter`` pass flattens the rows straight into the
        ``(n, k)`` matrix :meth:`from_table` canonicalises — no
        intermediate list-of-tuples array conversion.  ``arity`` is
        required when ``rows`` may be empty (an empty set carries no
        arity of its own).
        """
        count = len(rows)
        if count == 0:
            return cls.empty(0 if arity is None else arity)
        if arity is None:
            arity = len(next(iter(rows)))
        if arity == 0:
            return cls.unit()
        flat = np.fromiter(
            (value for row in rows for value in row),
            dtype=np.int64,
            count=count * arity,
        )
        result = cls.__new__(cls)
        result._init_from_table(flat.reshape(count, arity))
        return result

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
        result = ResultSet._raw(self._arity, self._nrows, self._keys, self._cols)
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

    def to_relation(self):
        """View a 2-ary result as a :class:`BinaryRelation` (zero-copy)."""
        from repro.engine.relations import BinaryRelation

        return BinaryRelation.from_keys(self.key_array)

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

    # -- compatibility shim (deprecated for hot paths) ------------------

    def iter_rows(self) -> Iterator[tuple[int, ...]]:
        """Yield answer rows as Python tuples.

        .. deprecated:: migration shim — materialises one tuple per
           row.  Use :meth:`arrays` (zero-copy columns) or
           :meth:`count` / :meth:`count_distinct` instead.
        """
        if self._arity == 0:
            for _ in range(self._nrows):
                yield ()
            return
        yield from zip(*(column.tolist() for column in self.arrays()))

    def to_set(self) -> set[tuple[int, ...]]:
        """Materialise the seed-era ``set[tuple]`` (escape hatch).

        .. deprecated:: migration shim, same caveats as
           :meth:`iter_rows`.
        """
        return set(self.iter_rows())

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return self.iter_rows()

    def __len__(self) -> int:
        return self._nrows

    def __bool__(self) -> bool:
        return self._nrows > 0

    def __contains__(self, row) -> bool:
        if not isinstance(row, tuple) or len(row) != self._arity:
            return False
        if self._arity == 0:
            return self._nrows > 0
        try:
            row = tuple(int(value) for value in row)
        except (TypeError, ValueError):
            return False
        if any(not 0 <= value < (1 << 31) for value in row):
            return False
        if self._arity == 2:
            return keys_contain(self._keys, (int(row[0]) << 32) | int(row[1]))
        cols = self.arrays()
        if self._arity == 1:
            return keys_contain(cols[0], int(row[0]))
        mask = np.ones(self._nrows, dtype=bool)
        for column, value in zip(cols, row):
            mask &= column == int(value)
        return bool(mask.any())

    @classmethod
    def _from_iterable(cls, iterable) -> "ResultSet":
        # collections.abc.Set mixin hook (powers &, |, -, ^ against
        # arbitrary tuple sets).
        return cls(iterable)

    def __eq__(self, other) -> bool:
        if isinstance(other, ResultSet):
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
        if isinstance(other, AbstractSet):
            if len(other) != self._nrows:
                return False
            return all(row in other for row in self.iter_rows())
        return NotImplemented

    __hash__ = None  # mutable-adjacent view; matches set's unhashability

    def __repr__(self) -> str:
        return f"ResultSet(arity={self._arity}, rows={self._nrows})"
