"""A small in-memory column-store table.

The table stores each column as a Python list (values may be heterogeneous —
categorical strings, ints, floats, booleans) and assigns every row a stable
integer ``row id``.  Row ids are what the optimizers, executors and metrics
pass around: the ground-truth "correct result" of a query is a set of row ids,
and so is an approximate result.
"""

from __future__ import annotations

import threading
from itertools import islice
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np
import numpy.typing as npt

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (index imports table)
    from repro.db.index import GroupIndex

from repro.db.column import Column, ColumnType, distinct_values
from repro.db.errors import ColumnNotFoundError, SchemaMismatchError
from repro.db.schema import Schema
from repro.obs import metrics as _metrics


def coerce_cells_to_array(values: Sequence[Any]) -> np.ndarray:
    """A 1-d NumPy array over ``values`` with dict-equality-safe semantics.

    The array is the vectorisation substrate for grouping, bulk UDF
    evaluation and batch execution, so it must never change value semantics:
    ragged/sequence-valued cells and mixed-type cells (which numpy would
    silently stringify, altering grouping/equality downstream) fall back to
    an object array preserving the original python values.  Shared by
    :meth:`Table.column_array` and the incremental append path so a column
    built whole and a column built in deltas coerce identically.
    """
    try:
        array = np.asarray(values)
        if array.ndim != 1 or len(array) != len(values):
            raise ValueError("sequence-valued cells")
        if array.dtype.kind in ("U", "S") and not all(
            isinstance(value, str) for value in values
        ):
            raise ValueError("mixed-type cells")
    except ValueError:
        array = np.empty(len(values), dtype=object)
        array[:] = values
    return array


def as_row_ids(ids: Iterable[int]) -> npt.NDArray[np.intp]:
    """``ids`` as the one answer type: a read-only 1-d ``intp`` array.

    Where :class:`~repro.db.engine.QueryResult` and
    :class:`~repro.core.executor.ExecutionResult` normalise what producers
    hand them.  An ``intp`` array is not copied: it is handed over, and is
    read-only from then on through the producer's own handle as well — which
    is what lets several results share one answer safely.
    """
    array = np.asarray(ids, dtype=np.intp)
    if array.ndim != 1:
        raise ValueError(f"row ids must be one-dimensional, got shape {array.shape}")
    array.setflags(write=False)
    return array


def select_rows(rows: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """``rows[mask]`` for a boolean ``mask`` over 1-d ``rows``, chosen by count.

    The mask is counted first (``np.count_nonzero``, about 1 µs per 12.5k
    entries): when every entry passes the result is ``rows`` itself, not a
    copy, so callers must not write into it; when none does it is an empty
    array; otherwise one ``rows.compress(mask)``.  Coin and memo masks are
    where this pays: a probability a hair from 0 or 1 makes them all-false or
    all-true, and between those numpy 2.4's ``compress`` is 3–5x faster than
    the boolean-index gather (12.5k rows at density 0.3 / 0.6: 13 / 17 µs
    against 47 / 61).  A mask known to be nearly all-true is faster through
    ``rows[mask]``; :func:`~repro.sampling.sampler.drop_members` keeps it.
    """
    kept = int(np.count_nonzero(mask))
    if kept == rows.size:
        return rows
    if kept == 0:
        return rows[:0]
    return rows.compress(mask)


def narrowed_ids(ids: np.ndarray) -> np.ndarray:
    """``ids`` in the narrowest unsigned dtype that holds them — how warm
    state stores row ids and group codes (as they are when empty or when any
    is negative).  Readers widen whatever dtype they find back to ``intp``."""
    if ids.size and int(ids.min()) >= 0:
        return ids.astype(np.min_scalar_type(int(ids.max())))
    return ids


def infer_schema_for_columns(
    columns: Mapping[str, Sequence[Any]],
    column_types: Optional[Mapping[str, ColumnType | str]] = None,
    hidden_columns: Iterable[str] = (),
) -> Schema:
    """Schema for column arrays: explicit types win, else a 100-value peek.

    Shared by :meth:`Table.from_columns` and the sharded ingestion path so
    both infer identically (and any future inference change lands in one
    place).  ``islice`` avoids materialising a full copy of a column just to
    peek at its first values — columns must still be real sequences, since
    the table constructor needs their length.
    """
    hidden = set(hidden_columns)
    column_types = column_types or {}
    column_defs = []
    for column_name, values in columns.items():
        if column_name in column_types:
            ctype = ColumnType(column_types[column_name])
        else:
            from repro.db.column import infer_column_type

            ctype = infer_column_type(list(islice(values, 100)))
        column_defs.append(
            Column(
                name=column_name,
                column_type=ctype,
                hidden=column_name in hidden,
            )
        )
    return Schema(column_defs)


class Table:
    """A row-id addressed, append-only table.

    Existing rows are immutable (and their ids stable) after construction;
    the only supported mutation is appending new rows at the end via
    :meth:`append_rows` / :meth:`append_columns`, which bumps
    :attr:`data_generation` and delta-maintains every cached derived
    structure (column arrays, group indexes).
    """

    #: What this table's columns have on disk, per segments directory:
    #: ``{directory: (data_generation when recorded, {column: manifest
    #: entry})}``.  Written by :mod:`repro.db.storage` (a load, or a
    #: checkpoint's manifest commit) and read back by the next checkpoint,
    #: which references those files instead of rewriting them.  Rows are
    #: append-only, so a record is true exactly while the generation it was
    #: taken at is current: every append makes it stale by itself.
    _durable: Optional[Dict[str, Tuple[int, Dict[str, Mapping[str, Any]]]]] = None

    def __init__(
        self,
        name: str,
        schema: Schema,
        columns: Mapping[str, Sequence[Any]],
    ):
        self.name = name
        self.schema = schema
        missing = [c for c in schema.column_names if c not in columns]
        if missing:
            raise SchemaMismatchError(f"missing data for columns {missing}")
        extra = [c for c in columns if not schema.has_column(c)]
        if extra:
            raise SchemaMismatchError(f"data provided for unknown columns {extra}")
        lengths = {name: len(values) for name, values in columns.items()}
        if len(set(lengths.values())) > 1:
            raise SchemaMismatchError(
                f"columns have inconsistent lengths: {lengths}"
            )
        self._data: Dict[str, List[Any]] = {
            name: list(values) for name, values in columns.items()
        }
        self._num_rows = next(iter(lengths.values())) if lengths else 0
        self._data_generation = 0
        self._arrays: Dict[str, np.ndarray] = {}
        self._group_indexes: Dict[tuple, "GroupIndex"] = {}
        self._group_index_lock = threading.Lock()

    # -- construction helpers -------------------------------------------------
    @classmethod
    def from_rows(
        cls,
        name: str,
        rows: Sequence[Mapping[str, Any]],
        schema: Optional[Schema] = None,
    ) -> "Table":
        """Build a table from a list of dict rows, inferring the schema if needed."""
        if schema is None:
            schema = Schema.infer(rows)
        schema.validate_rows(rows)
        columns: Dict[str, List[Any]] = {
            column_name: [row[column_name] for row in rows]
            for column_name in schema.column_names
        }
        return cls(name=name, schema=schema, columns=columns)

    @classmethod
    def from_columns(
        cls,
        name: str,
        columns: Mapping[str, Sequence[Any]],
        column_types: Optional[Mapping[str, ColumnType | str]] = None,
        hidden_columns: Iterable[str] = (),
    ) -> "Table":
        """Build a table directly from column arrays."""
        schema = infer_schema_for_columns(
            columns, column_types=column_types, hidden_columns=hidden_columns
        )
        return cls(name=name, schema=schema, columns=columns)

    @classmethod
    def from_arrays(
        cls,
        name: str,
        schema: Schema,
        arrays: Mapping[str, np.ndarray],
        data_generation: int = 0,
    ) -> "Table":
        """Build a table directly over column arrays, without materialising lists.

        The storage layer's load path: ``arrays`` (typically read-only
        memmaps over persisted segment files) become the table's cached
        column arrays as-is, and the python-value cell lists behind
        :meth:`column_values` / :meth:`row` are materialised lazily, per
        column, only when something actually asks for python cells.  Arrays
        must be 1-d, cover every schema column and agree on length; they are
        marked read-only (the table shares, not copies, them).
        """
        missing = [c for c in schema.column_names if c not in arrays]
        if missing:
            raise SchemaMismatchError(f"missing arrays for columns {missing}")
        extra = [c for c in arrays if not schema.has_column(c)]
        if extra:
            raise SchemaMismatchError(f"arrays provided for unknown columns {extra}")
        lengths = {column: len(array) for column, array in arrays.items()}
        if len(set(lengths.values())) > 1:
            raise SchemaMismatchError(
                f"column arrays have inconsistent lengths: {lengths}"
            )
        table = cls.__new__(cls)
        table.name = name
        table.schema = schema
        table._data = {}
        table._num_rows = next(iter(lengths.values())) if lengths else 0
        table._data_generation = int(data_generation)
        table._arrays = {}
        for column, array in arrays.items():
            array = np.asarray(array)
            if array.ndim != 1:
                raise SchemaMismatchError(
                    f"column {column!r} array must be 1-d, got shape {array.shape}"
                )
            array.setflags(write=False)
            table._arrays[column] = array
        table._group_indexes = {}
        table._group_index_lock = threading.Lock()
        return table

    # -- shape ------------------------------------------------------------------
    @property
    def num_rows(self) -> int:
        """Number of rows."""
        return self._num_rows

    @property
    def num_columns(self) -> int:
        """Number of columns."""
        return len(self.schema)

    @property
    def row_ids(self) -> range:
        """All row ids (0-based, dense)."""
        return range(self._num_rows)

    def __len__(self) -> int:
        return self._num_rows

    @property
    def data_generation(self) -> int:
        """Monotonic counter advanced by every append.

        Row ids are append-only stable (existing ids never change meaning),
        so statistics computed at generation ``g`` remain *valid* for the
        first ``num_rows(g)`` rows at any later generation — they are merely
        incomplete.  The serving layer uses the generation to detect staleness
        and refresh cached entries through the delta path instead of treating
        a grown table as a brand-new one.
        """
        return self._data_generation

    def shard_signature(self) -> tuple:
        """Hashable shard-layout token for cache keying.

        A monolithic table is its own single shard; sharded subclasses
        (:class:`~repro.db.sharding.ShardedTable`) report their boundaries.
        The :attr:`data_generation` is folded in, so statistics computed
        against one layout/data generation are never replayed verbatim
        against another.  Serving caches key on this token (plus table
        identity) and treat a signature mismatch at equal identity as a
        *refreshable* — not cold — miss.
        """
        return ("monolithic", self._num_rows, self._data_generation)

    # -- durability record --------------------------------------------------------
    def durable_segments(self, directory: str) -> Mapping[str, Mapping[str, Any]]:
        """``{column: manifest entry}`` of what ``directory`` holds of the
        current rows — empty when it holds nothing, or the rows moved on."""
        generation, entries = (self._durable or {}).get(directory, (None, {}))
        return entries if generation == self._data_generation else {}

    def mark_durable(
        self, directory: str, entries: Mapping[str, Mapping[str, Any]]
    ) -> None:
        """Record that ``entries`` under ``directory`` hold the current rows.

        Records other directories took at an older generation are dropped
        here, so the mapping never outgrows the directories in use.
        """
        generation = self._data_generation
        durable = {
            other: record
            for other, record in (self._durable or {}).items()
            if record[0] == generation
        }
        durable[directory] = (generation, dict(entries))
        self._durable = durable

    # -- incremental ingest -------------------------------------------------------
    def append_columns(self, columns: Mapping[str, Sequence[Any]]) -> int:
        """Append a delta of rows given as column arrays; returns rows added.

        Appends are the only mutation a table supports: new rows receive the
        next dense row ids, existing rows never move, and every derived
        structure is maintained *incrementally* — cached column arrays are
        extended with the coerced delta, and cached
        :class:`~repro.db.index.GroupIndex` objects are replaced by
        :meth:`~repro.db.index.GroupIndex.extended_by` copies that factorise
        only the delta.  Cost is therefore proportional to the delta (plus
        O(n) array concatenation), not to the table.

        Appends are single-writer: callers must quiesce concurrent queries
        against this table while appending (the serving layer appends
        between batches).  Readers holding pre-append index objects keep a
        consistent pre-append view.
        """
        return self._apply_append(self._normalise_delta(columns))

    def _normalise_delta(
        self, columns: Mapping[str, Sequence[Any]]
    ) -> Dict[str, List[Any]]:
        """Validate an append delta against the schema and copy it once.

        The returned lists are owned by the append machinery (the sharded
        tail reuses them for its own cache maintenance without re-copying);
        copying up front also means a failure during the append can never
        leave the table with ragged columns.
        """
        missing = [c for c in self.schema.column_names if c not in columns]
        if missing:
            raise SchemaMismatchError(f"missing data for columns {missing}")
        extra = [c for c in columns if not self.schema.has_column(c)]
        if extra:
            raise SchemaMismatchError(f"data provided for unknown columns {extra}")
        lengths = {name: len(values) for name, values in columns.items()}
        if len(set(lengths.values())) > 1:
            raise SchemaMismatchError(
                f"appended columns have inconsistent lengths: {lengths}"
            )
        return {name: list(values) for name, values in columns.items()}

    def _apply_append(self, delta: Dict[str, List[Any]]) -> int:
        """Extend the columns with an already-normalised delta."""
        delta_rows = len(next(iter(delta.values()))) if delta else 0
        if delta_rows == 0:
            return 0
        for name, values in delta.items():
            self._cells(name).extend(values)
        previous_rows = self._num_rows
        self._num_rows += delta_rows
        self._extend_caches(delta, previous_rows)
        self._data_generation += 1
        _metrics.counter("repro_table_appends_total", table=self.name).inc()
        _metrics.counter("repro_table_rows_appended_total", table=self.name).inc(delta_rows)
        _metrics.gauge("repro_table_rows", table=self.name).set(self._num_rows)
        _metrics.gauge("repro_table_data_generation", table=self.name).set(
            self._data_generation
        )
        return delta_rows

    def append_rows(self, rows: Sequence[Mapping[str, Any]]) -> int:
        """Append a delta of dict rows (validated against the schema)."""
        if not rows:
            return 0
        self.schema.validate_rows(rows)
        return self.append_columns(
            {
                column_name: [row[column_name] for row in rows]
                for column_name in self.schema.column_names
            }
        )

    def _extend_caches(
        self, delta: Mapping[str, List[Any]], previous_rows: int
    ) -> None:
        """Delta-maintain cached arrays and group indexes after an append."""
        delta_arrays: Dict[str, np.ndarray] = {}

        def delta_array(column: str) -> np.ndarray:
            array = delta_arrays.get(column)
            if array is None:
                array = coerce_cells_to_array(delta[column])
                delta_arrays[column] = array
            return array

        for column in list(self._arrays):
            extended = self._extend_column_array(
                self._arrays[column], delta_array(column), delta[column]
            )
            if extended is None:
                # Mixed kinds across the append boundary: rebuild lazily from
                # the full python values (what a from-scratch table would do).
                del self._arrays[column]
            else:
                extended.setflags(write=False)
                self._arrays[column] = extended

        with self._group_index_lock:
            for key in list(self._group_indexes):
                _allow_hidden, column = key
                self._group_indexes[key] = self._group_indexes[key].extended_by(
                    delta_array(column), lambda column=column: delta[column]
                )

    @staticmethod
    def _extend_column_array(
        cached: np.ndarray, delta: np.ndarray, delta_cells: List[Any]
    ) -> Optional[np.ndarray]:
        """Concatenate a cached column array with its coerced delta.

        Returns ``None`` when the pair cannot be concatenated faithfully
        (e.g. a numeric column receiving string cells, which
        ``np.concatenate`` would silently stringify): the caller then drops
        the cache entry and the next :meth:`Table.column_array` call rebuilds
        from the python values — exactly the array a monolithic rebuild
        would produce.
        """
        if cached.dtype.kind == "O" or delta.dtype.kind == "O":
            if cached.dtype.kind == delta.dtype.kind == "O":
                return np.concatenate([cached, delta])
            return None
        string_kinds = ("U", "S")
        if (cached.dtype.kind in string_kinds) != (delta.dtype.kind in string_kinds):
            return None
        return np.concatenate([cached, delta])

    # -- access ------------------------------------------------------------------
    def _cells(self, column: str) -> List[Any]:
        """The mutable python-value cell list backing ``column``.

        Eagerly-built tables carry their lists from construction; tables
        loaded over arrays (:meth:`from_arrays`) materialise each list
        lazily from the cached array on first access — ``ndarray.tolist``
        yields plain python scalars, exactly the values the original
        ingestion stored.  The returned list is the canonical storage the
        append path extends; callers must copy before exposing it.
        """
        cells = self._data.get(column)
        if cells is None:
            cells = self._arrays[column].tolist()
            self._data[column] = cells
        return cells

    def column_values(self, column: str, allow_hidden: bool = False) -> List[Any]:
        """All values of a column.

        Hidden columns (ground-truth labels) are only readable when
        ``allow_hidden`` is set; the query-evaluation algorithms never set it.
        """
        column_def = self.schema.column(column)
        if column_def.hidden and not allow_hidden:
            raise ColumnNotFoundError(
                column, self.schema.visible_column_names
            )
        return list(self._cells(column))

    def column_array(self, column: str, allow_hidden: bool = False) -> np.ndarray:
        """All values of a column as a cached, read-only NumPy array.

        Existing rows are immutable, so the array is built once per column
        and shared by every caller (batch executors, vectorised group
        statistics, UDF fast paths); appends extend the cached array with
        the coerced delta in place of a rebuild.  Callers must not write to
        it; the write flag is cleared to enforce that.
        """
        column_def = self.schema.column(column)
        if column_def.hidden and not allow_hidden:
            raise ColumnNotFoundError(column, self.schema.visible_column_names)
        array = self._arrays.get(column)
        if array is None:
            # Ragged/sequence-valued or mixed-type cells fall back to an
            # object array preserving the original python values (numpy
            # silently stringifies mixed str/int columns, which would change
            # grouping/equality semantics downstream).
            array = coerce_cells_to_array(self._cells(column))
            array.setflags(write=False)
            self._arrays[column] = array
        return array

    def gather_column(
        self,
        column: str,
        row_ids: Sequence[int],
        allow_hidden: bool = False,
    ) -> np.ndarray:
        """Values of ``column`` at ``row_ids``, as one vectorised gather.

        Semantically identical to ``column_array(column)[row_ids]`` — and
        that is exactly what this base implementation does — but expressed
        as a hook so residency-aware tables
        (:class:`~repro.db.residency.LazyShardedTable`) can serve the gather
        shard-at-a-time, pinning and faulting in one shard's segment at a
        time instead of materialising the whole column.  Row order in the
        result always matches ``row_ids`` order, so the access pattern a
        subclass chooses is invisible to callers.
        """
        ids = np.asarray(row_ids, dtype=np.intp)
        return self.column_array(column, allow_hidden=allow_hidden)[ids]

    def value(self, row_id: int, column: str, allow_hidden: bool = False) -> Any:
        """Value of one cell."""
        column_def = self.schema.column(column)
        if column_def.hidden and not allow_hidden:
            raise ColumnNotFoundError(column, self.schema.visible_column_names)
        self._check_row_id(row_id)
        return self._cells(column)[row_id]

    def row(self, row_id: int, include_hidden: bool = False) -> Dict[str, Any]:
        """A dict view of one row."""
        self._check_row_id(row_id)
        names = (
            self.schema.column_names
            if include_hidden
            else self.schema.visible_column_names
        )
        return {name: self._cells(name)[row_id] for name in names}

    def rows(self, include_hidden: bool = False) -> Iterator[Dict[str, Any]]:
        """Iterate dict views of all rows."""
        for row_id in self.row_ids:
            yield self.row(row_id, include_hidden=include_hidden)

    def distinct(self, column: str, allow_hidden: bool = False) -> List[Any]:
        """Distinct values of a column in first-appearance order."""
        return distinct_values(self.column_values(column, allow_hidden=allow_hidden))

    def num_distinct(self, column: str, allow_hidden: bool = False) -> int:
        """Number of distinct values in a column."""
        return len(self.distinct(column, allow_hidden=allow_hidden))

    # -- derivation ---------------------------------------------------------------
    def select_rows(self, row_ids: Iterable[int], name: Optional[str] = None) -> "Table":
        """A new table containing only ``row_ids`` (re-numbered densely)."""
        ids = list(row_ids)
        for row_id in ids:
            self._check_row_id(row_id)
        columns = {
            column_name: [self._cells(column_name)[i] for i in ids]
            for column_name in self.schema.column_names
        }
        return Table(name=name or f"{self.name}_subset", schema=self.schema, columns=columns)

    def with_column(
        self,
        column: Column,
        values: Sequence[Any],
        name: Optional[str] = None,
    ) -> "Table":
        """A new table with one extra (or replaced) column.

        Used by the virtual-column machinery: the logistic-regression bucket
        id becomes a brand new categorical column.
        """
        if len(values) != self._num_rows:
            raise SchemaMismatchError(
                f"new column {column.name!r} has {len(values)} values for a "
                f"table of {self._num_rows} rows"
            )
        new_columns = {
            column_name: self._cells(column_name)
            for column_name in self.schema.column_names
        }
        new_columns[column.name] = list(values)
        existing = [c for c in self.schema.columns if c.name != column.name]
        return Table(
            name=name or self.name,
            schema=Schema(existing + [column]),
            columns=new_columns,
        )

    def filter(
        self, predicate: Callable[[Dict[str, Any]], bool], include_hidden: bool = False
    ) -> List[int]:
        """Row ids whose (visible) row dict satisfies ``predicate``."""
        matches = []
        for row_id in self.row_ids:
            if predicate(self.row(row_id, include_hidden=include_hidden)):
                matches.append(row_id)
        return matches

    def group_row_ids(self, column: str, allow_hidden: bool = False) -> Dict[Any, List[int]]:
        """Map each distinct value of ``column`` to the row ids holding it.

        This is the reference dict-based grouping; the vectorised
        :class:`~repro.db.index.GroupIndex` is differential-tested against it.
        Hot paths should use :meth:`group_index` instead.
        """
        values = self.column_values(column, allow_hidden=allow_hidden)
        groups: Dict[Any, List[int]] = {}
        for row_id, value in enumerate(values):
            groups.setdefault(value, []).append(row_id)
        return groups

    def group_index(self, column: str, allow_hidden: bool = False) -> "GroupIndex":
        """A shared :class:`~repro.db.index.GroupIndex` over ``column``.

        Built at most once per column and reused by every caller — the
        engine, the Intel-Sample pipeline and the serving layer all group by
        the same cached index instead of re-factorising the column per
        query.  Appends replace the cached object with an incrementally
        extended copy, so the returned index always covers every current
        row.  Hidden-column indexes are cached separately so a
        privileged (``allow_hidden``) access can never leak an index to an
        unprivileged caller.
        """
        from repro.db.index import GroupIndex

        key = (allow_hidden, column)
        index = self._group_indexes.get(key)
        if index is None:
            # Double-checked under a lock: concurrent first-sight queries
            # (the threaded QueryService) must neither duplicate the O(n)
            # factorisation nor double-advance GroupIndex.builds_total,
            # which the benchmark gate holds at one build per column.
            with self._group_index_lock:
                index = self._group_indexes.get(key)
                if index is None:
                    index = GroupIndex(self, column, allow_hidden=allow_hidden)
                    self._group_indexes[key] = index
        return index

    def has_group_index(self, column: str, allow_hidden: bool = False) -> bool:
        """Whether :meth:`group_index` already built an index for ``column``."""
        return (allow_hidden, column) in self._group_indexes

    # -- internal -----------------------------------------------------------------
    def _check_row_id(self, row_id: int) -> None:
        if not 0 <= row_id < self._num_rows:
            raise IndexError(
                f"row id {row_id} out of range for table of {self._num_rows} rows"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Table({self.name!r}, rows={self._num_rows}, columns={self.num_columns})"
