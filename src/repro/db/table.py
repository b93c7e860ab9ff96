"""A small in-memory column-store table.

The table stores each column as one read-only NumPy array (values may be
heterogeneous — categorical strings, ints, floats, booleans; a column numpy
cannot hold faithfully is an object array) and assigns every row a stable
integer ``row id``.  Row ids are what the optimizers, executors and metrics
pass around: the ground-truth "correct result" of a query is a set of row ids,
and so is an approximate result.
"""

from __future__ import annotations

import sys
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


#: UTF-32 in this machine's byte order: the code units of a native ``U`` array.
_UTF32 = "utf-32-le" if sys.byteorder == "little" else "utf-32-be"


def coerce_cells_to_array(values: Sequence[Any]) -> np.ndarray:
    """A 1-d NumPy array over ``values`` with dict-equality-safe semantics.

    The array is a column's one store — grouping, bulk UDF evaluation,
    batch execution and every cell read go through it — so it must never
    change value semantics: ragged/sequence-valued cells and mixed-type
    cells (which numpy would silently stringify, altering grouping/equality
    downstream) fall back to an object array holding the given python
    values.  Shared by :meth:`Table.column_array` and the append path, so a
    column built whole and a column built in deltas coerce identically.

    A list whose first cell is a ``str`` — a categorical column, the kind
    the paper groups by — is first tried as a string column
    (:func:`_string_column`): its distinct cells decide, not every cell, and
    cells of one width become the array in one encoded join, without numpy
    discovering a dtype cell by cell.  It is the array the general rule
    gives (dtype, bytes, ``tolist()``), read-only.
    """
    if type(values) is list and values and type(values[0]) is str:
        strings = _string_column(values)
        if strings is not None:
            return strings
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


def _string_column(values: List[Any]) -> Optional[np.ndarray]:
    """``values`` as a read-only ``U`` array, or ``None`` unless every cell is
    a ``str`` and all have one width of at least 1.

    ``set(values)`` gives the distinct cells (a column has few), and their
    lengths the width.  The cells are joined and encoded once —
    ``surrogatepass`` keeps a lone surrogate, which a ``U`` array stores as
    its code unit — and the bytes are the array.
    """
    try:
        distinct = set(values)
    except TypeError:  # an unhashable cell
        return None
    if not all(isinstance(value, str) for value in distinct):
        return None
    widths = {len(value) for value in distinct}
    if len(widths) != 1 or 0 in widths:
        return None
    (width,) = widths
    encoded = "".join(values).encode(_UTF32, "surrogatepass")
    return np.frombuffer(encoded, dtype=np.dtype(("U", width)))


def extended_column(cached: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """A column array and its coerced append ``delta`` as one read-only array.

    ``delta`` itself when the column is empty, else one concatenation when
    the two kinds can be joined faithfully.  A pair
    ``np.concatenate`` would change — an object half, or string cells
    beside non-string ones, which it would silently stringify — is rebuilt
    from python values (``tolist``) through :func:`coerce_cells_to_array`:
    the array a from-scratch table over all the rows would hold.
    """
    string_kinds = ("U", "S")
    kinds = (cached.dtype.kind, delta.dtype.kind)
    if not cached.size:  # an empty column's dtype says nothing about its cells
        array = delta
    elif ("O" in kinds and kinds != ("O", "O")) or (
        (kinds[0] in string_kinds) != (kinds[1] in string_kinds)
    ):
        array = coerce_cells_to_array(cached.tolist() + delta.tolist())
    else:
        array = np.concatenate([cached, delta])
    array.setflags(write=False)
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

    Each column is stored once, as a read-only NumPy array
    (:meth:`column_array`); every reader — group indexes, executors, bulk
    UDF evaluation, :meth:`row` / :meth:`value` / :meth:`column_values` —
    takes that array, so all of them see the same python values a durable
    reopen or a pool worker sees.  A table built from python sequences
    holds each copied sequence only until its column is first read or
    appended to.  Existing rows are immutable (and their ids stable) after
    construction; the only supported mutation is appending new rows at the
    end via :meth:`append_rows` / :meth:`append_columns`, which bumps
    :attr:`data_generation`, extends the column arrays and delta-maintains
    the group indexes.
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
        # Each column's copied cells wait here until the column is first read
        # or appended to; :meth:`column_array` coerces them and drops them.
        self._pending: Dict[str, List[Any]] = {
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
        """Build a table directly over column arrays.

        The storage layer's load path (``arrays`` are then typically
        read-only memmaps over persisted segment files) and how derived
        tables share or gather their parent's columns: the arrays become
        the table's columns as-is.  Arrays must be 1-d, cover every schema
        column and agree on length; they are marked read-only (the table
        shares, not copies, them).
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
        table._pending = {}
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
        structure is maintained *incrementally* — each column array is
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
    ) -> Dict[str, np.ndarray]:
        """Validate an append delta against the schema and coerce it once.

        The returned arrays are owned by the append machinery (a sharded
        table extends its own caches with the same arrays its tail shard
        appended); coercing up front also means a failure during the append
        can never leave the table with ragged columns.
        """
        self._check_delta(columns)
        return {
            name: coerce_cells_to_array(list(values)) for name, values in columns.items()
        }

    def _check_delta(self, columns: Mapping[str, Sequence[Any]]) -> None:
        """Raise :class:`SchemaMismatchError` unless ``columns`` is a delta
        this table can append: every schema column, equal lengths."""
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

    def _apply_append(self, delta: Dict[str, np.ndarray]) -> int:
        """Extend the columns with an already-normalised delta."""
        delta_rows = len(next(iter(delta.values()))) if delta else 0
        if delta_rows == 0:
            return 0
        for name, addition in delta.items():
            self._arrays[name] = extended_column(
                self.column_array(name, allow_hidden=True), addition
            )
        self._num_rows += delta_rows
        self._extend_indexes(delta)
        self._data_generation += 1
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

    def _extend_indexes(self, delta: Mapping[str, np.ndarray]) -> None:
        """Replace every cached group index by its extension over ``delta``."""
        with self._group_index_lock:
            for key, index in list(self._group_indexes.items()):
                _allow_hidden, column = key
                self._group_indexes[key] = index.extended_by(delta[column])

    # -- access ------------------------------------------------------------------
    def column_values(self, column: str, allow_hidden: bool = False) -> List[Any]:
        """All values of a column, as python values (``ndarray.tolist``).

        Hidden columns (ground-truth labels) are only readable when
        ``allow_hidden`` is set; the query-evaluation algorithms never set it.
        """
        return self.column_array(column, allow_hidden=allow_hidden).tolist()

    def column_array(self, column: str, allow_hidden: bool = False) -> np.ndarray:
        """All values of a column as its read-only NumPy array.

        The array is the column's one store, shared by every caller (batch
        executors, group indexes, UDF evaluation, cell reads); appends
        replace it with an extended array.  A column given as python values
        is coerced here on its first read (:func:`coerce_cells_to_array`),
        so columns no query touches cost nothing.  Callers must not write
        to it; the write flag is cleared to enforce that.
        """
        column_def = self.schema.column(column)
        if column_def.hidden and not allow_hidden:
            raise ColumnNotFoundError(column, self.schema.visible_column_names)
        array = self._arrays.get(column)
        if array is None:
            cells = self._pending.get(column)
            if cells is not None:
                # Racing first reads may each coerce; the arrays are equal and
                # the first stored wins.  A column leaves ``_pending`` only
                # after its array is stored, so a reader that finds neither
                # cannot exist.
                coerced = coerce_cells_to_array(cells)
                coerced.setflags(write=False)
                self._arrays.setdefault(column, coerced)
                self._pending.pop(column, None)
            array = self._arrays[column]
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
        """Value of one cell, as a python value (``ndarray.item``)."""
        array = self.column_array(column, allow_hidden=allow_hidden)
        self._check_row_id(row_id)
        return array.item(row_id)

    def row(self, row_id: int, include_hidden: bool = False) -> Dict[str, Any]:
        """A dict view of one row, its cells python values (``ndarray.item``)."""
        self._check_row_id(row_id)
        names = self.schema._names if include_hidden else self.schema._visible_names
        arrays = self._arrays
        try:
            return {name: arrays[name].item(row_id) for name in names}
        except KeyError:  # a column not yet coerced, or served from a segment
            return {
                name: self.column_array(name, allow_hidden=True).item(row_id)
                for name in names
            }

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
        """A new (monolithic) table of ``row_ids``, re-numbered densely: one
        :meth:`gather_column` per column."""
        ids = np.asarray(list(row_ids), dtype=np.intp)
        outside = ids[(ids < 0) | (ids >= self._num_rows)]
        if outside.size:
            self._check_row_id(int(outside[0]))
        return Table.from_arrays(
            name or f"{self.name}_subset",
            self.schema,
            {
                column_name: self.gather_column(column_name, ids, allow_hidden=True)
                for column_name in self.schema.column_names
            },
        )

    def with_column(
        self,
        column: Column,
        values: Sequence[Any],
        name: Optional[str] = None,
    ) -> "Table":
        """A new table with one extra (or replaced) column.

        Used by the virtual-column machinery: the logistic-regression bucket
        id becomes a brand new categorical column.  The other columns' arrays
        are shared, not copied.
        """
        existing = [c for c in self.schema.columns if c.name != column.name]
        arrays = {
            kept.name: self.column_array(kept.name, allow_hidden=True) for kept in existing
        }
        arrays[column.name] = self._new_column_array(column, values)
        return Table.from_arrays(name or self.name, Schema(existing + [column]), arrays)

    def _new_column_array(self, column: Column, values: Sequence[Any]) -> np.ndarray:
        """``values`` as ``column``'s read-only array, one per row of this table."""
        if len(values) != self._num_rows:
            raise SchemaMismatchError(
                f"new column {column.name!r} has {len(values)} values for a "
                f"table of {self._num_rows} rows"
            )
        array = coerce_cells_to_array(list(values))
        array.setflags(write=False)
        return array

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

        This is the reference dict-based grouping over :meth:`column_values`;
        the vectorised :class:`~repro.db.index.GroupIndex` is
        differential-tested against it.  Hot paths should use
        :meth:`group_index` instead.
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
