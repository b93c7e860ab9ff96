"""Horizontal sharding: one logical table backed by contiguous row-range shards.

:class:`ShardedTable` partitions a table's rows into contiguous shards, each a
plain :class:`~repro.db.table.Table` over its own row range.  Global row ids
are the concatenation order — row ``i`` of shard ``s`` is global row
``offsets[s] + i`` — so a sharded table is observably identical to the
monolithic table holding the same rows: every accessor (``column_values``,
``column_array``, ``row``, ``group_row_ids``...) returns exactly what the
unsharded equivalent would.

What sharding buys:

* **chunked ingestion** — ``from_columns``/``from_rows`` slice whole columns
  into shard ranges (C-level slicing, no per-row python loop per shard);
* **one group index, built a shard at a time** —
  :meth:`ShardedTable.group_index` is a
  :class:`~repro.db.index.MergedGroupIndex`: the whole table's index over
  global row ids (values, codes, row arrays and label counts pinned equal to
  the unsharded index by property tests), factorised shard by shard so no
  whole-column array is needed, with the shard boundaries as its spans.  The
  shards keep no indexes of their own;
* **parallel execution** — the shard boundaries give
  :class:`~repro.core.parallel.ParallelBatchExecutor` natural work partitions
  whose results are bitwise independent of the partition.

Statistics are whole-table statistics: every consumer addresses global row
ids, and evidence sampled range by range recombines exactly through
``SampleOutcome.merge_shards`` (a concatenation) before any model is built.
"""

from __future__ import annotations

import threading
from typing import (
    TYPE_CHECKING,
    Any,
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

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.db.index import MergedGroupIndex

from repro.db.column import Column, ColumnType
from repro.db.errors import SchemaMismatchError
from repro.db.schema import Schema
from repro.db.table import Table, extended_column, infer_schema_for_columns


def shard_bounds(
    total_rows: int,
    num_shards: Optional[int] = None,
    shard_rows: Optional[int] = None,
) -> Tuple[int, ...]:
    """Contiguous shard boundaries ``(0, ..., total_rows)`` for a row count.

    Exactly one of ``num_shards`` (evenly sized shards, remainder spread) or
    ``shard_rows`` (fixed rows per shard, last shard short) must be given.
    """
    if total_rows < 0:
        raise ValueError(f"total_rows must be non-negative, got {total_rows}")
    if (num_shards is None) == (shard_rows is None):
        raise ValueError("specify exactly one of num_shards or shard_rows")
    if shard_rows is not None:
        if shard_rows < 1:
            raise ValueError(f"shard_rows must be positive, got {shard_rows}")
        cuts = list(range(0, total_rows, shard_rows)) + [total_rows]
        if len(cuts) == 1:  # empty table
            cuts = [0, 0]
        return tuple(cuts)
    if num_shards is None or num_shards < 1:
        raise ValueError(f"num_shards must be positive, got {num_shards}")
    return tuple(round(i * total_rows / num_shards) for i in range(num_shards + 1))


class ShardedTable(Table):
    """A :class:`Table` whose rows live in contiguous row-range shards.

    Construct through :meth:`from_table`, :meth:`from_columns` or
    :meth:`from_rows`.  The sharded table satisfies the full ``Table``
    contract (it *is* one), so every strategy, executor and serving component
    accepts it unchanged; components that understand sharding
    (``MergedGroupIndex``, ``ParallelBatchExecutor``) discover the layout via
    :meth:`shard_signature` / :attr:`shard_offsets` and exploit it.

    Appends flow into a **mutable tail**: :meth:`append_columns` /
    :meth:`append_rows` extend the last shard in place (delta-maintaining
    its caches and the table's group indexes), and once the tail exceeds
    ``tail_shard_rows`` it is *sealed* — re-chunked into fixed-size shards
    with a fresh, small tail — so the layout stays balanced under sustained
    churn without ever rewriting sealed shards.

    The promise holds on disk as well as in memory.  What a shard has on
    disk is recorded on the shard object
    (:meth:`~repro.db.table.Table.mark_durable`; this table holds no data
    and no record of its own), so a checkpoint
    (:meth:`~repro.db.storage.TableStore.save`) references the files of
    every shard that is still the same object at the same generation and
    writes only the tail an append extended and the fresh shard objects a
    seal produced.
    """

    def __init__(
        self,
        name: str,
        schema: Schema,
        shards: Sequence[Table],
        tail_shard_rows: Optional[int] = None,
    ):
        # Deliberately does NOT call Table.__init__: the shards hold the data
        # and every data accessor is overridden to route or concatenate.
        if not shards:
            raise ValueError("a ShardedTable needs at least one shard")
        if tail_shard_rows is not None and tail_shard_rows < 1:
            raise ValueError(
                f"tail_shard_rows must be positive, got {tail_shard_rows}"
            )
        self.name = name
        self.schema = schema
        self._shards: List[Table] = list(shards)
        self._set_layout()
        #: Rows the mutable tail may hold before it is sealed and re-chunked;
        #: defaults to the largest shard of the initial layout.
        self.tail_shard_rows = tail_shard_rows or max(
            (shard.num_rows for shard in self._shards), default=1
        ) or 1
        self._data_generation = 0
        self._arrays: Dict[str, np.ndarray] = {}
        self._group_indexes: Dict[tuple, "MergedGroupIndex"] = {}
        self._group_index_lock = threading.Lock()

    def _set_layout(self) -> None:
        """Recompute offsets from the current shard sizes."""
        sizes = [shard.num_rows for shard in self._shards]
        self._offsets = tuple(
            int(n) for n in np.concatenate([[0], np.cumsum(sizes)])
        )
        self._num_rows = self._offsets[-1]
        self._offset_array = np.asarray(self._offsets, dtype=np.intp)

    # -- construction helpers -------------------------------------------------
    @classmethod
    def from_table(
        cls,
        table: Table,
        num_shards: Optional[int] = None,
        shard_rows: Optional[int] = None,
    ) -> "ShardedTable":
        """Shard an existing table (same name, schema and row order)."""
        columns = {
            column_name: table.column_values(column_name, allow_hidden=True)
            for column_name in table.schema.column_names
        }
        return cls._from_schema_and_columns(
            table.name, table.schema, columns,
            num_shards=num_shards, shard_rows=shard_rows,
        )

    @classmethod
    def from_columns(
        cls,
        name: str,
        columns: Mapping[str, Sequence[Any]],
        column_types: Optional[Mapping[str, ColumnType | str]] = None,
        hidden_columns: Iterable[str] = (),
        num_shards: Optional[int] = None,
        shard_rows: Optional[int] = None,
    ) -> "ShardedTable":
        """Chunked column ingestion: infer the schema once, slice per shard.

        Types are inferred exactly as :meth:`Table.from_columns` does (one
        shared :func:`~repro.db.table.infer_schema_for_columns` call); each
        shard then receives C-level slices of the full columns — no per-row
        python loop anywhere.
        """
        schema = infer_schema_for_columns(
            columns, column_types=column_types, hidden_columns=hidden_columns
        )
        return cls._from_schema_and_columns(
            name, schema, columns,
            num_shards=num_shards, shard_rows=shard_rows,
        )

    @classmethod
    def from_rows(
        cls,
        name: str,
        rows: Sequence[Mapping[str, Any]],
        schema: Optional[Schema] = None,
        num_shards: Optional[int] = None,
        shard_rows: Optional[int] = None,
    ) -> "ShardedTable":
        """Build a sharded table from dict rows (one transpose, then slices)."""
        if schema is None:
            schema = Schema.infer(rows)
        schema.validate_rows(rows)
        columns: Dict[str, List[Any]] = {
            column_name: [row[column_name] for row in rows]
            for column_name in schema.column_names
        }
        return cls._from_schema_and_columns(
            name, schema, columns,
            num_shards=num_shards, shard_rows=shard_rows,
        )

    @classmethod
    def _from_schema_and_columns(
        cls,
        name: str,
        schema: Schema,
        columns: Mapping[str, Sequence[Any]],
        num_shards: Optional[int] = None,
        shard_rows: Optional[int] = None,
    ) -> "ShardedTable":
        lengths = {len(values) for values in columns.values()}
        if len(lengths) > 1:
            raise SchemaMismatchError(
                f"columns have inconsistent lengths: "
                f"{ {c: len(v) for c, v in columns.items()} }"
            )
        total = lengths.pop() if lengths else 0
        bounds = shard_bounds(total, num_shards=num_shards, shard_rows=shard_rows)
        shards = [
            Table(
                name=f"{name}#shard{position}",
                schema=schema,
                columns={
                    column_name: values[start:stop]
                    for column_name, values in columns.items()
                },
            )
            for position, (start, stop) in enumerate(zip(bounds, bounds[1:]))
        ]
        return cls(
            name=name,
            schema=schema,
            shards=shards,
            tail_shard_rows=shard_rows,
        )

    # -- layout ---------------------------------------------------------------
    @property
    def shards(self) -> List[Table]:
        """The shard tables in row order."""
        return list(self._shards)

    @property
    def num_shards(self) -> int:
        """Number of shards."""
        return len(self._shards)

    @property
    def shard_offsets(self) -> Tuple[int, ...]:
        """Global row-id boundaries ``(0, ..., num_rows)``, one span per shard."""
        return self._offsets

    def shard_spans(self) -> List[Tuple[int, int]]:
        """Per-shard ``(start, stop)`` global row-id ranges."""
        return list(zip(self._offsets, self._offsets[1:]))

    def shard_signature(self) -> Tuple:
        """Hashable shard-layout token (cache generation key).

        Folds :attr:`~repro.db.table.Table.data_generation` alongside the
        boundaries: a tail append may leave the boundary tuple's length
        unchanged, but the generation still tells caches the data moved.
        """
        return ("sharded", self._offsets, self._data_generation)

    def shard_of(self, row_id: int) -> Tuple[int, int]:
        """``(shard position, local row id)`` for a global row id."""
        self._check_row_id(row_id)
        position = int(
            np.searchsorted(self._offset_array, row_id, side="right") - 1
        )
        return position, row_id - self._offsets[position]

    # -- data access (routing / concatenation overrides) ----------------------
    def column_values(self, column: str, allow_hidden: bool = False) -> List[Any]:
        """All values of a column (shards concatenated in row order), read
        a shard at a time: no whole-column array is cached here."""
        if column in self._arrays:
            return self.column_array(column, allow_hidden=allow_hidden).tolist()
        return self._concatenated(column, allow_hidden).tolist()

    def column_array(self, column: str, allow_hidden: bool = False) -> np.ndarray:
        """The concatenated, cached, read-only column array."""
        array = self._arrays.get(column)
        if array is not None:
            column_def = self.schema.column(column)
            if column_def.hidden and not allow_hidden:
                # Mirror Table.column_array's visibility behaviour.
                from repro.db.errors import ColumnNotFoundError

                raise ColumnNotFoundError(column, self.schema.visible_column_names)
            return array
        array = self._concatenated(column, allow_hidden)
        self._arrays[column] = array
        return array

    def _concatenated(self, column: str, allow_hidden: bool) -> np.ndarray:
        """The shards' arrays of ``column`` as one read-only array.

        Per-shard arrays (each already validated against numpy's silent
        mixed-type stringification) are concatenated once.  If some shard
        holds objects, or string cells meet non-string ones across a shard
        boundary (``np.concatenate`` would stringify them), the result is an
        object array over the shards' python values instead — what the
        monolithic table holding the same rows would do.
        """
        parts = [
            shard.column_array(column, allow_hidden=allow_hidden)
            for shard in self._shards
        ]
        kinds = {part.dtype.kind for part in parts if part.size}
        strings = kinds & {"U", "S"}
        if "O" in kinds or (strings and kinds - strings):
            parts = [part.astype(object) for part in parts]
        array = np.concatenate(parts)
        array.setflags(write=False)
        return array

    def value(self, row_id: int, column: str, allow_hidden: bool = False) -> Any:
        """Value of one cell (routed to the owning shard)."""
        position, local = self.shard_of(row_id)
        return self._shards[position].value(local, column, allow_hidden=allow_hidden)

    def row(self, row_id: int, include_hidden: bool = False) -> Dict[str, Any]:
        """A dict view of one row (routed to the owning shard)."""
        position, local = self.shard_of(row_id)
        return self._shards[position].row(local, include_hidden=include_hidden)

    def rows(self, include_hidden: bool = False) -> Iterator[Dict[str, Any]]:
        """Iterate rows across shards in global row order."""
        for shard in self._shards:
            yield from shard.rows(include_hidden=include_hidden)

    def with_column(
        self,
        column: Column,
        values: Sequence[Any],
        name: Optional[str] = None,
    ) -> "ShardedTable":
        """A new sharded table with one extra column, split at the same bounds.

        Keeps the shard layout, so virtual-column tables derived from a
        sharded base stay sharded (and keep their parallel execution path).
        """
        if len(values) != self._num_rows:
            raise SchemaMismatchError(
                f"new column {column.name!r} has {len(values)} values for a "
                f"table of {self._num_rows} rows"
            )
        values = list(values)
        new_shards = [
            shard.with_column(column, values[start:stop])
            for shard, (start, stop) in zip(self._shards, self.shard_spans())
        ]
        return ShardedTable(
            name=name or self.name,
            schema=new_shards[0].schema,
            shards=new_shards,
            tail_shard_rows=self.tail_shard_rows,
        )

    # -- incremental ingest -----------------------------------------------------
    def append_columns(self, columns: Mapping[str, Sequence[Any]]) -> int:
        """Append a delta of rows into the mutable tail shard.

        The tail shard extends in place (delta-maintaining its own caches),
        the global cached arrays and the group indexes are extended with
        the same delta, and the tail is sealed and re-chunked once it
        exceeds :attr:`tail_shard_rows`.  Work is proportional to the delta
        (bounded below by one O(n) array concatenation per cached column);
        sealed shards are never rewritten.  Same single-writer contract as
        :meth:`Table.append_columns`.
        """
        tail = self._shards[-1]
        # One normalise/coerce, shared: the tail applies the delta and this
        # table reuses the same arrays for its own cache maintenance.
        delta = tail._normalise_delta(columns)
        delta_rows = tail._apply_append(delta)
        if delta_rows == 0:
            return 0
        offsets = list(self._offsets)
        offsets[-1] += delta_rows
        self._offsets = tuple(offsets)
        self._num_rows = self._offsets[-1]
        self._offset_array = np.asarray(self._offsets, dtype=np.intp)

        for column, array in list(self._arrays.items()):
            self._arrays[column] = extended_column(array, delta[column])
        self._extend_indexes(delta)
        self._data_generation += 1
        self._maybe_seal_tail()
        return delta_rows

    def _maybe_seal_tail(self) -> None:
        """Seal and re-chunk the tail once it exceeds :attr:`tail_shard_rows`.

        Re-chunking never reorders rows: the oversized tail's columns are
        sliced into fixed-size chunks (the last, possibly short, chunk is
        the new mutable tail), so the group indexes keep their data and only
        learn the new span decomposition via
        :meth:`~repro.db.index.MergedGroupIndex.resharded` — nothing is
        factorised again.
        """
        limit = self.tail_shard_rows
        tail = self._shards[-1]
        if tail.num_rows <= limit:
            return
        arrays = {
            name: tail.column_array(name, allow_hidden=True)
            for name in self.schema.column_names
        }
        bounds = shard_bounds(tail.num_rows, shard_rows=limit)
        base_position = len(self._shards) - 1
        # Each chunk copies its slice, so no shard keeps the whole old tail
        # (and the rows the next tail moves on from) alive.
        new_shards = [
            Table.from_arrays(
                f"{self.name}#shard{base_position + chunk}",
                self.schema,
                {name: array[start:stop].copy() for name, array in arrays.items()},
            )
            for chunk, (start, stop) in enumerate(zip(bounds, bounds[1:]))
        ]
        self._shards[-1:] = new_shards
        self._set_layout()
        with self._group_index_lock:
            for key, index in self._group_indexes.items():
                self._group_indexes[key] = index.resharded(self._offsets)

    # -- group indexes ---------------------------------------------------------
    def group_index(self, column: str, allow_hidden: bool = False):
        """The cached :class:`~repro.db.index.MergedGroupIndex` over ``column``.

        The table's one index on the column, over global row ids; the
        shards are only read.  Same double-checked locking and privacy
        separation as :meth:`Table.group_index`.
        """
        from repro.db.index import MergedGroupIndex

        key = (allow_hidden, column)
        index = self._group_indexes.get(key)
        if index is None:
            with self._group_index_lock:
                index = self._group_indexes.get(key)
                if index is None:
                    index = MergedGroupIndex(self, column, allow_hidden)
                    self._group_indexes[key] = index
        return index

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardedTable({self.name!r}, rows={self._num_rows}, "
            f"columns={self.num_columns}, shards={self.num_shards})"
        )
