"""Catalog of tables and UDFs, the root object a user interacts with."""

from __future__ import annotations

from typing import Dict, Iterator, List

from repro.db.errors import DuplicateObjectError, TableNotFoundError
from repro.db.sharding import ShardedTable
from repro.db.table import Table
from repro.db.udf import UdfRegistry, UserDefinedFunction


class Catalog:
    """Holds named tables and a UDF registry."""

    def __init__(self) -> None:
        self._tables: Dict[str, Table] = {}
        self.udfs = UdfRegistry()

    # -- tables -----------------------------------------------------------------
    def register_table(self, table: Table, replace: bool = False) -> None:
        """Register a table under its own name."""
        if table.name in self._tables and not replace:
            raise DuplicateObjectError(f"table {table.name!r} already registered")
        self._tables[table.name] = table

    def table(self, name: str) -> Table:
        """Look up a table by name."""
        try:
            return self._tables[name]
        except KeyError:
            raise TableNotFoundError(name) from None

    def has_table(self, name: str) -> bool:
        """Whether a table with ``name`` exists."""
        return name in self._tables

    def table_names(self) -> List[str]:
        """Names of all registered tables."""
        return list(self._tables.keys())

    def drop_table(self, name: str) -> None:
        """Remove a table from the catalog."""
        if name not in self._tables:
            raise TableNotFoundError(name)
        del self._tables[name]

    def shard_table(self, name: str, num_shards: int) -> ShardedTable:
        """Replace a registered table with a sharded copy of the same rows.

        The replacement is a fresh table object, so every identity-keyed
        cache (plans, statistics) correctly treats it as a new generation;
        row ids, schema and name are unchanged, so queries keep working.
        Returns the new :class:`~repro.db.sharding.ShardedTable`.
        """
        table = self.table(name)
        if isinstance(table, ShardedTable) and table.num_shards == num_shards:
            return table
        sharded = ShardedTable.from_table(table, num_shards=num_shards)
        self._tables[name] = sharded
        return sharded

    def group_index(self, table_name: str, column: str):
        """The shared :class:`~repro.db.index.GroupIndex` for a table column.

        Delegates to :meth:`Table.group_index`, so the engine, the pipeline
        and the serving layer all see one index per (table, column) — a
        re-registered table brings a fresh cache with it.
        """
        return self.table(table_name).group_index(column)

    # -- udfs -------------------------------------------------------------------
    def register_udf(self, udf: UserDefinedFunction, replace: bool = False) -> None:
        """Register a UDF."""
        self.udfs.register(udf, replace=replace)

    def udf(self, name: str) -> UserDefinedFunction:
        """Look up a UDF by name."""
        return self.udfs.get(name)

    def __iter__(self) -> Iterator[Table]:
        return iter(self._tables.values())

    def __len__(self) -> int:
        return len(self._tables)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Catalog(tables={self.table_names()}, udfs={self.udfs.names()})"
