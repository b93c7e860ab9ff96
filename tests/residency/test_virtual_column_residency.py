"""A virtual column over a lazily opened table stays inside the residency budget.

``with_column`` on a lazy table keeps the base's segment handles for the
kept columns and holds only the new column in memory, so evicting the
segments really drops their maps: no derived table keeps them alive where
the residency manager cannot see them.
"""

import gc
import weakref

import pytest

from residency_tables import table_cells
from repro.db.column import Column, ColumnType
from repro.db.residency import LazySegmentTable


@pytest.mark.parametrize("kind", ["plain", "sharded"])
def test_virtual_column_reads_through_the_base_handles(
    kind, table, sharded_table, make_lazy
):
    source = sharded_table if kind == "sharded" else table
    lazy, manager, _store = make_lazy(source, budget_bytes=10**6)
    buckets = [f"b{row % 3}" for row in range(lazy.num_rows)]
    derived = lazy.with_column(Column("bucket", ColumnType.CATEGORICAL), buckets)
    assert type(derived) is type(lazy)
    pairs = list(zip(derived.shards, lazy.shards)) if kind == "sharded" else [(derived, lazy)]
    for shard, base in pairs:
        assert isinstance(shard, LazySegmentTable)
        assert shard._handles == base._handles  # the very same handle objects
        assert set(shard._arrays) == {"bucket"}  # only the new column in memory

    assert table_cells(derived) == dict(table_cells(source), bucket=buckets)
    maps = [weakref.ref(h._array) for _, base in pairs for h in base._handles.values()]
    manager.evict_all()
    gc.collect()
    assert manager.resident_bytes == 0
    assert all(ref() is None for ref in maps)  # nothing kept a map alive

    # Reads still go through the handles: they fault the segments back in.
    assert derived.column_values("count") == source.column_values("count")
    assert manager.resident_bytes > 0
    manager.evict_all()

    # A table no longer lazy derives a plain one.
    pairs[0][1]._materialise("append")
    again = lazy.with_column(Column("bucket", ColumnType.CATEGORICAL), buckets)
    first = again.shards[0] if kind == "sharded" else again
    assert not isinstance(first, LazySegmentTable)
    assert table_cells(again) == dict(table_cells(source), bucket=buckets)
