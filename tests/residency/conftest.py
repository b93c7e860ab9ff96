"""Fixtures for the bounded-memory residency suite.

Every test gets counter isolation and the shared leak invariant — zero
exported segment files, zero dangling segment memmaps, **zero resident
mapped bytes and zero pinned segments** (the bounded-memory gate), and
zero torn ``.tmp`` files — even for the tests that inject map/evict
faults on purpose.
"""

import pytest

from leakcheck import assert_no_leaked_resources
from residency_tables import build_columns, table_cells
from repro.db.residency import ResidencyManager
from repro.db.sharding import ShardedTable
from repro.db.storage import TableStore, reset_storage_counters
from repro.db.table import Table


@pytest.fixture(autouse=True)
def _no_leaked_resources(tmp_path):
    reset_storage_counters()
    yield
    assert_no_leaked_resources(str(tmp_path))


@pytest.fixture
def table():
    return Table.from_columns("rtab", build_columns(), hidden_columns=["f"])


@pytest.fixture
def sharded_table():
    return ShardedTable.from_columns(
        "rstab", build_columns(rows=320, seed=9), num_shards=4, hidden_columns=["f"]
    )


@pytest.fixture
def make_lazy(tmp_path):
    """Persist a table, then reopen it lazily under a residency budget.

    Returns ``(lazy_table, manager, store)``; the eager bitwise baseline is
    a second ``store.open()`` without a manager.
    """

    def _make(source, budget_bytes=None, watermark=0.9, name="lazy"):
        store = TableStore(str(tmp_path / name))
        store.save(source)
        manager = ResidencyManager(budget_bytes=budget_bytes, watermark=watermark)
        loaded, _report = store.open(residency=manager)
        return loaded, manager, store

    return _make


@pytest.fixture
def cells():
    return table_cells
