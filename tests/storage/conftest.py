"""Fixtures for the durable-storage suite.

Every test gets a scratch store directory and the shared leak invariant:
zero exported segment files, zero dangling segment memmaps (after GC) and
zero torn ``.tmp`` files left anywhere under the test's tmp tree — even
for the tests that tear writes and quarantine artifacts on purpose.
"""

import numpy as np
import pytest

from leakcheck import assert_no_leaked_resources
from repro.db.sharding import ShardedTable
from repro.db.storage import reset_storage_counters
from repro.db.table import Table


@pytest.fixture(autouse=True)
def _no_leaked_resources(tmp_path):
    reset_storage_counters()
    yield
    assert_no_leaked_resources(str(tmp_path))


def build_columns(rows=200, seed=5):
    rng = np.random.default_rng(seed)
    return {
        "A": [f"g{int(v)}" for v in rng.integers(0, 6, rows)],
        "amount": [float(v) for v in np.round(rng.normal(50, 12, rows), 3)],
        "count": [int(v) for v in rng.integers(0, 1000, rows)],
        "active": [bool(v) for v in rng.random(rows) < 0.5],
        "f": [bool(v) for v in rng.random(rows) < 0.3],
    }


@pytest.fixture
def table():
    return Table.from_columns("tbl", build_columns(), hidden_columns=["f"])


@pytest.fixture
def sharded_table():
    return ShardedTable.from_columns(
        "stbl", build_columns(rows=260, seed=9), num_shards=4, hidden_columns=["f"]
    )


def table_cells(table):
    """Every visible+hidden column's python values (the bitwise pin)."""
    return {
        name: table.column_values(name, allow_hidden=True)
        for name in table.schema.column_names
    }


@pytest.fixture
def cells():
    """The ``table_cells`` helper as a fixture (conftest is not importable)."""
    return table_cells


@pytest.fixture
def make_columns():
    """The ``build_columns`` helper as a fixture."""
    return build_columns
