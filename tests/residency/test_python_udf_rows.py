"""A python-callable UDF on a lazily opened table reads its rows inside the
residency budget.

Its bulk rows come from one pinned ``gather_column`` per column and shard,
so evaluating a handful of rows allocates a handful of cells — not a python
list of every cell of every column of every shard it touches, kept beside
the segments where the residency manager cannot see it.
"""

import tracemalloc

import numpy as np

from residency_tables import build_columns
from repro.db.residency import ResidencyManager
from repro.db.sharding import ShardedTable
from repro.db.storage import TableStore
from repro.db.udf import UserDefinedFunction

ROWS, SHARDS, BUDGET = 200_000, 4, 10**6


def test_python_udf_rows_stay_inside_the_budget(tmp_path):
    store = TableStore(str(tmp_path / "big"))
    store.save(
        ShardedTable.from_columns(
            "big", build_columns(rows=ROWS, seed=3), num_shards=SHARDS, hidden_columns=["f"]
        )
    )
    manager = ResidencyManager(budget_bytes=BUDGET)
    lazy, _report = store.open(residency=manager)
    udf = UserDefinedFunction("count_over", lambda row: row["count"] > 500 and not row["f"])
    ids = np.asarray([7, 60_123, 110_000, 199_999], dtype=np.intp)  # one row per shard
    udf.evaluate_rows(lazy, ids[:1])  # the first segment map's one-off imports

    tracemalloc.start()
    try:
        outcomes = udf.evaluate_rows(lazy, ids)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()

    assert peak < 1_000_000, f"{peak} bytes traced for {ids.size} rows"
    expected = [lazy.row(int(i), include_hidden=True) for i in ids]
    assert outcomes.tolist() == [row["count"] > 500 and not row["f"] for row in expected]
    assert udf.counter_snapshot()["calls"] == ids.size  # the warm-up row was memoised
    assert manager.snapshot()["resident_bytes"] <= BUDGET
    manager.evict_all()
