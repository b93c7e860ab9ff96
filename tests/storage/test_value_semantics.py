"""One value semantics on every path: a column is one array, and every
reader of a cell — a row dict handed to a python UDF in-process, the same
rows in a pool worker, the group index — sees what ``tolist`` of that array
gives.  So an in-memory table and its eager and lazy durable reopens cannot
disagree.

The table holds the cases where a list of python cells and its array part
ways: the same NaN object twice (a dict of cells keys it once, ``tolist``
gives two distinct NaNs, so two groups), ``bool`` cells in an int column
(the array holds ints), and ``np.str_`` cells (the array gives ``str``).
"""

import numpy as np
import pytest

from repro.core.procpool import spec_evaluate
from repro.db.residency import ResidencyManager
from repro.db.sharding import ShardedTable
from repro.db.shm import export_table_spans, release_exports
from repro.db.storage import TableStore
from repro.db.table import Table
from repro.db.udf import UdfSpec, UserDefinedFunction

NAN = float("nan")
COLUMNS = {
    "x": [NAN, 1.5, NAN, 2.5, 1.5, 2.5],
    "n": [1, True, 2, False, 3, True],
    "s": [np.str_(v) for v in ("a", "b", "a", "c", "b", "a")],
}


def _build(layout):
    if layout == "sharded":
        return ShardedTable.from_columns("vals", COLUMNS, num_shards=2)
    return Table.from_columns("vals", COLUMNS)


def _typed(value):
    """A comparable stand-in for a cell: NaN is not equal to itself."""
    return type(value), repr(value)


def _rows_seen(read):
    """The row dicts a python UDF receives from ``read(func)``, typed."""
    seen = []

    def record(row):
        seen.append({name: _typed(value) for name, value in row.items()})
        return bool(row["n"] > 1)

    outcomes = read(record)
    return seen, np.asarray(outcomes, dtype=bool).tolist()


def _index_of(table, column):
    index = table.group_index(column)
    return [_typed(value) for value in index.values], index.codes.tolist()


@pytest.mark.parametrize("layout", ["plain", "sharded"])
def test_every_path_hands_a_python_udf_the_same_rows_and_groups(tmp_path, layout):
    ids = np.arange(len(COLUMNS["x"]), dtype=np.intp)
    memory = _build(layout)
    store = TableStore(str(tmp_path / "vals"))
    store.save(memory)
    eager, _report = store.open()
    lazy, _report = store.open(residency=ResidencyManager())
    tables = {"memory": memory, "eager": eager, "lazy": lazy}

    readers = {
        name: lambda func, table=table: UserDefinedFunction("rec", func).evaluate_rows(
            table, ids
        )
        for name, table in tables.items()
    }
    exports = export_table_spans(memory, memory.schema.column_names)
    try:
        readers["worker"] = lambda func: spec_evaluate(
            UdfSpec("rec", None, True, func), exports, ids
        )
        seen = {name: _rows_seen(read) for name, read in readers.items()}
    finally:
        release_exports(memory)
    assert seen["memory"][0][0] == {
        "x": (float, "nan"), "n": (int, "1"), "s": (str, "'a'")
    }
    assert seen["memory"][0][1]["n"] == (int, "1")  # a bool cell, read from the int array
    for name, rows in seen.items():
        assert rows == seen["memory"], name
    for name, table in tables.items():  # the per-row API reads the same cells
        rows = [{k: _typed(v) for k, v in table.row(i).items()} for i in ids]
        cells = [{k: _typed(table.value(i, k)) for k in COLUMNS} for i in ids]
        assert rows == cells == seen["memory"][0], name

    for column in COLUMNS:
        groups = {name: _index_of(table, column) for name, table in tables.items()}
        for name, index in groups.items():
            assert index == groups["memory"], (column, name)
    values, codes = _index_of(memory, "x")
    assert len(values) == 4 and codes == [0, 1, 2, 3, 1, 3]  # each NaN cell its own group
