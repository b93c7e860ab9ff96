"""Table builders shared by the residency suite's conftest and test modules.

A module of its own — not ``conftest.py`` — because test modules import
these by name: every ``tests/*/conftest.py`` is the module ``conftest``, and
with two conftest-bearing directories on one command line (``pytest
tests/residency tests/storage``) the one loaded last owns that name.
"""

from typing import Any, Dict, List

import numpy as np

from repro.db.table import Table


def build_columns(rows: int = 240, seed: int = 5) -> Dict[str, List[Any]]:
    rng = np.random.default_rng(seed)
    return {
        "A": [f"g{int(v)}" for v in rng.integers(0, 6, rows)],
        "amount": [float(v) for v in np.round(rng.normal(50, 12, rows), 3)],
        "count": [int(v) for v in rng.integers(0, 1000, rows)],
        "f": [bool(v) for v in rng.random(rows) < 0.4],
    }


def numeric_columns(rows: int = 240, seed: int = 5) -> Dict[str, List[Any]]:
    """Fixed-width columns only — every segment is ``numpy``-kind."""
    columns = build_columns(rows=rows, seed=seed)
    del columns["A"]
    return columns


def table_cells(table: Table) -> Dict[str, List[Any]]:
    """Every visible+hidden column's python values (the bitwise pin)."""
    return {
        name: table.column_values(name, allow_hidden=True)
        for name in table.schema.column_names
    }
