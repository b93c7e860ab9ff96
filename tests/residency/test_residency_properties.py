"""Property tests: residency budgets and eviction are invisible to queries.

For *any* byte budget — including pathologically small ones that cannot
hold a single segment — and *any* interleaved schedule of eviction
pressure (random gathers, ``evict_all`` storms, budget shrinks, and
evictions fired from inside the UDF mid-pass), a query over the lazily
opened table must be bitwise identical to the unbounded eager run:
identical row ids, identical work counters, identical UDF memo cache.
This is the acceptance property for bounded-memory serving.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.constraints import QueryConstraints
from repro.core.executor import BatchExecutor
from repro.core.pipeline import IntelSample
from repro.db.residency import ResidencyManager
from repro.db.sharding import ShardedTable
from repro.db.storage import TableStore
from repro.db.udf import CostLedger, UserDefinedFunction

from residency_tables import build_columns, table_cells

_ROWS = 320


@pytest.fixture(scope="module")
def store_dir(tmp_path_factory):
    """Persist the table once; every example reopens it fresh."""
    directory = str(tmp_path_factory.mktemp("residency-props") / "ptab")
    source = ShardedTable.from_columns(
        "ptab", build_columns(rows=_ROWS, seed=11), num_shards=4, hidden_columns=["f"]
    )
    TableStore(directory).save(source)
    return directory


def _reveal_f(manager=None, every=0):
    """The label UDF, optionally firing an eviction storm mid-pass."""
    state = {"calls": 0}

    def func(row):
        state["calls"] += 1
        if manager is not None and every and state["calls"] % every == 0:
            manager.evict_all()
        return bool(row["f"])

    return func


def _run_query(table, tag, manager=None, evict_every=0):
    udf = UserDefinedFunction(f"prop_{tag}", _reveal_f(manager, evict_every))
    ledger = CostLedger()
    strategy = IntelSample(
        random_state=4242,
        correlated_column="A",
        executor_factory=lambda rng: BatchExecutor(random_state=rng),
    )
    result = strategy.answer(
        table, udf, QueryConstraints(alpha=0.8, beta=0.8, rho=0.8), ledger
    )
    return {
        "row_ids": sorted(int(r) for r in result.row_ids),
        "retrieved": ledger.retrieved_count,
        "evaluated": ledger.evaluated_count,
        "counters": udf.counter_snapshot(),
        "memo": [part.tolist() for part in udf.memo_arrays()],
    }


def _apply_pressure(table, manager, rng, action):
    """One step of the eviction-pressure schedule (all semantics-free)."""
    columns = table.schema.column_names
    if action == 0:
        manager.evict_all()
    elif action == 1 and manager.budget_bytes is not None:
        manager.set_budget(max(1, manager.budget_bytes // 2))
    elif action == 2:
        ids = rng.choice(_ROWS, size=32, replace=False)
        table.gather_column(columns[rng.integers(len(columns))], ids, allow_hidden=True)
    elif action == 3:
        table.column_array(columns[rng.integers(len(columns))], allow_hidden=True)
    elif action == 4:
        manager.set_budget(200_000)
    else:
        table.group_index("A")


@settings(max_examples=25, deadline=None)
@given(
    budget=st.one_of(
        st.none(),
        st.integers(min_value=1, max_value=2000),  # pathologically small
        st.integers(min_value=10_000, max_value=200_000),
    ),
    schedule=st.lists(st.integers(min_value=0, max_value=5), max_size=6),
    evict_every=st.sampled_from([0, 7, 31]),
)
def test_any_budget_and_pressure_schedule_is_bitwise_invisible(
    store_dir, budget, schedule, evict_every
):
    store = TableStore(store_dir)
    eager, _ = store.open()
    baseline = _run_query(eager, "eager")

    manager = ResidencyManager(budget_bytes=budget)
    lazy, _ = store.open(residency=manager)
    rng = np.random.default_rng(17)
    for action in schedule:
        _apply_pressure(lazy, manager, rng, action)
    bounded = _run_query(lazy, "lazy", manager=manager, evict_every=evict_every)

    assert bounded == baseline
    assert table_cells(lazy) == table_cells(eager)
    if manager.budget_bytes is not None:
        assert manager.resident_bytes <= manager.budget_bytes
    manager.evict_all()


@settings(max_examples=15, deadline=None)
@given(budget=st.integers(min_value=1, max_value=5000))
def test_tiny_budgets_thrash_but_never_change_cells(store_dir, budget):
    store = TableStore(store_dir)
    eager, _ = store.open()
    manager = ResidencyManager(budget_bytes=budget)
    lazy, _ = store.open(residency=manager)
    assert table_cells(lazy) == table_cells(eager)
    assert manager.resident_bytes <= budget
    manager.evict_all()
