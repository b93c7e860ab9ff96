"""Property tests: durable persistence is invisible to query semantics.

For *any* sequence of appends — journalled, checkpointed at a random
point, or both — a table reopened from a :class:`TableStore` must be
indistinguishable from the never-persisted in-memory twin: identical cell
values, identical ``shard_signature()``, and bitwise-identical query
answers with identical work counters (the same contract
``test_incremental_ingest.py`` pins for the in-memory delta paths).
"""

import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.constraints import QueryConstraints
from repro.core.executor import BatchExecutor
from repro.core.pipeline import IntelSample
from repro.db.sharding import ShardedTable
from repro.db.storage import TableStore
from repro.db.table import Table
from repro.db.udf import CostLedger, UserDefinedFunction

_VALUES = st.sampled_from(["a", "b", "c", "d", 1, 2, True])


@st.composite
def base_and_deltas(draw):
    base_n = draw(st.integers(min_value=1, max_value=25))
    deltas_n = draw(
        st.lists(st.integers(min_value=0, max_value=15), min_size=1, max_size=3)
    )
    total = base_n + sum(deltas_n)
    values = draw(st.lists(_VALUES, min_size=total, max_size=total))
    labels = draw(st.lists(st.booleans(), min_size=total, max_size=total))
    cuts = [base_n]
    for n in deltas_n:
        cuts.append(cuts[-1] + n)
    checkpoint_after = draw(st.integers(min_value=0, max_value=len(deltas_n)))
    return values, labels, cuts, checkpoint_after


def _piece(values, labels, start, stop):
    return {"A": values[start:stop], "f": labels[start:stop]}


def _cells(table):
    return {
        name: table.column_values(name, allow_hidden=True)
        for name in table.schema.column_names
    }


def _run_query(table, tag):
    udf = UserDefinedFunction.from_label_column(f"dur_{tag}", "f")
    ledger = CostLedger()
    strategy = IntelSample(
        random_state=314,
        correlated_column="A",
        executor=BatchExecutor(),
    )
    result = strategy.answer(
        table, udf, QueryConstraints(alpha=0.8, beta=0.8, rho=0.8), ledger
    )
    return (
        sorted(int(r) for r in result.row_ids),
        ledger.retrieved_count,
        ledger.evaluated_count,
        udf.counter_snapshot(),
    )


def _persist_twin(directory, sharded, values, labels, cuts, checkpoint_after):
    """Build (in-memory baseline, reopened-from-disk twin)."""
    piece = _piece(values, labels, 0, cuts[0])
    if sharded:
        baseline = ShardedTable.from_columns(
            "dur", piece, hidden_columns=["f"], shard_rows=7
        )
        persisted = ShardedTable.from_columns(
            "dur", piece, hidden_columns=["f"], shard_rows=7
        )
    else:
        baseline = Table.from_columns("dur", piece, hidden_columns=["f"])
        persisted = Table.from_columns("dur", piece, hidden_columns=["f"])
    store = TableStore(directory)
    store.save(persisted)
    for step, (start, stop) in enumerate(zip(cuts, cuts[1:]), start=1):
        delta = _piece(values, labels, start, stop)
        baseline.append_columns(delta)
        store.append(persisted, delta)
        if step == checkpoint_after:
            store.save(persisted)  # the rest of the deltas replay from the WAL
    loaded, report = store.open()
    assert not report.rebuilt_from_source
    return baseline, loaded


@settings(max_examples=40, deadline=None)
@given(base_and_deltas(), st.booleans())
def test_reopened_table_equals_in_memory_twin(data, sharded):
    values, labels, cuts, checkpoint_after = data
    with tempfile.TemporaryDirectory() as directory:
        baseline, loaded = _persist_twin(
            directory, sharded, values, labels, cuts, checkpoint_after
        )
        assert loaded.num_rows == baseline.num_rows
        assert loaded.data_generation == baseline.data_generation
        assert loaded.shard_signature() == baseline.shard_signature()
        assert _cells(loaded) == _cells(baseline)
        if sharded:
            assert tuple(loaded.shard_offsets) == tuple(baseline.shard_offsets)
        assert _run_query(loaded, "disk") == _run_query(baseline, "ram")


@settings(max_examples=20, deadline=None)
@given(base_and_deltas())
def test_reopen_is_idempotent(data):
    """Opening twice (journal replayed twice) converges to the same state."""
    values, labels, cuts, checkpoint_after = data
    with tempfile.TemporaryDirectory() as directory:
        _, first = _persist_twin(
            directory, False, values, labels, cuts, checkpoint_after
        )
        store = TableStore(directory)
        second, report = store.open()
        assert not report.rebuilt_from_source
        assert second.data_generation == first.data_generation
        assert _cells(second) == _cells(first)
