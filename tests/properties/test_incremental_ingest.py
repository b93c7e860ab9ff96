"""Property tests: the incremental-ingest path equals a from-scratch rebuild.

After *any* sequence of appends (random sizes, mixed-type values, appends
that seal and re-chunk the sharded tail), every delta-maintained structure
must be exactly what rebuilding from the concatenated data produces:

* :class:`~repro.db.index.GroupIndex` / ``MergedGroupIndex`` — value order,
  codes, per-group row-id arrays, label counts;
* :class:`~repro.sampling.sampler.SampleOutcome` delta merges and the
  :class:`~repro.core.groups.SelectivityModel` derived from them;
* end-to-end query results — returned row ids *and* ledger work counters —
  for the serial ``BatchExecutor`` and the sharded
  ``ParallelBatchExecutor`` alike.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.column_selection import LabeledSample
from repro.core.constraints import QueryConstraints
from repro.core.executor import BatchExecutor
from repro.core.groups import SelectivityModel
from repro.core.parallel import ParallelBatchExecutor
from repro.core.pipeline import IntelSample
from repro.db.sharding import ShardedTable
from repro.db.table import Table
from repro.db.udf import CostLedger, UserDefinedFunction
from repro.sampling.sampler import SampleOutcome

_VALUES = st.sampled_from(["a", "b", "c", "d", 1, 2, True])


@st.composite
def base_and_deltas(draw):
    """A random base column plus 1-3 random append deltas (labels included)."""
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
    return values, labels, cuts


def _piece(values, labels, start, stop):
    return {"A": values[start:stop], "f": labels[start:stop]}


def _assert_index_equal(got, reference):
    assert got.values == reference.values
    np.testing.assert_array_equal(got.codes, reference.codes)
    assert got.group_sizes() == reference.group_sizes()
    for value in reference.values:
        np.testing.assert_array_equal(got.row_ids(value), reference.row_ids(value))


@settings(max_examples=100, deadline=None)
@given(base_and_deltas())
def test_extended_group_index_equals_rebuild(data):
    values, labels, cuts = data
    table = Table.from_columns(
        "inc", _piece(values, labels, 0, cuts[0]), hidden_columns=["f"]
    )
    table.group_index("A")  # warm the cache so appends take the delta path
    for start, stop in zip(cuts, cuts[1:]):
        table.append_columns(_piece(values, labels, start, stop))
    fresh = Table.from_columns(
        "scratch", {"A": values, "f": labels}, hidden_columns=["f"]
    )
    _assert_index_equal(table.group_index("A"), fresh.group_index("A"))

    ids = list(range(0, len(values), 2))
    flags = [bool(i % 3) for i in ids]
    ref_totals, ref_positives = fresh.group_index("A").label_counts(ids, flags)
    got_totals, got_positives = table.group_index("A").label_counts(ids, flags)
    np.testing.assert_array_equal(ref_totals, got_totals)
    np.testing.assert_array_equal(ref_positives, got_positives)


@settings(max_examples=100, deadline=None)
@given(base_and_deltas(), st.integers(min_value=1, max_value=6))
def test_extended_merged_index_equals_rebuild(data, shard_rows):
    values, labels, cuts = data
    table = ShardedTable.from_columns(
        "inc",
        _piece(values, labels, 0, cuts[0]),
        hidden_columns=["f"],
        shard_rows=shard_rows,
    )
    table.group_index("A")
    for start, stop in zip(cuts, cuts[1:]):
        table.append_columns(_piece(values, labels, start, stop))
    fresh = Table.from_columns(
        "scratch", {"A": values, "f": labels}, hidden_columns=["f"]
    )
    merged = table.group_index("A")
    _assert_index_equal(merged, fresh.group_index("A"))
    # layout invariants: spans match the table, shards stay within the limit
    assert merged.span_boundaries() == table.shard_offsets
    assert sum(shard.num_rows for shard in table.shards) == table.num_rows
    assert all(
        shard.num_rows <= table.tail_shard_rows for shard in table.shards
    )
    # data accessors agree with the monolithic rebuild
    assert table.column_values("A") == values
    np.testing.assert_array_equal(
        table.column_array("A"), fresh.column_array("A")
    )


@settings(max_examples=60, deadline=None)
@given(base_and_deltas())
def test_delta_merged_outcome_and_model_equal_rebuild(data):
    values, labels, cuts = data
    table = Table.from_columns(
        "inc", _piece(values, labels, 0, cuts[0]), hidden_columns=["f"]
    )
    base_index = table.group_index("A")

    # evidence gathered at the base generation (every third row labelled)
    ids = list(range(0, cuts[0], 3))
    labeled = LabeledSample(ids, [labels[row_id] for row_id in ids])
    outcome = labeled.to_sample_outcome(base_index)

    # appends arrive; the cached outcome is delta-merged per batch, treating
    # each delta's (unlabelled) rows as a shard of the logical table
    for start, stop in zip(cuts, cuts[1:]):
        table.append_columns(_piece(values, labels, start, stop))
        delta_index = Table.from_columns(
            "delta", _piece(values, labels, start, stop), hidden_columns=["f"]
        ).group_index("A")
        delta_outcome = LabeledSample().to_sample_outcome(delta_index)
        outcome = SampleOutcome.merge_shards([outcome, delta_outcome])

    fresh = Table.from_columns(
        "scratch", {"A": values, "f": labels}, hidden_columns=["f"]
    )
    fresh_index = fresh.group_index("A")
    whole = labeled.to_sample_outcome(fresh_index)
    assert outcome == whole
    for got_part, whole_part in zip(
        outcome.by_group(table.group_index("A")), whole.by_group(fresh_index)
    ):
        assert got_part.tolist() == whole_part.tolist()

    got_model = SelectivityModel.from_sample_outcome(table.group_index("A"), outcome)
    ref_model = SelectivityModel.from_sample_outcome(fresh_index, whole)
    assert got_model.keys == ref_model.keys
    for key in ref_model.keys:
        got, ref = got_model.group(key), ref_model.group(key)
        assert got.size == ref.size
        assert got.sampled == ref.sampled
        assert got.sampled_positives == ref.sampled_positives
        assert got.selectivity == ref.selectivity
        assert got.variance == ref.variance


def _run_query(table, tag, executor_factory):
    udf = UserDefinedFunction.from_label_column(f"inc_{tag}", "f")
    ledger = CostLedger()
    strategy = IntelSample(
        random_state=314,
        correlated_column="A",
        executor_factory=executor_factory,
    )
    result = strategy.answer(
        table,
        udf,
        QueryConstraints(alpha=0.8, beta=0.8, rho=0.8),
        ledger,
    )
    return (
        sorted(int(r) for r in result.row_ids),
        ledger.retrieved_count,
        ledger.evaluated_count,
    )


@settings(max_examples=25, deadline=None)
@given(base_and_deltas())
def test_query_results_identical_after_appends_serial_and_parallel(data):
    values, labels, cuts = data
    appended = Table.from_columns(
        "inc", _piece(values, labels, 0, cuts[0]), hidden_columns=["f"]
    )
    appended.group_index("A")
    for start, stop in zip(cuts, cuts[1:]):
        appended.append_columns(_piece(values, labels, start, stop))
    fresh = Table.from_columns(
        "inc", {"A": values, "f": labels}, hidden_columns=["f"]
    )

    serial = lambda rng: BatchExecutor(random_state=rng)  # noqa: E731
    assert _run_query(appended, "a", serial) == _run_query(fresh, "b", serial)

    sharded = ShardedTable.from_columns(
        "inc", _piece(values, labels, 0, cuts[0]), hidden_columns=["f"], shard_rows=7
    )
    sharded.group_index("A")
    for start, stop in zip(cuts, cuts[1:]):
        sharded.append_columns(_piece(values, labels, start, stop))
    fresh_sharded = ShardedTable.from_columns(
        "inc", {"A": values, "f": labels}, hidden_columns=["f"], shard_rows=7
    )
    parallel = lambda rng: ParallelBatchExecutor(rng, max_workers=2)  # noqa: E731
    assert _run_query(sharded, "c", parallel) == _run_query(
        fresh_sharded, "d", parallel
    )
