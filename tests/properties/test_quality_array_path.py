"""Property tests: quality from masks equals quality from sets, field for field.

``result_quality`` has two paths.  Given two collections of identifiers it
builds two sets — the definition (Section 2: precision ``|R ∩ C| / |R|``,
recall ``|R ∩ C| / |C|``) and the reference here.  Given a boolean truth mask
over the table it scatters the returned ids into a second mask and counts —
what ``Engine.audit`` uses, so that an audited request builds no per-row
python object.  The two must agree on every field for any answer: ids
repeated, nothing returned, nothing correct, ids at both ends of the table.
``Engine.audit`` is then pinned to the set path on every table kind, with the
oracle-mode promise (no memo write, no counter advance) still kept.
"""

import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.catalog import Catalog
from repro.db.engine import Engine, QueryResult
from repro.db.predicate import ColumnPredicate, UdfPredicate
from repro.db.query import SelectQuery
from repro.db.residency import ResidencyManager
from repro.db.sharding import ShardedTable
from repro.db.storage import TableStore
from repro.db.table import Table
from repro.db.udf import CostLedger, RevealLabel, UserDefinedFunction
from repro.stats.metrics import ResultQuality, result_quality

from leakcheck import assert_no_leaked_resources


@st.composite
def answers(draw):
    num_rows = draw(st.integers(min_value=1, max_value=64))
    truth = draw(
        st.one_of(
            st.just([False] * num_rows),  # empty truth
            st.just([True] * num_rows),
            st.lists(st.booleans(), min_size=num_rows, max_size=num_rows),
        )
    )
    edge = st.sampled_from([0, num_rows - 1])
    row = st.one_of(edge, st.integers(min_value=0, max_value=num_rows - 1))
    # Not unique: a repeated id must count once, as in a set.
    returned = draw(st.lists(row, max_size=3 * num_rows))
    return np.asarray(truth, dtype=bool), returned


def _fields(quality: ResultQuality):
    return (
        quality.precision,
        quality.recall,
        quality.returned_count,
        quality.correct_count,
        quality.true_positive_count,
    )


@settings(max_examples=300, deadline=None)
@given(case=answers())
def test_array_path_equals_set_path_field_for_field(case):
    truth_mask, returned = case
    truth_set = set(np.flatnonzero(truth_mask).tolist())
    reference = result_quality(returned, truth_set)
    for form in (
        returned,
        np.asarray(returned, dtype=np.intp),
        np.asarray(returned, dtype=np.int32),
    ):
        quality = result_quality(form, truth_mask)
        assert quality == reference
        assert [type(v) for v in _fields(quality)] == [type(v) for v in _fields(reference)]


def test_named_edge_cases():
    mask = np.array([True, False, False, True])
    assert result_quality([], mask) == result_quality([], {0, 3})
    assert result_quality([0, 3, 3, 0], mask) == result_quality([0, 3], {0, 3})
    assert result_quality([1, 2], np.zeros(4, dtype=bool)) == result_quality([1, 2], set())
    assert result_quality([], np.zeros(0, dtype=bool)) == result_quality([], set())
    assert result_quality([0, 3], mask) == ResultQuality(1.0, 1.0, 2, 2, 2)


def test_ids_outside_the_mask_are_rejected_not_wrapped():
    mask = np.array([True, False, True])
    with pytest.raises(IndexError):
        result_quality([3], mask)
    with pytest.raises(IndexError):
        result_quality([-1], mask)  # would silently mean the last row


def test_an_integer_array_of_correct_ids_is_still_a_collection():
    """Only a *boolean* array is a mask; id arrays keep the set path."""
    quality = result_quality(np.array([1, 2, 2]), np.array([2, 5]))
    assert _fields(quality) == (0.5, 0.5, 2, 2, 1)


# -- Engine.audit -------------------------------------------------------------
def _columns(rows=400, seed=5):
    rng = np.random.default_rng(seed)
    return {
        "A": [f"a{int(v)}" for v in rng.integers(0, 5, rows)],
        "n": [int(v) for v in rng.integers(0, 100, rows)],
        "f": [bool(v) for v in rng.random(rows) < 0.4],
    }


def _open(kind, directory):
    columns = _columns()
    if kind == "table":
        return Table.from_columns("qual", columns, hidden_columns=["f"]), None
    sharded = ShardedTable.from_columns("qual", columns, hidden_columns=["f"], shard_rows=64)
    if kind == "sharded":
        return sharded, None
    store = TableStore(directory)
    store.save(sharded)
    manager = ResidencyManager(budget_bytes=2048)  # a fraction of the table
    lazy, _report = store.open(residency=manager)
    return lazy, manager


def _memo(udf):
    return [part.tolist() for part in udf.memo_arrays()]


@pytest.mark.parametrize("kind", ["table", "sharded", "lazy"])
@pytest.mark.parametrize("callable_udf", [False, True])
def test_engine_audit_equals_the_set_path_and_leaves_no_trace(kind, callable_udf):
    with tempfile.TemporaryDirectory() as directory:
        table, manager = _open(kind, directory)
        try:
            catalog = Catalog()
            catalog.register_table(table)
            udf = (
                UserDefinedFunction("qual_py", RevealLabel("f", True))
                if callable_udf
                else UserDefinedFunction.from_label_column("qual_label", "f")
            )
            catalog.register_udf(udf)
            engine = Engine(catalog)
            rng = np.random.default_rng(17)
            queries = [
                SelectQuery(table="qual", predicate=UdfPredicate(udf)),
                SelectQuery(
                    table="qual",
                    predicate=ColumnPredicate("n", "<", 40) & UdfPredicate(udf),
                ),
                # A cheap predicate nothing passes: the empty truth.
                SelectQuery(
                    table="qual",
                    predicate=ColumnPredicate("n", "<", -1) & UdfPredicate(udf),
                ),
            ]
            # Pay for a few rows first, so "untouched" is not "empty".
            udf.evaluate_rows(table, np.arange(0, 50, dtype=np.intp))
            for query in queries:
                answers_to_audit = [
                    [],
                    [0, table.num_rows - 1],
                    rng.integers(0, table.num_rows, 150).tolist(),  # with repeats
                    list(range(table.num_rows)),
                ]
                for ids in answers_to_audit:
                    result = QueryResult(row_ids=ids, ledger=CostLedger())
                    counters, memo = udf.counter_snapshot(), _memo(udf)
                    truth = engine.ground_truth(query)
                    quality = engine.audit(query, result)
                    assert udf.counter_snapshot() == counters
                    assert _memo(udf) == memo
                    assert isinstance(truth, set)
                    assert all(type(row) is int for row in truth)
                    assert quality == result_quality(set(result.row_ids.tolist()), truth)
            # The truth is the truth: against the hidden labels directly.
            labels = np.asarray(_columns()["f"])
            assert engine.ground_truth(queries[0]) == set(np.flatnonzero(labels).tolist())
        finally:
            if manager is not None:
                manager.evict_all()
            del table
    assert_no_leaked_resources()
