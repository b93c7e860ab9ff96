"""Property tests: the prepared candidate frame is invisible to execution.

:class:`~repro.core.executor.BatchExecutor` takes "group rows minus sampled
rows" and the free sampled positives from a memoised
:class:`~repro.core.executor.CandidateFrame`.  For *any* plan (retrieval and
conditional-evaluation probabilities at 0, strictly inside (0, 1) and at 1),
*any* sample outcome (sampled ids that are not members of the group they are
filed under, ids outside the table, groups with nothing sampled, groups the
table does not have) and every table kind, three runs at one seed must agree
on returned row ids, ledger and per-group counts:

* the batch executor serving the frame from the index's memo,
* the batch executor over an index and an outcome it has never seen (the
  frame is built from scratch),
* the tuple-at-a-time :class:`~repro.core.executor.PlanExecutor`, which
  knows nothing of frames.

The frame itself is also pinned to the ``np.isin`` formulation it replaced.
"""

import copy
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.executor import (
    BatchExecutor,
    PlanExecutor,
    build_candidate_frame,
    candidate_frame,
)
from repro.core.plan import ExecutionPlan, GroupDecision
from repro.db.index import GroupIndex
from repro.db.residency import ResidencyManager
from repro.db.sharding import ShardedTable
from repro.db.storage import TableStore
from repro.db.table import Table
from repro.db.udf import CostLedger, UserDefinedFunction
from repro.sampling.sampler import SampleOutcome

from leakcheck import assert_no_leaked_resources

KEYS = ("a", "b", "c", "d")
#: Filed in the outcome and the plan, never present in the table.
ABSENT_KEY = "z"
PROBABILITIES = (0.0, 0.3, 0.7, 1.0)
#: ``E_a / R_a``: nothing evaluated, a coin per retrieved tuple, everything.
EVALUATE_SHARES = (0.0, 0.4, 1.0)


@st.composite
def frame_cases(draw):
    rows = draw(st.integers(min_value=1, max_value=48))
    keys = draw(st.lists(st.sampled_from(KEYS), min_size=rows, max_size=rows))
    labels = draw(st.lists(st.booleans(), min_size=rows, max_size=rows))
    decisions = {}
    for key in KEYS + (ABSENT_KEY,):
        retrieve = draw(st.sampled_from(PROBABILITIES))
        share = draw(st.sampled_from(EVALUATE_SHARES))
        decisions[key] = GroupDecision(retrieve=retrieve, evaluate=retrieve * share)
    # Any rows of the table, in any (draw) order, and a few ids past either
    # end — evidence files nothing under a group, the index says where each
    # row belongs (out-of-table ids: nowhere); the empty list is an outcome
    # with nothing sampled.
    sampled = draw(
        st.lists(st.integers(min_value=-2, max_value=rows + 3), unique=True, max_size=20)
    )
    samples = (sampled, [draw(st.booleans()) for _row in sampled])
    seed = draw(st.integers(min_value=0, max_value=2**20))
    return {"A": keys, "f": labels}, decisions, samples, seed


def _open_table(kind, columns, directory):
    """The same rows as a ``Table``, a ``ShardedTable`` or a lazy durable table."""
    if kind == "table":
        return Table.from_columns("frames", columns, hidden_columns=["f"]), None
    sharded = ShardedTable.from_columns(
        "frames", columns, hidden_columns=["f"], shard_rows=7
    )
    if kind == "sharded":
        return sharded, None
    store = TableStore(directory)
    store.save(sharded)
    manager = ResidencyManager(budget_bytes=64)  # cannot hold one segment
    lazy, _report = store.open(residency=manager)
    return lazy, manager


def _execute(executor_class, table, index, plan, seed, outcome):
    udf = UserDefinedFunction.from_label_column("frame_udf", "f")
    ledger = CostLedger()
    result = executor_class().execute(
        table, index, udf, plan, ledger, seed, sample_outcome=outcome
    )
    return (
        result.returned_row_ids,
        ledger.retrieved_count,
        ledger.evaluated_count,
        ledger.total_cost,
        result.group_counts,
    )


@pytest.mark.parametrize("kind", ["table", "sharded", "lazy"])
@settings(max_examples=40, deadline=None)
@given(case=frame_cases())
def test_memoised_frame_equals_fresh_frame_equals_reference(kind, case, assert_same_rows):
    columns, decisions, samples, seed = case
    with tempfile.TemporaryDirectory() as directory:
        table, manager = _open_table(kind, columns, directory)
        try:
            index = table.group_index("A")
            plan = ExecutionPlan(decisions)
            outcome = SampleOutcome(*samples)

            reference = _execute(PlanExecutor, table, index, plan, seed, outcome)
            first = _execute(BatchExecutor, table, index, plan, seed, outcome)
            frame = candidate_frame(index, outcome)
            assert candidate_frame(index, outcome) is frame  # memoised by now
            memoised = _execute(BatchExecutor, table, index, plan, seed, outcome)
            assert candidate_frame(index, outcome) is frame

            unseen_index = GroupIndex(table, "A")
            unseen_outcome = copy.deepcopy(outcome)
            fresh = _execute(
                BatchExecutor, table, unseen_index, plan, seed, unseen_outcome
            )
            assert candidate_frame(unseen_index, unseen_outcome) is not frame

            for run in (first, memoised, fresh):
                assert_same_rows(run[0], reference[0])
                assert run[1:] == reference[1:]
                assert not run[0].flags.writeable

            # The frame against the formulation it replaced.
            rebuilt = build_candidate_frame(index, outcome)
            sampled = np.asarray(samples[0], dtype=np.intp)
            for (key, rows), kept, again in zip(
                index.items(), frame.candidates, rebuilt.candidates
            ):
                expected = rows[~np.isin(rows, sampled)]
                assert kept.tolist() == expected.tolist()
                assert again.tolist() == expected.tolist()
            # Free positives: the index's group order, draw order within a
            # group; an id outside the table is nobody's answer.
            assert frame.free_positives.tolist() == [
                row
                for key in index.values
                for row, passed in zip(*samples)
                if passed and 0 <= row < table.num_rows and columns["A"][row] == key
            ]
        finally:
            if manager is not None:
                manager.evict_all()
            del table
    assert_no_leaked_resources()


def test_no_outcome_means_every_row_is_a_candidate():
    table = Table.from_columns(
        "frames", {"A": list("abcab"), "f": [True, False, True, True, False]},
        hidden_columns=["f"],
    )
    index = table.group_index("A")
    frame = candidate_frame(index, None)
    assert [rows.tolist() for rows in frame.candidates] == [[0, 3], [1, 4], [2]]
    assert frame.free_positives.size == 0
