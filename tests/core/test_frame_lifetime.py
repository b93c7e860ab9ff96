"""The exclusion helpers, and who keeps a candidate frame alive.

The frame memo lives on the :class:`~repro.db.index.GroupIndex` it was
derived from, keyed on the identity of the sample outcome: it must be
reachable exactly as long as *both* are, keep neither alive, hang off no
module-level container and never ride along when an outcome is pickled.
Every backend — serial, thread, process — takes its candidates from that
one frame: built once however many warm executions follow, shared across
backends, and never shipped to a worker as sampled-id arrays.
"""

import gc
import pickle
import weakref

import numpy as np

from repro.core import procpool as procpool_module
from repro.core.executor import BatchExecutor, candidate_frame
from repro.core.parallel import ParallelBatchExecutor
from repro.core.plan import ExecutionPlan, GroupDecision
from repro.core.procpool import ProcessPoolBatchExecutor
from repro.db.index import GroupIndex
from repro.db.sharding import ShardedTable
from repro.db.shm import release_exports
from repro.db.table import Table
from repro.db.udf import CostLedger, RevealLabel, UserDefinedFunction
from repro.sampling import sampler as sampler_module
from repro.sampling.sampler import SampleOutcome, drop_members

from leakcheck import assert_no_leaked_resources


def _ids(*values):
    return np.asarray(values, dtype=np.intp)


class TestExclusionHelpers:
    def test_group_slices_are_restricted_to_the_group_and_the_table(self):
        # a: rows 0 3 5 7, b: 1 4, c: 2 6 — ids outside the table go nowhere.
        index = _table().group_index("A")
        ids, flags, bounds = SampleOutcome(
            [7, 40, 2, 0, -1, 4, 8], [True, True, False, False, True, True, True]
        ).by_group(index)
        slices = [ids[bounds[code] : bounds[code + 1]].tolist() for code in range(3)]
        assert slices == [[7, 0], [4], [2]]  # draw order within a group
        assert flags.tolist() == [True, False, True, False]

    def test_nothing_sampled_or_empty_table(self):
        index = _table().group_index("A")
        ids, _flags, bounds = SampleOutcome().by_group(index)
        assert ids.size == 0 and bounds.tolist() == [0, 0, 0, 0]
        frame = candidate_frame(index, SampleOutcome([40, -1], [True, True]))
        assert frame.free_positives.size == 0
        assert [rows.tolist() for rows in frame.candidates] == [[0, 3, 5, 7], [1, 4], [2, 6]]

    def test_drop_members_keeps_order_and_returns_rows_when_nothing_to_drop(self):
        rows = _ids(2, 5, 7, 11)
        assert drop_members(rows, _ids(11, 5)).tolist() == [2, 7]  # any order
        assert drop_members(rows, _ids()) is rows

    def test_duplicate_sampled_ids_drop_the_row_once(self):
        assert drop_members(_ids(2, 5, 7), _ids(5, 5)).tolist() == [2, 7]


def _table():
    keys = ["a", "b", "c", "a", "b", "a", "c", "a"]
    labels = [True, False, True, True, True, False, False, True]
    return Table.from_columns("lifetimes", {"A": keys, "f": labels}, hidden_columns=["f"])


def _outcome():
    return SampleOutcome([0, 5, 4], [True, False, True])  # a: 0+ 5-, b: 4+


def _run(table, index, outcome, seed=3):
    plan = ExecutionPlan({key: GroupDecision(retrieve=1.0, evaluate=0.5) for key in index})
    udf = UserDefinedFunction.from_label_column("lifetimes_udf", "f")
    return BatchExecutor(random_state=seed).execute(
        table, index, udf, plan, CostLedger(), sample_outcome=outcome
    )


class TestFrameLifetime:
    def test_frame_is_built_once_per_index_and_outcome(self, assert_same_rows):
        table = _table()
        index = table.group_index("A")
        outcome = _outcome()
        first = _run(table, index, outcome)
        frame = candidate_frame(index, outcome)
        assert [rows.tolist() for rows in frame.candidates] == [[3, 7], [1], [2, 6]]
        assert frame.free_positives.tolist() == [0, 4]
        assert all(not rows.flags.writeable for rows in frame.candidates)
        again = _run(table, index, outcome)
        assert candidate_frame(index, outcome) is frame
        assert_same_rows(again.returned_row_ids, first.returned_row_ids)

    def test_equal_but_distinct_outcome_gets_its_own_frame(self):
        table = _table()
        index = table.group_index("A")
        one, other = _outcome(), _outcome()
        assert one == other and one is not other
        assert candidate_frame(index, one) is not candidate_frame(index, other)

    def test_dropping_the_outcome_frees_the_frame(self):
        table = _table()
        index = table.group_index("A")
        outcome = _outcome()
        _run(table, index, outcome)
        frame_ref = weakref.ref(candidate_frame(index, outcome))
        assert frame_ref() is not None
        del outcome  # e.g. the plan that carried it was evicted or refreshed
        gc.collect()
        assert frame_ref() is None
        assert index._derived == {}

    def test_dropping_the_table_frees_index_and_frame_but_not_the_outcome(self):
        table = _table()
        index = table.group_index("A")
        outcome = _outcome()
        _run(table, index, outcome)
        frame_ref = weakref.ref(candidate_frame(index, outcome))
        index_ref = weakref.ref(index)
        del table, index
        gc.collect()
        assert index_ref() is None
        assert frame_ref() is None
        assert outcome.total_sampled == 3  # untouched, and holds no frame

    def test_frame_keeps_neither_input_alive(self):
        table = _table()
        index = table.group_index("A")
        outcome = _outcome()
        frame = candidate_frame(index, outcome)
        index_ref, outcome_ref = weakref.ref(index), weakref.ref(outcome)
        del table, index, outcome
        gc.collect()
        assert index_ref() is None and outcome_ref() is None
        assert frame.free_positives.tolist() == [0, 4]  # still usable on its own

    def test_an_extended_index_starts_with_an_empty_memo(self):
        for table in (
            _table(),
            ShardedTable.from_columns(
                "lifetimes",
                {"A": list("abcabaca"), "f": [True] * 8},
                hidden_columns=["f"],
                shard_rows=3,
            ),
        ):
            before = table.group_index("A")
            outcome = _outcome()
            stale = candidate_frame(before, outcome)
            table.append_columns({"A": ["a", "d"], "f": [True, False]})
            after = table.group_index("A")
            assert after is not before
            assert after._derived == {}
            fresh = candidate_frame(after, outcome)
            assert fresh is not stale
            assert [rows.tolist() for rows in fresh.candidates][0][-1] == 8
            assert len(fresh.candidates) == len(stale.candidates) + 1

    def test_no_module_level_container_holds_frames(self):
        """A global memo would keep the frame (and the table) after both die."""
        table = _table()
        index = table.group_index("A")
        outcome = _outcome()
        _run(table, index, outcome)
        frame_ref = weakref.ref(candidate_frame(index, outcome))
        del table, index, outcome
        gc.collect()
        assert frame_ref() is None

    def test_frame_is_not_pickled_with_the_outcome(self):
        table = _table()
        index = table.group_index("A")
        outcome = _outcome()
        _run(table, index, outcome)
        assert vars(outcome).keys() == {"row_ids", "flags"}
        blob = pickle.dumps(outcome, protocol=4)
        assert b"CandidateFrame" not in blob
        restored = pickle.loads(blob)
        assert restored == outcome
        # A restored outcome is a new object: its frame is rebuilt, not found.
        assert candidate_frame(index, restored) is not candidate_frame(index, outcome)

    def test_fresh_index_object_over_same_table_rebuilds(self):
        table = _table()
        outcome = _outcome()
        shared = candidate_frame(table.group_index("A"), outcome)
        private = candidate_frame(GroupIndex(table, "A"), outcome)
        assert private is not shared
        assert [r.tolist() for r in private.candidates] == [
            r.tolist() for r in shared.candidates
        ]

    def test_concurrent_hits_and_dying_outcomes_share_one_memo(self, assert_same_rows):
        """Pool threads hit one (index, outcome) while other outcomes come and go."""
        import sys
        import threading
        import time

        table = _table()
        index = table.group_index("A")
        outcome = _outcome()
        expected = _run(table, index, outcome).returned_row_ids
        stop_at = time.monotonic() + 0.6
        errors = []

        def hit():
            try:
                while time.monotonic() < stop_at:
                    assert_same_rows(_run(table, index, outcome).returned_row_ids, expected)
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        def churn():
            try:
                while time.monotonic() < stop_at:
                    candidate_frame(index, _outcome())  # dies at once
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=hit) for _ in range(6)]
            threads += [threading.Thread(target=churn) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        gc.collect()
        assert list(index._derived) == [id(outcome)]  # only the live outcome's

    def test_leak_gate_stays_at_zero(self):
        table = _table()
        _run(table, table.group_index("A"), _outcome())
        del table
        assert_no_leaked_resources()


def _sharded(name):
    rng = np.random.default_rng(4)
    keys = [("a", "b", "c")[code] for code in rng.integers(0, 3, 240)]
    labels = (rng.random(240) < 0.5).tolist()
    return ShardedTable.from_columns(
        name, {"A": keys, "f": labels}, hidden_columns=["f"], num_shards=4
    )


def _sharded_outcome(index):
    """A few members of every group, spread over the spans."""
    sampled = np.concatenate([rows[::9] for _key, rows in index.items()])
    positive = np.concatenate([rows[::18] for _key, rows in index.items()])
    return SampleOutcome(sampled, np.isin(sampled, positive))


def _span_backends():
    return {
        "thread": lambda seed: ParallelBatchExecutor(seed, max_workers=3),
        "process": lambda seed: ProcessPoolBatchExecutor(seed, max_workers=2),
    }


class TestOneFrameBehindEveryBackend:
    """The span executors share the serial executor's memoised frame."""

    @staticmethod
    def _count_builds(monkeypatch):
        builds = []
        real = sampler_module.build_candidate_frame

        def counting(index, sample_outcome):
            builds.append((id(index), id(sample_outcome)))
            return real(index, sample_outcome)

        monkeypatch.setattr(sampler_module, "build_candidate_frame", counting)
        return builds

    @staticmethod
    def _execute(make, seed, table, index, outcome, python_udf=False):
        plan = ExecutionPlan({key: GroupDecision(retrieve=0.8, evaluate=0.4) for key in index})
        if python_udf:
            udf = UserDefinedFunction("frames_py", RevealLabel("f", True))
        else:
            udf = UserDefinedFunction.from_label_column("frames_label", "f")
        return make(seed).execute(table, index, udf, plan, CostLedger(), sample_outcome=outcome)

    def test_warm_executions_build_the_frame_once_per_backend(self, monkeypatch):
        builds = self._count_builds(monkeypatch)
        for name, make in _span_backends().items():
            table = _sharded(f"warm_{name}")
            index = table.group_index("A")
            outcome = _sharded_outcome(index)
            try:
                for seed in range(6):
                    self._execute(make, seed, table, index, outcome)
                assert builds == [(id(index), id(outcome))], name
                builds.clear()
            finally:
                release_exports(table)
        assert_no_leaked_resources()

    def test_serial_thread_and_process_share_one_frame_object(self, monkeypatch):
        builds = self._count_builds(monkeypatch)
        table = _sharded("shared_frame")
        index = table.group_index("A")
        outcome = _sharded_outcome(index)
        sampled = set(outcome.row_ids.tolist())
        free = outcome.positives.tolist()  # drawn group by group: already in index order
        try:
            frame = None
            backends = {"serial": lambda seed: BatchExecutor(seed), **_span_backends()}
            for name, make in backends.items():
                result = self._execute(make, 5, table, index, outcome)
                rows = result.returned_row_ids.tolist()
                assert rows[: len(free)] == free, name
                assert not sampled & set(rows[len(free) :]), name  # exclusion applied
                frame = frame or candidate_frame(index, outcome)
                assert candidate_frame(index, outcome) is frame, name
            assert builds == [(id(index), id(outcome))]  # one build served all three
        finally:
            release_exports(table)
        assert_no_leaked_resources()

    def test_pickled_span_tasks_carry_no_sampled_ids(self, record_pool_submits):
        """What crosses the process boundary is frame slices, nothing to exclude."""
        submitted = record_pool_submits(procpool_module, "shared_process_pool")
        table = _sharded("shipped_tasks")
        index = table.group_index("A")
        outcome = _sharded_outcome(index)
        sampled = set(outcome.row_ids.tolist())
        try:
            self._execute(_span_backends()["process"], 2, table, index, outcome, python_udf=True)
        finally:
            release_exports(table)
        assert len(submitted) == 4  # one payload per span
        for _entry, _root, _span_index, tasks, *_rest in pickle.loads(pickle.dumps(submitted)):
            for task in tasks:
                arrays = {
                    name for name, value in vars(task).items() if isinstance(value, np.ndarray)
                }
                assert arrays == {"rows"}  # no ``already``, no per-request exclusion list
                assert not sampled & set(task.rows.tolist())
        assert_no_leaked_resources()

    def test_frame_dies_with_the_outcome_after_a_process_run(self):
        table = _sharded("dying_frame")
        index = table.group_index("A")
        outcome = _sharded_outcome(index)
        try:
            self._execute(_span_backends()["process"], 1, table, index, outcome)
            frame_ref = weakref.ref(candidate_frame(index, outcome))
            assert frame_ref() is not None
            del outcome
            gc.collect()
            assert frame_ref() is None  # no worker payload, future or pool kept it
            assert index._derived == {}
        finally:
            release_exports(table)
        assert_no_leaked_resources()
