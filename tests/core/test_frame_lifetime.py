"""The exclusion helpers, and who keeps a candidate frame alive.

The frame memo lives on the :class:`~repro.db.index.GroupIndex` it was
derived from, keyed on the identity of the sample outcome: it must be
reachable exactly as long as *both* are (or an extension of that index that
inherited it, and grows it to equal a fresh build), keep neither alive, hang
off no module-level container and never ride along when an outcome is
pickled.  A draw files the frame of the evidence it returns, and the
current trace span says how each frame was obtained.
Every backend — serial, inline spans, process — takes its candidates from that
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
from repro.datasets.registry import load_dataset
from repro.db.catalog import Catalog
from repro.db.engine import Engine
from repro.db.index import GroupIndex
from repro.db.predicate import UdfPredicate
from repro.db.query import SelectQuery
from repro.db.sharding import ShardedTable
from repro.db.shm import release_exports
from repro.db.storage import CatalogStore
from repro.db.table import Table
from repro.db.udf import CostLedger, RevealLabel, UserDefinedFunction
from repro.obs import CollectingTraceSink
from repro.sampling import sampler as sampler_module
from repro.sampling.sampler import GroupSampler, SampleOutcome, drop_members
from repro.serving import QueryService, ServiceConfig

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
    return BatchExecutor().execute(
        table, index, udf, plan, CostLedger(), seed, sample_outcome=outcome
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


def _frames_equal(frame, expected):
    assert len(frame.candidates) == len(expected.candidates)
    for rows, want in zip(frame.candidates, expected.candidates):
        assert rows.dtype == want.dtype and np.array_equal(rows, want)
        assert not rows.flags.writeable
    assert np.array_equal(frame.free_positives, expected.free_positives)


def _appendable_tables():
    """The lifetime table as it is, and in shards of three rows (whose
    three-row append seals the tail and re-chunks the index's spans)."""
    return (
        _table(),
        ShardedTable.from_columns(
            "lifetimes",
            {"A": ["a", "b", "c", "a", "b", "a", "c", "a"], "f": [True] * 8},
            hidden_columns=["f"],
            shard_rows=3,
        ),
    )


def _append(table):
    table.append_columns({"A": ["a", "d", "b"], "f": [True, False, True]})


class TestFramesAcrossAppends:
    """An extended index grows its parent's frames instead of rebuilding them."""

    @staticmethod
    def _count_builds(monkeypatch):
        builds = []
        real = sampler_module.build_candidate_frame

        def counting(index, sample_outcome):
            builds.append(id(sample_outcome))
            return real(index, sample_outcome)

        monkeypatch.setattr(sampler_module, "build_candidate_frame", counting)
        return builds, real

    def test_an_extended_index_grows_its_parent_frames(self, monkeypatch):
        builds, build = self._count_builds(monkeypatch)
        for table in _appendable_tables():
            before = table.group_index("A")
            outcome = _outcome()
            stale = candidate_frame(before, outcome)
            _append(table)
            after = table.group_index("A")
            assert after is not before
            builds.clear()
            grown = candidate_frame(after, outcome)
            assert builds == []  # grown, not built
            _frames_equal(grown, build(after, outcome))
            # a: 0+ 5- sampled, 8 appended; b: 4+ sampled, 10 appended; c untouched.
            assert [rows.tolist() for rows in grown.candidates] == [[3, 7, 8], [1, 10], [2, 6], [9]]
            assert grown.candidates[2] is stale.candidates[2]  # no row of c appended
            assert grown.candidates[3] is after.row_ids("d")  # a new group's own rows
            assert [rows.tolist() for rows in stale.candidates] == [[3, 7], [1], [2, 6]]
            assert candidate_frame(after, outcome) is grown  # kept, like a built frame

    def test_evidence_past_the_old_end_is_rebuilt(self, monkeypatch):
        builds, build = self._count_builds(monkeypatch)
        for table in _appendable_tables():
            before = table.group_index("A")
            outcome = SampleOutcome([0, 9], [True, True])  # 9 is not a row yet
            candidate_frame(before, outcome)
            _append(table)
            after = table.group_index("A")
            builds.clear()
            frame = candidate_frame(after, outcome)
            assert builds == [id(outcome)]
            _frames_equal(frame, build(after, outcome))
            assert frame.free_positives.tolist() == [0, 9]

    def test_a_frame_nobody_read_since_the_last_append_is_left_behind(self, monkeypatch):
        """An append keeps alive no more frames than the previous one did."""
        builds, build = self._count_builds(monkeypatch)
        table = _table()
        read, unread = _outcome(), _outcome()
        candidate_frame(table.group_index("A"), read)
        candidate_frame(table.group_index("A"), unread)
        unread_ref = weakref.ref(candidate_frame(table.group_index("A"), unread))
        _append(table)
        candidate_frame(table.group_index("A"), read)  # grown: carried on
        _append(table)
        index = table.group_index("A")
        gc.collect()
        assert list(index._derived) == [id(read)] and unread_ref() is None
        builds.clear()
        _frames_equal(candidate_frame(index, read), build(index, read))
        _frames_equal(candidate_frame(index, unread), build(index, unread))
        assert builds == [id(unread)]

    def test_a_rechunk_carries_the_frame_itself(self):
        table = _appendable_tables()[1]
        index = table.group_index("A")
        outcome = _outcome()
        frame = candidate_frame(index, outcome)
        clone = index.resharded(index.span_boundaries())
        assert candidate_frame(clone, outcome) is frame

    def test_an_outcome_that_dies_before_the_append_leaves_no_frame(self):
        for table in _appendable_tables():
            before = table.group_index("A")
            outcome = _outcome()
            frame_ref = weakref.ref(candidate_frame(before, outcome))
            del outcome
            gc.collect()
            _append(table)
            assert frame_ref() is None
            assert before._derived == {} and table.group_index("A")._derived == {}

    def test_an_outcome_that_dies_after_the_append_leaves_no_frame(self):
        for table in _appendable_tables():
            before = table.group_index("A")
            outcome = _outcome()
            frame_ref = weakref.ref(candidate_frame(before, outcome))
            _append(table)
            after = table.group_index("A")
            assert list(after._derived) == [id(outcome)]  # inherited, not yet grown
            del outcome
            gc.collect()
            assert frame_ref() is None
            assert before._derived == {} and after._derived == {}

    def test_the_parent_index_is_collectable_while_its_child_lives(self):
        for table in _appendable_tables():
            before = table.group_index("A")
            outcome = _outcome()
            candidate_frame(before, outcome)
            before_ref = weakref.ref(before)
            _append(table)
            del before
            gc.collect()
            assert before_ref() is None
            after = table.group_index("A")
            _frames_equal(
                candidate_frame(after, outcome),
                sampler_module.build_candidate_frame(after, outcome),
            )


class TestFramesAcrossMerges:
    """A draw returns the merged evidence with its frame filed: the frame the
    rows were drawn from, minus the drawn rows, from their groups."""

    @staticmethod
    def _draw(table, allocation, prior):
        udf = UserDefinedFunction.from_label_column("lifetimes_udf", "f")
        return GroupSampler(random_state=3).sample(
            table, table.group_index("A"), udf, allocation, CostLedger(), already_sampled=prior
        )

    def test_a_merged_outcome_derives_its_frame(self, monkeypatch):
        builds, build = TestFramesAcrossAppends._count_builds(monkeypatch)
        for table in _appendable_tables():
            index = table.group_index("A")
            prior = _outcome()
            candidate_frame(index, prior)
            builds.clear()
            merged = self._draw(table, {"a": 1, "c": 1}, prior)
            assert merged.row_ids[:3].tolist() == [0, 5, 4] and merged.size == 5
            frame = candidate_frame(index, merged)
            assert builds == []
            _frames_equal(frame, build(index, merged))
            assert [rows.size for rows in frame.candidates] == [1, 1, 1]
            assert frame.candidates[1] is candidate_frame(index, prior).candidates[1]
            assert candidate_frame(index, merged) is frame

    def test_nothing_drawn_keeps_the_outcome_and_its_frame(self):
        table = _table()
        index = table.group_index("A")
        prior = _outcome()
        frame = candidate_frame(index, prior)
        for allocation in ({}, {"a": 0, "b": -1}, {"z": 3}):
            assert self._draw(table, allocation, prior) is prior
        assert candidate_frame(index, prior) is frame
        exhausted = SampleOutcome([1, 4], [False, True])  # all of b
        assert self._draw(table, {"b": 2}, exhausted) is exhausted

    def test_without_the_prior_frame_the_draw_builds_it_once(self, monkeypatch):
        builds, _build = TestFramesAcrossAppends._count_builds(monkeypatch)
        table = _table()
        index = table.group_index("A")
        prior = _outcome()
        merged = self._draw(table, {"a": 1}, prior)
        assert builds == [id(prior)]
        candidate_frame(index, merged)
        assert builds == [id(prior)]

    def test_an_append_after_a_draw_grows_the_merged_frame(self, monkeypatch):
        builds, build = TestFramesAcrossAppends._count_builds(monkeypatch)
        for table in _appendable_tables():
            prior = _outcome()
            candidate_frame(table.group_index("A"), prior)
            merged = self._draw(table, {"a": 1, "c": 1}, prior)
            _append(table)
            after = table.group_index("A")
            builds.clear()
            _frames_equal(candidate_frame(after, merged), build(after, merged))
            assert builds == []


class TestHowTheFrameWasObtained:
    """The current span records whether its frame was found, grown, built,
    or made by the draw — why a refresh was slow."""

    @staticmethod
    def _frames(trace):
        return {span.name: span.work["frame"] for span in trace.spans if "frame" in span.work}

    def test_a_refresh_grows_and_a_restored_hit_builds(self, tmp_path):
        loaded = load_dataset("lending_club", random_state=42, scale=0.03)
        catalog = Catalog()
        catalog.register_table(loaded.table)
        udf = loaded.make_udf("traced")
        catalog.register_udf(udf)
        query = SelectQuery(
            table=loaded.table.name,
            predicate=UdfPredicate(udf),
            alpha=0.8,
            beta=0.8,
            rho=0.8,
            correlated_column="grade",
        )
        config = ServiceConfig(storage_dir=str(tmp_path))
        service = QueryService(Engine(catalog), config=config)
        sink = CollectingTraceSink()
        service.set_trace_sink(sink)
        assert service.submit(query, seed=0).metadata["plan_cache"] == "miss"
        assert service.submit(query, seed=1).metadata["plan_cache"] == "hit"
        delta = loaded.table.select_rows(np.arange(600))
        loaded.table.append_columns(
            {name: delta.column_values(name, allow_hidden=True) for name in delta.schema.column_names}
        )
        assert service.submit(query, seed=2).metadata["plan_cache"] == "refresh"
        cold, hit, refresh = sink.traces
        assert self._frames(cold) == {"sampling": "drawn", "execute": "memo"}
        assert self._frames(hit) == {"execute": "memo"}
        assert self._frames(refresh) == {"sampling": "grown", "execute": "memo"}
        service.close()

        catalog, _reports = CatalogStore(str(tmp_path)).open()
        catalog.register_udf(loaded.make_udf("traced"))
        service = QueryService(Engine(catalog), config=config)
        service.set_trace_sink(sink)
        assert service.submit(query, seed=3).metadata["plan_cache"] == "restored"
        assert self._frames(sink.traces[-1]) == {"execute": "built"}
        service.close()


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
        "inline": ParallelBatchExecutor(),
        "process": ProcessPoolBatchExecutor(max_workers=2),
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
    def _execute(executor, seed, table, index, outcome, python_udf=False):
        plan = ExecutionPlan({key: GroupDecision(retrieve=0.8, evaluate=0.4) for key in index})
        if python_udf:
            udf = UserDefinedFunction("frames_py", RevealLabel("f", True))
        else:
            udf = UserDefinedFunction.from_label_column("frames_label", "f")
        return executor.execute(table, index, udf, plan, CostLedger(), seed, sample_outcome=outcome)

    def test_warm_executions_build_the_frame_once_per_backend(self, monkeypatch):
        builds = self._count_builds(monkeypatch)
        for name, executor in _span_backends().items():
            table = _sharded(f"warm_{name}")
            index = table.group_index("A")
            outcome = _sharded_outcome(index)
            try:
                for seed in range(6):
                    self._execute(executor, seed, table, index, outcome)
                assert builds == [(id(index), id(outcome))], name
                builds.clear()
            finally:
                release_exports(table)
        assert_no_leaked_resources()

    def test_serial_inline_and_process_share_one_frame_object(self, monkeypatch):
        builds = self._count_builds(monkeypatch)
        table = _sharded("shared_frame")
        index = table.group_index("A")
        outcome = _sharded_outcome(index)
        sampled = set(outcome.row_ids.tolist())
        free = outcome.positives.tolist()  # drawn group by group: already in index order
        try:
            frame = None
            backends = {"serial": BatchExecutor(), **_span_backends()}
            for name, executor in backends.items():
                result = self._execute(executor, 5, table, index, outcome)
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
        """What crosses the process boundary is a span's picked row ids, nothing
        to exclude."""
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
        for _entry, _span_index, row_ids, *_rest in pickle.loads(pickle.dumps(submitted)):
            # One id array, no per-request exclusion list beside it.
            assert isinstance(row_ids, np.ndarray) and row_ids.ndim == 1
            assert row_ids.size and not sampled & set(row_ids.tolist())
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
