"""ProcessPoolBatchExecutor: bitwise parity, accounting, fallbacks.

The contract under test: the process-pool path produces *exactly* the
inline span path's results and counters — row ids, ledger charges,
per-group counts, UDF memo content and every UDF counter — and the serial
backend's rows, ledger counts and per-group counts for the same seed,
because the coins are flipped in the parent from the serial backend's
stream and the parent replays serial charging while settling.  These tests
run real spawn workers (a shared two-worker pool, reused across tests), so
they also exercise the export/map lifecycle of the segment files workers
read end to end.
"""

from functools import partial

import numpy as np
import pytest

from repro.core.constraints import QueryConstraints
from repro.core.executor import BatchExecutor
from repro.core.parallel import ParallelBatchExecutor
from repro.core.pipeline import IntelSample
from repro.core.plan import ExecutionPlan, GroupDecision
from repro.core.procpool import ProcessPoolBatchExecutor
from repro.db.errors import BudgetExhaustedError
from repro.db.sharding import ShardedTable
from repro.db.shm import exported_segment_count, release_exports
from repro.db.table import Table
from repro.db.udf import CostLedger, RevealLabel, UserDefinedFunction
from repro.resilience import CircuitBreaker, FaultPlan, FaultRule, fault_scope
from repro.sampling.sampler import GroupSampler

WORKERS = 2


@pytest.fixture(autouse=True)
def _no_leaked_segments():
    """Leak check: teardown must leave zero exported files, memmaps or temp files."""
    from leakcheck import assert_no_leaked_resources

    yield
    assert_no_leaked_resources()


def _table(n=600, groups=5, seed=11, name="ptab"):
    rng = np.random.default_rng(seed)
    return Table.from_columns(
        name,
        {
            "A": [f"a{int(v)}" for v in rng.integers(0, groups, n)],
            "f": [bool(v) for v in rng.random(n) < 0.45],
        },
        hidden_columns=["f"],
    )


def _sharded(n=600, shards=4, seed=11, name="ptab"):
    return ShardedTable.from_table(_table(n=n, seed=seed, name=name), num_shards=shards)


def _label_udf(name="pudf"):
    return UserDefinedFunction.from_label_column(name, "f")


def _func_udf(name="pyudf"):
    # No label_column attribute: forces the per-row python-callable path on
    # every backend (the workload processes exist for).
    return UserDefinedFunction(name, RevealLabel("f", True))


def _mixed_plan(index):
    regimes = [(0.0, 0.0), (1.0, 1.0), (0.6, 0.0), (1.0, 0.5), (0.7, 0.8)]
    decisions = {}
    for code, value in enumerate(index.values):
        retrieve, evaluate = regimes[code % len(regimes)]
        decisions[value] = GroupDecision(retrieve=retrieve, evaluate=retrieve * evaluate)
    return ExecutionPlan(decisions=decisions)


def _execute(table, executor_cls, udf, workers=None, seed=7, free_memoized=False,
             sample_outcome=None, ledger=None):
    """Run the mixed plan; ``workers`` sizes a process pool (inline: ``None``)."""
    index = table.group_index("A")
    plan = _mixed_plan(index)
    ledger = ledger if ledger is not None else CostLedger(free_memoized=free_memoized)
    sizing = {} if workers is None else {"max_workers": workers}
    result = executor_cls(**sizing).execute(
        table, index, udf, plan, ledger, seed, sample_outcome=sample_outcome
    )
    return result, ledger


def _memo(udf):
    return [part.tolist() for part in udf.memo_arrays()]


def _assert_parity(serial, serial_ledger, serial_udf, remote, remote_ledger, remote_udf):
    assert np.array_equal(
        np.asarray(serial.returned_row_ids), np.asarray(remote.returned_row_ids)
    )
    assert remote_ledger.retrieved_count == serial_ledger.retrieved_count
    assert remote_ledger.evaluated_count == serial_ledger.evaluated_count
    assert remote_udf.counter_snapshot() == serial_udf.counter_snapshot()
    assert _memo(remote_udf) == _memo(serial_udf)
    for key, counts in serial.group_counts.items():
        other = remote.group_counts[key]
        assert (
            counts.retrieved, counts.evaluated, counts.returned,
            counts.evaluated_correct,
        ) == (
            other.retrieved, other.evaluated, other.returned,
            other.evaluated_correct,
        )


#: (alpha, beta) per query of a cold trace; rho is fixed at 0.8.
TRACE = ((0.9, 0.85), (0.92, 0.8), (0.88, 0.9))


def _cold_query(table, udf, signature, workers=None):
    """Sample, solve and execute one query: inline, or on ``workers`` processes."""
    executor = (
        ParallelBatchExecutor() if workers is None
        else ProcessPoolBatchExecutor(max_workers=workers)
    )
    alpha, beta = signature
    ledger = CostLedger()
    result = IntelSample(random_state=9_000, executor=executor).answer(
        table, udf, QueryConstraints(alpha=alpha, beta=beta, rho=0.8), ledger,
        correlated_column="A",
    )
    return np.asarray(result.row_ids, dtype=np.intp), ledger


class TestExecuteParity:
    def test_label_udf_bitwise_parity(self, record_pool_submits):
        import repro.core.procpool as procpool_module

        table = _sharded()
        submitted = record_pool_submits(procpool_module, "shared_process_pool")
        udf_a, udf_b = _label_udf(), _label_udf()
        serial, serial_ledger = _execute(table, ParallelBatchExecutor, udf_a)
        remote, remote_ledger = _execute(
            table, ProcessPoolBatchExecutor, udf_b, workers=WORKERS
        )
        _assert_parity(serial, serial_ledger, udf_a, remote, remote_ledger, udf_b)
        # The pool really ran the spans, and the label path stayed bulk.
        assert len(submitted) == table.num_shards
        assert udf_b.counter_snapshot()["row_calls"] == 0

    def test_python_callable_udf_bitwise_parity(self):
        table = _sharded(name="pytab")
        udf_a, udf_b = _func_udf(), _func_udf()
        serial, serial_ledger = _execute(table, ParallelBatchExecutor, udf_a)
        remote, remote_ledger = _execute(
            table, ProcessPoolBatchExecutor, udf_b, workers=WORKERS
        )
        _assert_parity(serial, serial_ledger, udf_a, remote, remote_ledger, udf_b)
        # How a row is evaluated never changes which rows a plan touches.
        label, _ = _execute(table, ParallelBatchExecutor, _label_udf("pylabel"))
        assert np.array_equal(
            np.asarray(label.returned_row_ids), np.asarray(remote.returned_row_ids)
        )

    @pytest.mark.parametrize("python_udf", [False, True], ids=["label", "python"])
    @pytest.mark.parametrize(
        "path", ["pool", "one_worker", "breaker_refused", "retried_span", "given_up_span"]
    )
    def test_every_path_returns_the_serial_backends_answer(
        self, path, python_udf, record_pool_submits
    ):
        """Through the pool, with one worker, refused by the breaker, with a
        span retried once or given up to the parent: BatchExecutor's rows,
        ledger counts and per-group counts for the seed, every time."""
        import repro.core.procpool as procpool_module

        make_udf = _func_udf if python_udf else _label_udf
        table = _sharded(name=f"paths_{path}")
        batch, batch_ledger = _execute(table, BatchExecutor, make_udf("paths_serial"))
        submitted = record_pool_submits(procpool_module, "shared_process_pool")
        breaker = CircuitBreaker(failure_threshold=1)
        if path == "breaker_refused":
            breaker.record_failure("worker_crash")
        garbage = {"retried_span": {(1, 0)}, "given_up_span": {(1, 0), (1, 1)}}
        faults = None
        if path in garbage:
            rule = FaultRule(kind="garbage", addresses=frozenset(garbage[path]))
            faults = FaultPlan(seed=0, rules={"worker": rule})
        degraded = []
        executor = ProcessPoolBatchExecutor(
            max_workers=1 if path == "one_worker" else WORKERS,
            breaker=breaker,
            on_degraded=degraded.append,
        )
        index = table.group_index("A")
        ledger = CostLedger()
        try:
            with fault_scope(faults):
                result = executor.execute(
                    table, index, make_udf("paths_pool"), _mixed_plan(index), ledger, 7
                )
        finally:
            release_exports(table)
        assert result.returned_row_ids.tolist() == batch.returned_row_ids.tolist()
        assert (ledger.retrieved_count, ledger.evaluated_count) == (
            batch_ledger.retrieved_count,
            batch_ledger.evaluated_count,
        )
        assert result.group_counts == batch.group_counts
        spans = table.num_shards
        submits = {"pool": spans, "retried_span": spans + 1, "given_up_span": spans + 1}
        assert len(submitted) == submits.get(path, 0)
        # Every in-process fallback names its reason, not only a refusal.
        reasons = {"breaker_refused": ["breaker_open"], "given_up_span": ["garbage"]}
        assert degraded == reasons.get(path, [])
        assert breaker.snapshot()["retried_spans"] == (1 if path in garbage else 0)

    @pytest.mark.parametrize("python_udf", [False, True], ids=["label", "python"])
    @pytest.mark.parametrize("signature", TRACE, ids=["q0", "q1", "q2"])
    def test_cold_query_parity(self, signature, python_udf, record_pool_submits):
        """A whole cold query — its sample, its solve, then the plan — on the
        unsharded table inline equals the sharded table in the pool, and the
        pool really fans the plan's spans out."""
        import repro.core.procpool as procpool_module

        make_udf = _func_udf if python_udf else _label_udf
        plain = _table(n=2400, name="trace")
        sharded = ShardedTable.from_table(plain, num_shards=4)
        submitted = record_pool_submits(procpool_module, "shared_process_pool")
        serial_udf, remote_udf = make_udf("trace_s"), make_udf("trace_p")
        try:
            serial, serial_ledger = _cold_query(plain, serial_udf, signature)
            remote, remote_ledger = _cold_query(
                sharded, remote_udf, signature, workers=WORKERS
            )
        finally:
            release_exports(sharded)
        assert np.array_equal(serial, remote)
        assert remote_ledger.evaluated_count == serial_ledger.evaluated_count
        assert remote_ledger.retrieved_count == serial_ledger.retrieved_count
        assert remote_udf.counter_snapshot()["calls"] == serial_udf.counter_snapshot()["calls"]
        assert len(submitted) >= sharded.num_shards
        if not python_udf:
            assert remote_udf.counter_snapshot()["row_calls"] == 0

    def test_sampled_rows_excluded_and_positives_free(self):
        table = _sharded(name="samptab")
        index = table.group_index("A")
        udf_a, udf_b = _label_udf("s_a"), _label_udf("s_b")
        outcome = GroupSampler(random_state=3).sample(
            table, index, udf_a, {value: 5 for value in index.values}, CostLedger()
        )
        # Mirror the sampler's memo warm-up on the comparison UDF so both
        # sides enter execution with identical caches.
        GroupSampler(random_state=3).sample(
            table, index, udf_b, {value: 5 for value in index.values}, CostLedger()
        )
        serial, serial_ledger = _execute(
            table, ParallelBatchExecutor, udf_a, sample_outcome=outcome
        )
        remote, remote_ledger = _execute(
            table, ProcessPoolBatchExecutor, udf_b, workers=WORKERS,
            sample_outcome=outcome,
        )
        _assert_parity(serial, serial_ledger, udf_a, remote, remote_ledger, udf_b)

    def test_free_memoized_second_run_charges_identically(self):
        table = _sharded(name="memotab")
        udf_a, udf_b = _label_udf("m_a"), _label_udf("m_b")
        for run_seed in (7, 7, 13):
            serial, serial_ledger = _execute(
                table, ParallelBatchExecutor, udf_a,
                seed=run_seed, free_memoized=True,
            )
            remote, remote_ledger = _execute(
                table, ProcessPoolBatchExecutor, udf_b, workers=WORKERS,
                seed=run_seed, free_memoized=True,
            )
            _assert_parity(serial, serial_ledger, udf_a, remote, remote_ledger, udf_b)
        # The repeated seed really was free the second time (memo merged back).
        _, second_ledger = _execute(
            table, ParallelBatchExecutor, _label_udf("m_c"),
            seed=7, free_memoized=True,
        )
        assert second_ledger.evaluated_count > 0  # fresh UDF pays

    def test_budget_trips_at_the_same_boundary(self):
        table = _sharded(name="budtab")
        _, full_ledger = _execute(table, ParallelBatchExecutor, _label_udf())
        budget = full_ledger.total_cost / 2

        def run(executor_cls, udf, workers):
            ledger = CostLedger()
            ledger.set_budget(budget)
            with pytest.raises(BudgetExhaustedError):
                _execute(table, executor_cls, udf, workers=workers, ledger=ledger)
            return ledger

        serial_ledger = run(ParallelBatchExecutor, _label_udf(), None)
        remote_ledger = run(ProcessPoolBatchExecutor, _label_udf(), WORKERS)
        assert remote_ledger.retrieved_count == serial_ledger.retrieved_count
        assert remote_ledger.evaluated_count == serial_ledger.evaluated_count


class TestEvaluateRowsFan:
    def test_bulk_fan_matches_serial_including_bulk_calls(self):
        table = _sharded(n=3000, shards=4, name="fantab")
        ids = np.arange(0, 3000, dtype=np.intp)
        udf_serial, udf_remote = _label_udf("f_a"), _label_udf("f_b")
        expected = udf_serial.evaluate_rows(table, ids)
        executor = ProcessPoolBatchExecutor(max_workers=WORKERS)
        got = executor.evaluate_rows(table, udf_remote, ids)
        assert np.array_equal(np.asarray(expected), np.asarray(got))
        # One bulk call, like serial.
        assert udf_remote.counter_snapshot() == udf_serial.counter_snapshot()
        assert _memo(udf_remote) == _memo(udf_serial)

    def test_fan_threshold_is_read_at_call_time(self, monkeypatch, record_pool_submits):
        """Patching ``procpool._MIN_PARALLEL_EVAL_ROWS`` moves the fan: the
        threshold is a module global read per call, not a copied value."""
        import repro.core.procpool as procpool_module

        table = _sharded(n=600, shards=4, name="thrtab")
        ids = np.arange(0, 600, dtype=np.intp)
        submitted = record_pool_submits(procpool_module, "shared_process_pool")
        executor = ProcessPoolBatchExecutor(max_workers=WORKERS)
        udf_serial, udf_remote = _label_udf("thr_a"), _label_udf("thr_b")
        expected = udf_serial.evaluate_rows(table, ids)
        executor.evaluate_rows(table, _label_udf("thr_small"), ids)
        assert submitted == []  # 600 ids < 2048: one serial call
        monkeypatch.setattr(procpool_module, "_MIN_PARALLEL_EVAL_ROWS", 1)
        got = executor.evaluate_rows(table, udf_remote, ids)
        assert len(submitted) == 4
        assert np.array_equal(np.asarray(expected), np.asarray(got))
        assert udf_remote.counter_snapshot() == udf_serial.counter_snapshot()

    def test_partial_memoization_charges_only_pending(self):
        table = _sharded(n=3000, shards=4, name="pmtab")
        warm = np.arange(0, 1500, dtype=np.intp)
        ids = np.arange(0, 3000, dtype=np.intp)
        udf_serial, udf_remote = _label_udf("pm_a"), _label_udf("pm_b")
        udf_serial.evaluate_rows(table, warm)
        udf_remote.evaluate_rows(table, warm)
        serial_ledger, remote_ledger = CostLedger(free_memoized=True), CostLedger(free_memoized=True)
        expected = udf_serial.evaluate_rows(table, ids, None, serial_ledger)
        executor = ProcessPoolBatchExecutor(max_workers=WORKERS)
        got = executor.evaluate_rows(table, udf_remote, ids, remote_ledger)
        assert np.array_equal(np.asarray(expected), np.asarray(got))
        snap = udf_remote.counter_snapshot()
        assert snap == udf_serial.counter_snapshot()
        assert snap["cache_hits"] >= warm.size  # memo-answered rows kept cached values
        # Charged at settle, under the ledger's serving accounting: only the
        # rows the parent's memo did not know.
        assert remote_ledger.evaluated_count == serial_ledger.evaluated_count == 1500


class TestFallbacks:
    """Every fallback names its reason to the executor's ``on_degraded``."""

    def test_unpicklable_udf_falls_back_with_identical_results(self):
        reasons = []
        table = _sharded(name="lamtab")
        udf_serial = _label_udf("lam_a")
        udf_remote = UserDefinedFunction(
            "lam_b", lambda row: bool(row["f"])  # unpicklable on purpose
        )
        serial, serial_ledger = _execute(table, ParallelBatchExecutor, udf_serial)
        remote, remote_ledger = _execute(
            table,
            partial(ProcessPoolBatchExecutor, on_degraded=reasons.append),
            udf_remote,
            workers=WORKERS,
        )
        assert np.array_equal(
            np.asarray(serial.returned_row_ids),
            np.asarray(remote.returned_row_ids),
        )
        assert remote_ledger.evaluated_count == serial_ledger.evaluated_count
        assert reasons == ["unpicklable_udf"]

    def test_object_dtype_column_falls_back(self):
        reasons = []
        rng = np.random.default_rng(5)
        base = Table.from_columns(
            "objtab",
            {
                "A": [f"a{int(v)}" for v in rng.integers(0, 4, 300)],
                "blob": [object() for _ in range(300)],
                "f": [bool(v) for v in rng.random(300) < 0.5],
            },
            hidden_columns=["f"],
        )
        table = ShardedTable.from_table(base, num_shards=3)
        udf_serial, udf_remote = _func_udf("obj_a"), _func_udf("obj_b")
        serial, serial_ledger = _execute(table, ParallelBatchExecutor, udf_serial)
        remote, remote_ledger = _execute(
            table,
            partial(ProcessPoolBatchExecutor, on_degraded=reasons.append),
            udf_remote,
            workers=WORKERS,
        )
        assert np.array_equal(
            np.asarray(serial.returned_row_ids),
            np.asarray(remote.returned_row_ids),
        )
        assert remote_ledger.evaluated_count == serial_ledger.evaluated_count
        assert reasons == ["unshareable_column"]

    def test_max_workers_one_never_exports(self):
        table = _sharded(name="onetab")
        before = exported_segment_count()
        _execute(table, ProcessPoolBatchExecutor, _label_udf(), workers=1)
        assert exported_segment_count() == before


class TestSharedMemoryLifecycle:
    def test_release_exports_frees_segments(self):
        table = _sharded(name="reltab")
        _execute(table, ProcessPoolBatchExecutor, _label_udf(), workers=WORKERS)
        before = exported_segment_count()
        assert before > 0
        released = release_exports(table)
        assert released >= 4  # one label-column block per shard
        assert exported_segment_count() == before - released
        assert release_exports(table) == 0  # idempotent
