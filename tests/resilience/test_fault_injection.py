"""Deterministic fault injection: every failure is survived or typed.

The differential contract (ISSUE 8 acceptance): under any injected fault —
worker crash, hang, garbage result, export write or worker map error, slow
UDF — a query returns the **bitwise-serial** answer (row ids, ledger
charges, UDF counters, memo content) or a typed error within deadline +
grace.  Retried spans double-charge nothing, and no run leaks an exported
segment file (the conftest fixture asserts that after every test).

Selected by the CI ``chaos`` step via ``-k fault`` (the module name).
"""

import pickle
import time

import numpy as np
import pytest

from leakcheck import exported_files
from repro.core.parallel import ParallelBatchExecutor
from repro.core.plan import ExecutionPlan, GroupDecision
from repro.core.procpool import ProcessPoolBatchExecutor
from repro.db.catalog import Catalog
from repro.db.engine import Engine
from repro.db.predicate import UdfPredicate
from repro.db.query import SelectQuery
from repro.db.sharding import ShardedTable
from repro.db.shm import exported_segment_count
from repro.db.table import Table
from repro.db.udf import CostLedger, RevealLabel, UserDefinedFunction
from repro.resilience import (
    CircuitBreaker,
    Deadline,
    DeadlineExceeded,
    FaultPlan,
    FaultRule,
    InjectedFault,
    deadline_scope,
    fault_scope,
    maybe_fire,
)
from repro.serving import QueryService, ServiceConfig

WORKERS = 2


def _table(n=600, groups=5, seed=11, name="ftab"):
    rng = np.random.default_rng(seed)
    return Table.from_columns(
        name,
        {
            "A": [f"a{int(v)}" for v in rng.integers(0, groups, n)],
            "f": [bool(v) for v in rng.random(n) < 0.45],
        },
        hidden_columns=["f"],
    )


def _sharded(n=600, shards=4, seed=11, name="ftab"):
    return ShardedTable.from_table(_table(n=n, seed=seed, name=name), num_shards=shards)


def _label_udf(name="fudf"):
    return UserDefinedFunction.from_label_column(name, "f")


def _func_udf(name="fyudf"):
    return UserDefinedFunction(name, RevealLabel("f", True))


def _mixed_plan(index):
    regimes = [(0.0, 0.0), (1.0, 1.0), (0.6, 0.0), (1.0, 0.5), (0.7, 0.8)]
    decisions = {}
    for code, value in enumerate(index.values):
        retrieve, evaluate = regimes[code % len(regimes)]
        decisions[value] = GroupDecision(retrieve=retrieve, evaluate=retrieve * evaluate)
    return ExecutionPlan(decisions=decisions)


def _run(table, executor, udf, ledger=None, seed=7):
    index = table.group_index("A")
    plan = _mixed_plan(index)
    ledger = ledger if ledger is not None else CostLedger()
    result = executor.execute(table, index, udf, plan, ledger, seed)
    return result, ledger


def _serial_baseline(table, udf, seed=7):
    return _run(table, ParallelBatchExecutor(), udf, seed=seed)


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


class TestFaultPlanDeterminism:
    def test_rule_validation(self):
        with pytest.raises(ValueError):
            FaultRule(kind="meltdown", probability=0.5)
        with pytest.raises(ValueError):
            FaultRule(kind="crash")  # neither selector
        with pytest.raises(ValueError):
            FaultRule(kind="crash", addresses=frozenset({(0,)}), probability=0.5)
        with pytest.raises(ValueError):
            FaultRule(kind="crash", probability=1.5)
        with pytest.raises(ValueError):
            FaultRule(kind="sleep", probability=0.5, sleep_s=-1.0)

    def test_probability_rules_fire_identically_across_instances(self):
        def fired_set(plan):
            return {
                addr
                for addr in range(50)
                if plan.should_fire("worker", addr, 0) is not None
            }

        rules = {"worker": FaultRule(kind="error", probability=0.3)}
        first = fired_set(FaultPlan(seed=99, rules=rules))
        second = fired_set(FaultPlan(seed=99, rules=rules))
        different = fired_set(FaultPlan(seed=100, rules=rules))
        assert first == second
        assert 0 < len(first) < 50  # the coin actually discriminates
        assert first != different

    def test_pickle_ships_schedule_not_process_state(self):
        plan = FaultPlan(
            seed=5, rules={"udf_eval": FaultRule(kind="error", probability=1.0)}
        )
        assert plan.next_address("udf_eval") == 0
        with pytest.raises(InjectedFault):
            maybe_fire(plan, "udf_eval")
        clone = pickle.loads(pickle.dumps(plan))
        assert clone.seed == plan.seed
        assert clone.rules == dict(plan.rules)
        assert clone.fired() == []  # fresh per-process log
        assert clone.next_address("udf_eval") == 0  # fresh counters

    def test_injected_fault_survives_pickling(self):
        fault = InjectedFault("segment_map", (3,))
        clone = pickle.loads(pickle.dumps(fault))
        assert isinstance(clone, InjectedFault)
        assert clone.site == "segment_map" and clone.address == (3,)

    def test_counter_addresses_are_per_site(self):
        plan = FaultPlan(
            seed=1,
            rules={
                "segment_write": FaultRule(kind="error", addresses=frozenset({(1,)}))
            },
        )
        # Sites without a rule never advance a counter (maybe_fire no-ops).
        assert maybe_fire(plan, "udf_eval") is None
        assert maybe_fire(plan, "segment_write") is None  # hit 0
        with pytest.raises(InjectedFault):
            maybe_fire(plan, "segment_write")  # hit 1 fires
        assert plan.fired() == [("segment_write", (1,), "error")]


class TestWorkerFaults:
    def test_crashed_span_is_retried_to_bitwise_parity(self):
        """One crash at (span 1, attempt 0): the retry round restores parity."""
        table = _sharded(name="crashtab")
        udf_serial, udf_remote = _label_udf("cr_a"), _label_udf("cr_b")
        serial, serial_ledger = _serial_baseline(table, udf_serial)
        plan = FaultPlan(
            seed=0,
            rules={"worker": FaultRule(kind="crash", addresses=frozenset({(1, 0)}))},
        )
        breaker = CircuitBreaker(failure_threshold=100)
        executor = ProcessPoolBatchExecutor(max_workers=WORKERS, breaker=breaker)
        with fault_scope(plan):
            remote, remote_ledger = _run(table, executor, udf_remote)
        _assert_parity(serial, serial_ledger, udf_serial, remote, remote_ledger, udf_remote)
        snap = breaker.snapshot()
        assert snap["retried_spans"] >= 1  # the crash really happened remotely
        assert snap["failures_total"] == 1  # one faulting round
        assert snap["successes_total"] == 1  # the clean retry resets the streak
        assert snap["consecutive_failures"] == 0

    def test_pool_breaking_mid_fan_out_is_a_crashed_span_not_an_error(
        self, monkeypatch
    ):
        """A worker dying while spans are still being submitted breaks the pool
        under the submit loop (seen with a warm pool and an immediate crash):
        the unsubmitted spans must be retried like any crashed span."""
        from concurrent.futures.process import BrokenProcessPool

        from repro.core import procpool

        class BreaksAfterFirstSubmit:
            def __init__(self, pool):
                self.pool, self.submitted = pool, 0

            def submit(self, *args):
                self.submitted += 1
                if self.submitted > 1:
                    raise BrokenProcessPool("a worker died during the fan-out")
                return self.pool.submit(*args)

        real_pool = procpool.shared_process_pool
        handed_out = []

        def pool_that_breaks_once(max_workers):
            pool = real_pool(max_workers)
            handed_out.append(pool)
            return BreaksAfterFirstSubmit(pool) if len(handed_out) == 1 else pool

        monkeypatch.setattr(procpool, "shared_process_pool", pool_that_breaks_once)
        table = _sharded(name="midfantab")
        udf_serial, udf_remote = _label_udf("mf_a"), _label_udf("mf_b")
        serial, serial_ledger = _serial_baseline(table, udf_serial)
        breaker = CircuitBreaker(failure_threshold=100)
        executor = ProcessPoolBatchExecutor(max_workers=WORKERS, breaker=breaker)
        remote, remote_ledger = _run(table, executor, udf_remote)
        _assert_parity(serial, serial_ledger, udf_serial, remote, remote_ledger, udf_remote)
        snap = breaker.snapshot()
        assert snap["retried_spans"] >= 1
        assert snap["failures_total"] == 1 and snap["successes_total"] == 1

    def test_persistent_crash_recomputes_locally_with_exact_charges(self):
        """Every attempt crashes: give up on the pool, stay bitwise-serial."""
        table = _sharded(name="perstab")
        udf_serial, udf_remote = _label_udf("pc_a"), _label_udf("pc_b")
        serial, serial_ledger = _serial_baseline(table, udf_serial)
        plan = FaultPlan(
            seed=0, rules={"worker": FaultRule(kind="crash", probability=1.0)}
        )
        breaker = CircuitBreaker(failure_threshold=100)
        executor = ProcessPoolBatchExecutor(max_workers=WORKERS, breaker=breaker)
        with fault_scope(plan):
            remote, remote_ledger = _run(table, executor, udf_remote)
        _assert_parity(serial, serial_ledger, udf_serial, remote, remote_ledger, udf_remote)
        # Give-up path must have released the suspect exports immediately —
        # not waiting for teardown (the conftest fixture would mask that).
        assert exported_segment_count() == 0
        assert breaker.snapshot()["failures_total"] == 2  # both rounds faulted

    def test_garbage_result_rejected_and_retried(self):
        """A wrong-shaped worker result is discarded before any charge."""
        table = _sharded(name="garbtab")
        udf_serial, udf_remote = _label_udf("gb_a"), _label_udf("gb_b")
        serial, serial_ledger = _serial_baseline(table, udf_serial)
        plan = FaultPlan(
            seed=0,
            rules={"worker": FaultRule(kind="garbage", addresses=frozenset({(0, 0)}))},
        )
        breaker = CircuitBreaker(failure_threshold=100)
        executor = ProcessPoolBatchExecutor(max_workers=WORKERS, breaker=breaker)
        with fault_scope(plan):
            remote, remote_ledger = _run(table, executor, udf_remote)
        _assert_parity(serial, serial_ledger, udf_serial, remote, remote_ledger, udf_remote)
        snap = breaker.snapshot()
        assert snap["retried_spans"] >= 1
        assert snap["last_failure_reason"] == "garbage"

    def test_hung_worker_surfaces_typed_deadline_not_a_wedge(self):
        """Workers sleeping past the deadline: typed error, zero charges,
        zero leaked segments — within deadline + grace, never 5 s."""
        table = _sharded(name="hangtab")
        udf = _label_udf("hg")
        plan = FaultPlan(
            seed=0,
            rules={"worker": FaultRule(kind="hang", probability=1.0, sleep_s=5.0)},
        )
        breaker = CircuitBreaker(failure_threshold=100)
        executor = ProcessPoolBatchExecutor(max_workers=WORKERS, breaker=breaker)
        ledger = CostLedger()
        started = time.perf_counter()
        with fault_scope(plan), deadline_scope(Deadline.after(0.5)):
            with pytest.raises(DeadlineExceeded):
                _run(table, executor, udf, ledger=ledger)
        assert time.perf_counter() - started < 4.0  # grace, not the 5 s sleep
        # Charges happen only at fold; the harvest raised first.
        assert ledger.retrieved_count == 0
        assert ledger.evaluated_count == 0
        assert udf.counter_snapshot()["cache_misses"] == 0
        assert exported_segment_count() == 0
        assert breaker.snapshot()["last_failure_reason"] == "worker_hang"


class TestBulkEvaluationFanFault:
    """Bulk evaluation (the sampling and labelling calls) is a span job.

    ``evaluate_rows`` fans through the same submit, harvest, retry and
    give-up as ``execute``, so it survives the same pool faults with
    serial-identical outcomes, UDF counters (one bulk call) and memo.
    """

    @staticmethod
    def _fan(name, plan=None, breaker=None, before=None):
        """Serial and fanned outcomes of one ``evaluate_rows`` over 3 000 ids.

        ``before(executor, table)`` runs between the two sides, outside the
        fault scope.  Returns the table: its exports live as long as it does.
        """
        table = _sharded(n=3000, name=name)
        ids = np.arange(table.num_rows)
        udf_serial, udf_remote = _label_udf(f"{name}_a"), _label_udf(f"{name}_b")
        expected = udf_serial.evaluate_rows(table, ids)
        executor = ProcessPoolBatchExecutor(max_workers=WORKERS, breaker=breaker)
        if before is not None:
            before(executor, table)
        with fault_scope(plan):
            got = executor.evaluate_rows(table, udf_remote, ids)
        assert np.array_equal(np.asarray(expected), np.asarray(got))
        assert udf_remote.counter_snapshot() == udf_serial.counter_snapshot()
        assert udf_remote.counter_snapshot()["bulk_calls"] == 1
        assert _memo(udf_remote) == _memo(udf_serial)
        return table

    def test_worker_killed_between_calls_is_survived(self):
        """A pool worker SIGKILLed after one fan breaks the cached pool; the
        next fan finds it broken at submit, respawns and retries."""
        import os
        import signal

        from repro.core import procpool

        def warm_then_kill(executor, table):
            executor.evaluate_rows(table, _label_udf("kill_warm"), np.arange(3000))
            pool = procpool.shared_process_pool(WORKERS)
            os.kill(next(iter(pool._processes)), signal.SIGKILL)
            waited = time.perf_counter()
            while not pool._broken and time.perf_counter() - waited < 30.0:
                time.sleep(0.01)
            assert pool._broken  # the next submit raises BrokenProcessPool

        breaker = CircuitBreaker(failure_threshold=100)
        self._fan("killtab", breaker=breaker, before=warm_then_kill)
        snap = breaker.snapshot()
        assert snap["last_failure_reason"] == "worker_crash"
        assert snap["failures_total"] == 1 and snap["retried_spans"] >= 1
        assert snap["successes_total"] == 0  # the fan never vouches for the pool

    @pytest.mark.parametrize(
        "kind, reason", [("crash", "worker_crash"), ("garbage", "garbage")]
    )
    def test_worker_rule_reaches_the_fan_and_is_retried(self, kind, reason):
        """A ``worker`` rule at (span 1, attempt 0) fires in the fan's worker."""
        plan = FaultPlan(
            seed=0,
            rules={"worker": FaultRule(kind=kind, addresses=frozenset({(1, 0)}))},
        )
        breaker = CircuitBreaker(failure_threshold=100)
        self._fan(f"fan{kind}tab", plan=plan, breaker=breaker)
        snap = breaker.snapshot()
        assert snap["last_failure_reason"] == reason
        assert snap["failures_total"] == 1 and snap["retried_spans"] >= 1
        assert snap["successes_total"] == 0

    def test_span_failing_twice_releases_exports_and_runs_in_process(self):
        """Both attempts of span 1 return garbage: give up on the pool,
        release the exports at once, and evaluate the whole call in-process
        as one bulk call."""
        plan = FaultPlan(
            seed=0,
            rules={
                "worker": FaultRule(
                    kind="garbage", addresses=frozenset({(1, 0), (1, 1)})
                )
            },
        )
        breaker = CircuitBreaker(failure_threshold=100)
        table = self._fan("fangiveuptab", plan=plan, breaker=breaker)
        # Released by the give-up while ``table`` still lives, not by its
        # collection or by teardown (either would mask the leak).
        assert exported_segment_count() == 0
        del table
        snap = breaker.snapshot()
        assert snap["failures_total"] == 2  # both rounds faulted
        assert snap["last_failure_reason"] == "garbage"


class UpstreamFails:
    """A picklable UDF whose labelling service fails on one row."""

    def __init__(self, bad_marker, error):
        self.bad_marker = bad_marker
        self.error = error

    def __call__(self, row):
        if row["A"] == self.bad_marker:
            raise self.error("upstream labelling service failed")
        return bool(row["f"])


class TestWorkerRaisedTimeoutFault:
    """A worker that *raised* an ``OSError`` of the UDF's own is no pool fault.

    ``concurrent.futures.TimeoutError is TimeoutError`` since Python 3.11,
    so the parent's "the wait timed out" handler also sees a
    ``TimeoutError`` the UDF raised inside a worker; a
    ``ConnectionRefusedError`` (a labelling service that is down) is an
    ``OSError`` too.  Both must take the fatal path — the caller gets the
    UDF's own error, as from the serial and inline paths — and must not be
    treated as a hang or a transient fault: the healthy pool stays cached,
    the exports stay on disk, nothing is retried, the breaker hears nothing,
    and with a deadline armed it is not misreported as ``DeadlineExceeded``.
    """

    @staticmethod
    def _poisoned(name, n=600):
        plain = _table(n=n, name=name)
        keys = list(plain.column_array("A"))
        keys[n // 2] = "poison"  # one row, inside the second of four spans
        table = Table.from_columns(
            name,
            {"A": keys, "f": list(plain.column_array("f", allow_hidden=True))},
            hidden_columns=["f"],
        )
        return ShardedTable.from_table(table, num_shards=4)

    @pytest.mark.parametrize("armed", [False, True], ids=["no_deadline", "deadline_armed"])
    @pytest.mark.parametrize("entry", ["execute", "evaluate_rows"])
    @pytest.mark.parametrize(
        "error", [TimeoutError, ConnectionRefusedError], ids=lambda error: error.__name__
    )
    def test_udf_timeout_error_reaches_the_caller(self, error, entry, armed):
        from repro.core import procpool
        from repro.db.shm import release_exports

        name = f"{error.__name__}_{entry}_{int(armed)}"
        table = self._poisoned(f"tmo_{name}", n=600 if entry == "execute" else 3000)
        udf = UserDefinedFunction(f"tmo_udf_{name}", UpstreamFails("poison", error))
        breaker = CircuitBreaker(failure_threshold=100)
        executor = ProcessPoolBatchExecutor(max_workers=WORKERS, breaker=breaker)
        pool_before = procpool.shared_process_pool(WORKERS)
        ledger = CostLedger()
        with deadline_scope(Deadline.after(60.0) if armed else None):
            with pytest.raises(error, match="upstream labelling service"):
                if entry == "execute":
                    index = table.group_index("A")
                    everything = ExecutionPlan(
                        {key: GroupDecision(retrieve=1.0, evaluate=1.0) for key in index}
                    )
                    executor.execute(table, index, udf, everything, ledger, 0)
                else:
                    executor.evaluate_rows(table, udf, np.arange(table.num_rows))
        assert procpool.shared_process_pool(WORKERS) is pool_before  # not discarded
        assert exported_segment_count() > 0  # not released as if a worker hung
        snap = breaker.snapshot()
        assert snap["failures_total"] == 0 and snap["last_failure_reason"] is None
        # Fatal before any fold: nothing charged, nothing absorbed.
        assert ledger.retrieved_count == 0 and ledger.evaluated_count == 0
        assert udf.counter_snapshot()["cache_misses"] == 0
        release_exports(table)
        assert exported_segment_count() == 0


class TestSegmentFileFaults:
    def test_export_write_fault_falls_back_in_process(self):
        """The very first export file write tears: serve in-process, bitwise."""
        table = _sharded(name="exptab")
        udf_serial, udf_remote = _label_udf("ex_a"), _label_udf("ex_b")
        serial, serial_ledger = _serial_baseline(table, udf_serial)
        plan = FaultPlan(
            seed=0,
            rules={"segment_write": FaultRule(kind="error", addresses=frozenset({(0,)}))},
        )
        breaker = CircuitBreaker(failure_threshold=100)
        executor = ProcessPoolBatchExecutor(max_workers=WORKERS, breaker=breaker)
        with fault_scope(plan):
            remote, remote_ledger = _run(table, executor, udf_remote)
        assert plan.fired() == [("segment_write", (0,), "error")]
        _assert_parity(serial, serial_ledger, udf_serial, remote, remote_ledger, udf_remote)
        snap = breaker.snapshot()
        assert snap["failures_total"] == 1
        assert snap["last_failure_reason"] == "segment_write"
        assert exported_segment_count() == 0
        # The torn write's temp file went with it.
        assert not [path for path in exported_files() if path.endswith(".tmp")]

    def test_map_fault_in_worker_is_retried(self):
        """Each worker's first map fails; the retry (counters advanced)
        succeeds on the same warm pool — parity, no respawn needed."""
        table = _sharded(name="atttab")
        udf_serial, udf_remote = _label_udf("at_a"), _label_udf("at_b")
        serial, serial_ledger = _serial_baseline(table, udf_serial)
        plan = FaultPlan(
            seed=0,
            rules={"segment_map": FaultRule(kind="error", addresses=frozenset({(0,)}))},
        )
        breaker = CircuitBreaker(failure_threshold=100)
        executor = ProcessPoolBatchExecutor(max_workers=WORKERS, breaker=breaker)
        with fault_scope(plan):
            remote, remote_ledger = _run(table, executor, udf_remote)
        _assert_parity(serial, serial_ledger, udf_serial, remote, remote_ledger, udf_remote)
        snap = breaker.snapshot()
        assert snap["retried_spans"] >= 1
        assert snap["last_failure_reason"] == "segment_map"


class TestServiceUnderFaults:
    def _service(self, name, udf):
        catalog = Catalog()
        catalog.register_table(_table(name=name))
        catalog.register_udf(udf)
        return QueryService(Engine(catalog))

    def _query(self, udf, table):
        return SelectQuery(
            table=table,
            predicate=UdfPredicate(udf),
            alpha=0.7,
            beta=0.7,
            rho=0.8,
            correlated_column="A",
        )

    def test_slow_udf_hits_the_request_deadline(self):
        """A sleep injected into every UDF evaluation round trips the
        cooperative checks between rounds: typed error, bounded latency."""
        udf = _func_udf("slowf")
        service = self._service("slowtab", udf)
        plan = FaultPlan(
            seed=0,
            rules={"udf_eval": FaultRule(kind="sleep", probability=1.0, sleep_s=0.06)},
        )
        started = time.perf_counter()
        with fault_scope(plan):
            with pytest.raises(DeadlineExceeded):
                service.submit(self._query(udf, "slowtab"), seed=1, timeout_s=0.15)
        assert time.perf_counter() - started < 4.0
        assert service.stats().serving["deadline_exceeded"] == 1

    def test_udf_sleep_below_deadline_is_bitwise_invisible(self):
        """Slowness that stays inside the deadline changes nothing."""
        udf_a = _func_udf("calm_a")
        udf_b = _func_udf("calm_b")
        plain_service = self._service("calmtab", udf_a)
        slow_service = self._service("calmtab", udf_b)
        plain = plain_service.submit(self._query(udf_a, "calmtab"), seed=4)
        plan = FaultPlan(
            seed=0,
            rules={"udf_eval": FaultRule(kind="sleep", probability=0.2, sleep_s=0.005)},
        )
        with fault_scope(plan):
            slow = slow_service.submit(
                self._query(udf_b, "calmtab"), seed=4, timeout_s=60.0
            )
        assert np.array_equal(np.asarray(plain.row_ids), np.asarray(slow.row_ids))
        assert slow.ledger.total_cost == plain.ledger.total_cost
