"""Process-pool plan execution over shared-memory shards.

:class:`ProcessPoolBatchExecutor` is the multi-core sibling of
:class:`~repro.core.parallel.ParallelBatchExecutor`.  Threads only help while
the per-span work stays inside GIL-releasing NumPy kernels; the moment the
UDF is a python callable evaluated row by row — the paper's whole premise is
that this is the expensive part — a thread pool serialises on the GIL and
runs *slower* than serial.  This executor fans the same span tasks across a
spawn-based process pool instead:

* **Zero-copy inputs** — sealed shard columns are exported once into
  :mod:`multiprocessing.shared_memory` segments (:mod:`repro.db.shm`);
  workers attach numpy views on first touch and reuse them for every later
  task, so per-task pickle traffic is row ids, not column data.
* **Stateless workers** — a worker receives the execution root key, its
  span's :class:`~repro.core.parallel._GroupSegment` tasks and a picklable
  :class:`~repro.db.udf.UdfSpec`; it flips the counter-based coins, evaluates
  the UDF locally (every pending row fresh — it has no memo cache), and
  ships back outcomes plus the folded per-group counts.
* **Parent-side accounting** — the parent replays, span by span in span
  order, exactly what serial execution would have charged: ledger retrieval
  and evaluation charges under the ledger lock (``free_memoized`` consults
  the parent's memo), then
  :meth:`~repro.db.udf.UserDefinedFunction.merge_remote_evaluations` to
  absorb outcomes into the memo cache with serial-identical counter
  advances.  A hard budget trips at the same span boundary as serial, and
  later spans are never absorbed.

Because the PR-4 coin discipline makes every coin a pure function of
(seed, group, position) and UDF outcomes are deterministic, results and every
gated work counter are **bitwise identical** to the serial and thread paths.

Anything that cannot cross the process boundary degrades gracefully to the
inherited in-process path (bitwise-identical results, just not multi-core):
unpicklable UDF callables, object-dtype columns, single-span tables,
``max_workers=1``, and a broken pool (a worker killed by the OOM killer)
all fall back, each counted on
``repro_executor_fallbacks_total{backend=process, reason=...}``.

Resilience (PR 8).  Transient pool faults are survived at *span*
granularity: a span whose worker died, returned a wrong-shaped result or
hit a shared-memory error is retried exactly once against a respawned
pool, and a span that still fails is recomputed in-process **at its serial
position in the fold loop** — charges only ever happen at fold time, in
span-index order, so a retried or locally recomputed span double-charges
nothing and budget boundaries stay bitwise-serial.  Each faulting round is
reported to the service's :class:`~repro.resilience.breaker.CircuitBreaker`
(when one is wired in), which eventually degrades the whole service to the
thread executor.  Harvest waits are bounded by the request's
:class:`~repro.resilience.deadline.Deadline`, so a *hung* worker surfaces
as a typed ``DeadlineExceeded`` — the pool is discarded and the table's
shared-memory exports are released (no leaked segments), never a wedged
request.  The failure paths themselves are exercised deterministically via
:mod:`repro.resilience.faults`; the active :class:`FaultPlan` ships inside
worker task payloads so worker-side sites fire in the right process.
"""

from __future__ import annotations

import multiprocessing
import threading
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.executor import ExecutionResult, GroupExecutionCounts, _sampled_positives
from repro.core.parallel import (
    _MIN_PARALLEL_EVAL_ROWS,
    ParallelBatchExecutor,
    _GroupSegment,
    _SpanOutcome,
    _table_spans,
    build_span_tasks,
    concat_to_evaluate,
    fold_span_outcomes,
    merge_span_outcomes,
    span_coin_pass,
)
from repro.core.plan import ExecutionPlan
from repro.db.errors import StorageError, UnpicklableUdfError
from repro.db.index import GroupIndex
from repro.db.shm import (
    SpanExport,
    UnshareableColumnError,
    attach_array,
    export_table_spans,
    release_exports,
)
from repro.db.table import Table
from repro.db.udf import CostLedger, UdfSpec, UserDefinedFunction
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.resilience import faults as _faults
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.deadline import (
    DeadlineExceeded,
    check_deadline,
    current_deadline,
)
from repro.sampling.sampler import SampleOutcome

_PROC_POOLS: Dict[int, ProcessPoolExecutor] = {}
_PROC_POOLS_LOCK = threading.Lock()


def shared_process_pool(max_workers: int) -> ProcessPoolExecutor:
    """A process-wide spawn pool per worker bound (created lazily).

    Spawn (not fork): workers must not inherit the parent's locks, pools, or
    open trace state, and spawn children share the parent's resource tracker,
    which is what makes the shared-memory cleanup story in
    :mod:`repro.db.shm` single-owner.  Workers are reused across queries, so
    the interpreter start-up cost is paid once per worker bound.
    """
    if max_workers < 1:
        raise ValueError(f"max_workers must be positive, got {max_workers}")
    pool = _PROC_POOLS.get(max_workers)
    if pool is None:
        with _PROC_POOLS_LOCK:
            pool = _PROC_POOLS.get(max_workers)
            if pool is None:
                pool = ProcessPoolExecutor(
                    max_workers=max_workers,
                    mp_context=multiprocessing.get_context("spawn"),
                )
                _PROC_POOLS[max_workers] = pool
    return pool


def _discard_process_pool(max_workers: int) -> None:
    """Drop (and shut down) a broken cached pool so the next use respawns."""
    with _PROC_POOLS_LOCK:
        pool = _PROC_POOLS.pop(max_workers, None)
    if pool is not None:
        pool.shutdown(wait=False, cancel_futures=True)


@dataclass
class _RemoteSpan:
    """What a worker process ships back for one span.

    ``outcome.evaluated_charge`` is left at 0 — the *parent* computes the
    charge (it owns the memo cache that ``free_memoized`` consults) while
    folding.  ``to_evaluate``/``outcomes`` feed
    :meth:`~repro.db.udf.UserDefinedFunction.merge_remote_evaluations`.
    """

    span_index: int
    outcome: _SpanOutcome
    to_evaluate: np.ndarray
    outcomes: np.ndarray


def spec_evaluate(
    spec: UdfSpec, exports: Sequence[SpanExport], row_ids: np.ndarray
) -> np.ndarray:
    """Evaluate a :class:`UdfSpec` on global ``row_ids`` via shared memory.

    Runs in worker processes (and in the pickle-safety check): attaches the
    needed column blocks, then either takes the vectorised label fast path or
    builds python row dicts and calls ``spec.func`` — the exact evaluation
    the parent's ``UserDefinedFunction`` would have performed for
    un-memoised rows.  Row dict values are python scalars (one
    ``ndarray.tolist`` per needed column slice), matching ``Table.row``
    fidelity.
    """
    result = np.empty(row_ids.size, dtype=bool)
    if not row_ids.size:
        return result
    starts = np.asarray([export.start for export in exports], dtype=np.intp)
    span_positions = np.searchsorted(starts, row_ids, side="right") - 1
    for position in np.unique(span_positions):
        export = exports[int(position)]
        mask = span_positions == position
        local = row_ids[mask] - export.start
        if spec.func is None:
            labels = attach_array(export.columns[spec.label_column])
            result[mask] = labels[local] == spec.positive_value
        else:
            cells = [attach_array(block)[local].tolist() for block in export.columns.values()]
            result[mask] = np.fromiter(
                (bool(spec.func(dict(zip(export.columns, row)))) for row in zip(*cells)),
                dtype=bool,
                count=int(local.size),
            )
    return result


def _remote_run_span(
    root: int,
    span_index: int,
    tasks: List[_GroupSegment],
    spec: UdfSpec,
    exports: Tuple[SpanExport, ...],
    fault_plan: Optional[_faults.FaultPlan] = None,
    attempt: int = 0,
) -> _RemoteSpan:
    """Worker entry point: coins, local UDF evaluation, local fold.

    ``fault_plan`` re-activates the parent's plan in this process (spawned
    workers inherit nothing) so the worker-side sites fire here; ``attempt``
    is part of the ``worker`` site's address, so a first-attempt-only crash
    rule lets the retried span succeed.
    """
    with _faults.fault_scope(fault_plan):
        kind = _faults.maybe_fire(fault_plan, "worker", span_index, attempt)
        retrieved_per_task, evaluate_per_task, total_retrieved = span_coin_pass(
            root, tasks
        )
        to_evaluate = concat_to_evaluate(retrieved_per_task, evaluate_per_task)
        outcomes = spec_evaluate(spec, exports, to_evaluate)
        returned, counts = fold_span_outcomes(
            tasks, retrieved_per_task, evaluate_per_task, outcomes
        )
        if kind == _faults.GARBAGE:
            # Ship a wrong-shaped outcome array: the parent's shape check
            # rejects the whole span before anything is charged or absorbed.
            outcomes = outcomes[:-1] if outcomes.size else np.zeros(1, dtype=bool)
        return _RemoteSpan(
            span_index=span_index,
            outcome=_SpanOutcome(
                returned=returned, counts=counts, retrieved=total_retrieved
            ),
            to_evaluate=to_evaluate,
            outcomes=outcomes,
        )


def _submit_span(pool: ProcessPoolExecutor, *args) -> Future:
    """Submit one span; a pool already broken is reported through the future.

    A worker that dies while the parent is still fanning spans out (a warm
    pool, a crash on the first span) breaks the pool mid-loop, and ``submit``
    then raises instead of returning a future.  Harvest already classifies
    ``BrokenProcessPool`` as a transient ``worker_crash``; hand it one.
    """
    try:
        return pool.submit(_remote_run_span, *args)
    except BrokenProcessPool as exc:
        future: Future = Future()
        future.set_exception(exc)
        return future


def _remote_evaluate(
    spec: UdfSpec,
    exports: Tuple[SpanExport, ...],
    row_ids: np.ndarray,
    fault_plan: Optional[_faults.FaultPlan] = None,
) -> np.ndarray:
    """Worker entry point for the bulk-evaluation (sampling/labelling) fan."""
    with _faults.fault_scope(fault_plan):
        return spec_evaluate(spec, exports, row_ids)


class ProcessPoolBatchExecutor(ParallelBatchExecutor):
    """Span-parallel executor running UDF evaluation in worker processes.

    Same results, same gated counters as :class:`ParallelBatchExecutor` —
    only the wall-clock differs: python-callable UDFs scale with cores
    instead of serialising on the GIL.  See the module docstring for the
    division of labour between workers and the parent, and for the fault
    handling added in PR 8 (span retry, breaker reporting, deadline-bounded
    harvest, export release on give-up).
    """

    def __init__(
        self,
        random_state=None,
        max_workers: Optional[int] = None,
        free_memoized: bool = False,
        breaker: Optional[CircuitBreaker] = None,
        retry_spans: bool = True,
    ):
        super().__init__(
            random_state=random_state,
            max_workers=max_workers,
            free_memoized=free_memoized,
        )
        #: The serving layer's circuit breaker, shared across this service's
        #: executors; ``None`` standalone — every note below no-ops then.
        self.breaker = breaker
        #: Retry transiently failed spans once against a respawned pool
        #: before recomputing them in-process.
        self.retry_spans = retry_spans

    def _fallback(self, reason: str) -> None:
        _metrics.counter(
            "repro_executor_fallbacks_total", backend="process", reason=reason
        ).inc()

    def _note_failure(self, reason: str) -> None:
        if self.breaker is not None:
            self.breaker.record_failure(reason)

    def _note_success(self) -> None:
        if self.breaker is not None:
            self.breaker.record_success()

    def _cancel_probe(self) -> None:
        """Release a half-open probe slot this run consumed but never used.

        Non-remote paths (single span, fallback before any worker ran) say
        nothing about pool health, so they must neither close nor re-open
        the breaker — just hand the probe back.
        """
        if self.breaker is not None:
            self.breaker.cancel_probe()

    def _prepare_remote(
        self, table: Table, udf: UserDefinedFunction
    ) -> Optional[Tuple[UdfSpec, Tuple[SpanExport, ...]]]:
        """The picklable spec + span exports, or ``None`` to fall back.

        Residency-managed durable tables export by segment-file coordinates
        (workers ``np.memmap`` the committed payload directly — no
        shared-memory copy, and the parent keeps sole charge of residency);
        everything else takes the shared-memory export path.
        """
        try:
            spec = udf.worker_spec()
        except UnpicklableUdfError:
            self._fallback("unpicklable_udf")
            return None
        if spec.func is None:
            if not table.schema.has_column(spec.label_column):
                # The serial path would use the callable fallback for this
                # table; workers only hold the spec, so stay in-process.
                self._fallback("label_column_missing")
                return None
            columns = [spec.label_column]
        else:
            columns = table.schema.column_names
        try:
            from repro.db.residency import durable_span_exports

            exports = durable_span_exports(table, columns)
        except (StorageError, _faults.InjectedFault, OSError):
            # Verification-time map trouble: note it and serve in-process
            # (the table's own map breaker handles repeated failures).
            self._note_failure("segment_map")
            self._fallback("segment_map")
            return None
        if exports is not None:
            _metrics.counter(
                "repro_executor_direct_attach_total", backend="process"
            ).inc()
            return spec, exports
        try:
            exports = export_table_spans(table, columns)
        except UnshareableColumnError:
            self._fallback("unshareable_column")
            return None
        except (_faults.InjectedFault, OSError):
            # Transient: /dev/shm exhaustion (or its injected stand-in).
            # Note it on the breaker and serve this query in-process.
            self._note_failure("shm_export")
            self._fallback("shm_export")
            return None
        return spec, exports

    def evaluate_rows(
        self, table: Table, udf: UserDefinedFunction, row_ids: Sequence[int]
    ) -> np.ndarray:
        """Evaluate ``udf`` on ``row_ids``, fanned across worker processes.

        Workers evaluate span-partitioned chunks fresh; the parent then folds
        everything through one :meth:`merge_remote_evaluations`, so the memo
        cache and every UDF counter advance exactly as one serial
        ``udf.evaluate_rows`` call would (one bulk call — unlike the thread
        path, which pays one per span chunk).
        """
        ids = np.asarray(row_ids, dtype=np.intp)
        spans = _table_spans(table)
        if (
            self.max_workers == 1
            or len(spans) <= 2  # a single span
            or ids.size < _MIN_PARALLEL_EVAL_ROWS
        ):
            return udf.evaluate_rows(table, ids)
        prepared = self._prepare_remote(table, udf)
        if prepared is None:
            return super().evaluate_rows(table, udf, ids)
        spec, exports = prepared
        masks = []
        for start, stop in zip(spans, spans[1:]):
            mask = (ids >= start) & (ids < stop)
            if mask.any():
                masks.append(mask)
        if len(masks) <= 1:
            return udf.evaluate_rows(table, ids)
        pool = shared_process_pool(self.max_workers)
        fault_plan = _faults.active_plan()
        futures = [
            pool.submit(_remote_evaluate, spec, exports, ids[mask], fault_plan)
            for mask in masks
        ]
        outcomes = np.empty(ids.size, dtype=bool)
        deadline = current_deadline()
        try:
            for mask, future in zip(masks, futures):
                if deadline is None:
                    outcomes[mask] = future.result()
                else:
                    remaining = deadline.remaining()
                    if remaining <= 0.0:
                        raise FuturesTimeout()
                    outcomes[mask] = future.result(timeout=remaining)
        except FuturesTimeout:
            # A hung worker cannot be interrupted; abandon the whole pool
            # (and its exports — no leaked segments) and surface the typed
            # deadline error within deadline + scheduling grace.
            for pending in futures:
                pending.cancel()
            _discard_process_pool(self.max_workers)
            release_exports(table)
            self._note_failure("worker_hang")
            self._fallback("worker_hang")
            raise DeadlineExceeded(deadline.timeout_s, "process-pool evaluate")
        except BrokenProcessPool:
            _discard_process_pool(self.max_workers)
            release_exports(table)
            self._note_failure("worker_crash")
            self._fallback("broken_pool")
            return super().evaluate_rows(table, udf, ids)
        except (_faults.InjectedFault, OSError):
            self._note_failure("shm_attach")
            self._fallback("shm_attach")
            return super().evaluate_rows(table, udf, ids)
        return udf.merge_remote_evaluations(ids, outcomes)

    def _harvest_spans(
        self,
        futures: Dict[int, "object"],
        results: Dict[int, _RemoteSpan],
        table: Table,
    ) -> Dict[int, str]:
        """Drain span futures into ``results``; classify transient failures.

        Returns ``{span_index: reason}`` for spans that failed transiently
        (worker crash, shm attach error, wrong-shaped result).  Fatal errors
        re-raise only after every future has settled — nothing mutates the
        ledger or memo until folding, so an abort leaves parent state
        untouched.  With an active deadline every wait is bounded by the
        remaining time: a *hung* worker abandons the pool (discard, cancel,
        release this table's exports — no leaked segments) and raises the
        typed ``DeadlineExceeded`` instead of wedging the request.
        """
        deadline = current_deadline()
        failed: Dict[int, str] = {}
        fatal: Optional[BaseException] = None
        broken = False
        for span_index, future in futures.items():
            try:
                if deadline is None:
                    span = future.result()
                else:
                    remaining = deadline.remaining()
                    if remaining <= 0.0:
                        raise FuturesTimeout()
                    span = future.result(timeout=remaining)
            except FuturesTimeout:
                for pending in futures.values():
                    pending.cancel()
                _discard_process_pool(self.max_workers)
                release_exports(table)
                self._note_failure("worker_hang")
                self._fallback("worker_hang")
                raise DeadlineExceeded(deadline.timeout_s, "process-pool harvest")
            except BrokenProcessPool:
                broken = True
                failed[span_index] = "worker_crash"
            except (_faults.InjectedFault, OSError):
                failed[span_index] = "shm_attach"
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                if fatal is None:
                    fatal = exc
            else:
                if span.outcomes.shape != span.to_evaluate.shape:
                    failed[span_index] = "garbage"
                else:
                    results[span_index] = span
        if broken:
            _discard_process_pool(self.max_workers)
        if fatal is not None:
            raise fatal
        return failed

    def _run_remote_spans(
        self,
        active: List[Tuple[int, List[_GroupSegment]]],
        root: int,
        spec: UdfSpec,
        exports: Tuple[SpanExport, ...],
        table: Table,
    ) -> Tuple[Dict[int, _RemoteSpan], Set[int]]:
        """Fan spans to the pool; retry transient failures exactly once.

        Returns successful spans by index plus the indices that must be
        recomputed in-process at fold time.  Each faulting round notes one
        failure on the breaker; a fully clean remote run notes a success.
        Retried spans re-flip the same counter-addressed coins, and charges
        only happen at fold — so a retry can never double-charge.
        """
        fault_plan = _faults.active_plan()
        results: Dict[int, _RemoteSpan] = {}
        pool = shared_process_pool(self.max_workers)
        futures = {
            span_index: _submit_span(
                pool, root, span_index, tasks, spec, exports, fault_plan, 0
            )
            for span_index, tasks in active
        }
        failed = self._harvest_spans(futures, results, table)
        if failed:
            self._note_failure(sorted(failed.values())[0])
            if self.retry_spans:
                # Retry against a (re)spawned pool.  Exports stay linked
                # until a give-up: unlinking here would strand the fresh
                # workers' attaches.
                tasks_by_index = dict(active)
                pool = shared_process_pool(self.max_workers)
                retry_futures = {
                    span_index: _submit_span(
                        pool,
                        root,
                        span_index,
                        tasks_by_index[span_index],
                        spec,
                        exports,
                        fault_plan,
                        1,
                    )
                    for span_index in sorted(failed)
                }
                _metrics.counter(
                    "repro_executor_retried_spans_total", backend="process"
                ).inc(len(retry_futures))
                if self.breaker is not None:
                    self.breaker.record_retry(len(retry_futures))
                failed = self._harvest_spans(retry_futures, results, table)
                if failed:
                    self._note_failure(sorted(failed.values())[0])
        if failed:
            # Give up on the pool for these spans: they recompute in-process
            # at fold time, and the suspect exports must not outlive the
            # failure (the leak-check invariant: zero segments after
            # teardown, even on degraded paths).
            self._fallback(sorted(failed.values())[0])
            release_exports(table)
        elif results:
            self._note_success()
        return results, set(failed)

    def execute(
        self,
        table: Table,
        index: GroupIndex,
        udf: UserDefinedFunction,
        plan: ExecutionPlan,
        ledger: CostLedger,
        sample_outcome: Optional[SampleOutcome] = None,
    ) -> ExecutionResult:
        """Run ``plan`` with span workers in processes (see module doc)."""
        if self.max_workers == 1:
            self._cancel_probe()
            return super().execute(table, index, udf, plan, ledger, sample_outcome)
        prepared = self._prepare_remote(table, udf)
        if prepared is None:
            self._cancel_probe()
            return super().execute(table, index, udf, plan, ledger, sample_outcome)
        spec, exports = prepared

        _metrics.counter("repro_executor_runs_total", backend="process").inc()
        root = int(self.random_state.integers(0, 2**63))
        sampled_ids, free_positives = _sampled_positives(sample_outcome)
        span_tasks, group_counts = build_span_tasks(index, plan, sampled_ids)
        active = [
            (span_index, tasks)
            for span_index, tasks in enumerate(span_tasks)
            if tasks
        ]

        if len(active) <= 1:
            self._cancel_probe()
            outcomes = [
                self._run_span_traced(span_index, root, table, udf, ledger, tasks)
                for span_index, tasks in active
            ]
            returned = merge_span_outcomes(index, outcomes, group_counts, free_positives)
            return ExecutionResult(
                returned_row_ids=returned, ledger=ledger, group_counts=group_counts
            )

        remote, failed = self._run_remote_spans(active, root, spec, exports, table)

        # Fold in span-index order (the submit order), replaying serial
        # charging: retrieval then evaluation per span, under the ledger
        # lock, *before* that span's outcomes are absorbed — so a hard
        # budget raises at exactly the span boundary the serial loop would,
        # with no later span absorbed.  A span the pool failed twice is
        # recomputed in-process *here, at its serial position* (it charges
        # internally), so the charge order — and any budget trip point —
        # stays bitwise-serial whether or not faults occurred.
        outcomes = []
        for span_index, tasks in active:
            check_deadline("process-fold")
            if span_index in failed:
                outcomes.append(
                    self._run_span_traced(span_index, root, table, udf, ledger, tasks)
                )
                continue
            span = remote[span_index]
            with _trace.span(f"shard:{span.span_index}") as shard_span:
                evaluated_charge = 0
                with self._ledger_lock:
                    if span.outcome.retrieved:
                        ledger.charge_retrieval(span.outcome.retrieved)
                    if span.to_evaluate.size:
                        if self.free_memoized:
                            evaluated_charge = int(span.to_evaluate.size) - int(
                                udf.memoized_mask(span.to_evaluate).sum()
                            )
                        else:
                            evaluated_charge = int(span.to_evaluate.size)
                        if evaluated_charge:
                            ledger.charge_evaluation(evaluated_charge)
                if span.to_evaluate.size:
                    udf.merge_remote_evaluations(span.to_evaluate, span.outcomes)
                span.outcome.evaluated_charge = evaluated_charge
                shard_span.add("retrievals", span.outcome.retrieved)
                shard_span.add("udf_evals", evaluated_charge)
                shard_span.annotate("groups", len(span.outcome.counts))
            outcomes.append(span.outcome)

        returned = merge_span_outcomes(index, outcomes, group_counts, free_positives)
        return ExecutionResult(
            returned_row_ids=returned, ledger=ledger, group_counts=group_counts
        )
