"""Process-pool plan execution over memory-mapped segment files.

:class:`ProcessPoolBatchExecutor` is the second placement of the span
kernel (:mod:`repro.core.parallel`: inline on the calling thread, or worker
processes) and the repository's only multi-core one: a UDF that is a python
callable evaluated row by row — the paper's whole premise is that this is
the expensive part — holds the interpreter lock, so only processes run it
on more than one core.  It inherits the whole skeleton (shared candidate
frame, the parent's coins, span tasks, merge) and supplies only "where the
spans are evaluated": its own :meth:`~ProcessPoolBatchExecutor.execute` is
the prepare-or-fall-back guard in front of it, and
:meth:`~ProcessPoolBatchExecutor._run_process_spans` sends each span's
picked rows to a spawn-based process pool.

There is one fan-out and one payload.  A worker gets a span's row ids and
sends back one boolean outcome per id, whether the ids are a plan span's
picked rows or a span's share of a bulk evaluation — the sampling and
labelling calls, :meth:`~ProcessPoolBatchExecutor.evaluate_rows`, whose ids
are cut at the span bounds.  Both entry points share one preamble, one
worker entry (:func:`_remote_run_span`), one submit (:func:`_submit_span`),
one harvest and one retry-then-give-up loop
(:meth:`~ProcessPoolBatchExecutor._run_remote_spans`).

* **Zero-copy inputs** — every column a worker reads is a segment file
  (:mod:`repro.db.shm`): a durable table's committed segment, or one
  written once into the process's export directory on tmpfs; workers
  ``np.memmap`` it on first touch and reuse the map for every later task,
  so per-task pickle traffic is row ids, not column data.
* **Stateless workers** — a worker holds no coins, no memo and no ledger:
  it receives row ids and a picklable :class:`~repro.db.udf.UdfSpec`,
  evaluates every id fresh and ships the outcomes back.  The coins were
  flipped in the parent (:func:`~repro.core.parallel.build_span_tasks`),
  so already-sampled and unretrieved rows never cross the process
  boundary, and a span with nothing to evaluate needs no worker.
* **Parent-side accounting** — the parent settles, span by span in span
  order, exactly what the inline path would have charged: the span's
  retrievals, then one
  :meth:`~repro.db.udf.UserDefinedFunction.merge_remote_evaluations` — the
  inline path's one memo read, which charges the evaluations under the
  ledger's accounting (serving accounting consults the parent's memo)
  before it absorbs the outcomes into the memo cache with serial-identical
  counter advances — then the same fold.  A hard budget trips at the same
  span boundary as inline, and later spans are never absorbed.

Because the coins are the parent's and UDF outcomes are deterministic,
results and every gated work counter are **bitwise identical** to the
inline path, and the rows and ledger counts to
:class:`~repro.core.executor.BatchExecutor`'s for the same seed.

Anything that cannot cross the process boundary degrades gracefully to the
inherited in-process path (bitwise-identical results, just not multi-core):
unpicklable UDF callables, object-dtype columns, single-span tables,
``max_workers=1``, and a broken pool (a worker killed by the OOM killer)
all fall back, each counted on
``repro_executor_fallbacks_total{backend=process, reason=...}``.

Resilience (PR 8).  Transient pool faults are survived at *span*
granularity: a span whose worker died, returned a wrong-shaped result or
could not map a segment file is retried exactly once against a respawned
pool, and a span that still fails is evaluated in-process **at its serial
position in the settle loop** — charges only ever happen when a span is
settled, in span-index order, so a retried or locally recomputed span
double-charges nothing and budget boundaries stay bitwise-serial; a bulk
evaluation with
such a span runs whole in-process instead.  Each faulting round is
reported to the service's :class:`~repro.resilience.breaker.CircuitBreaker`
(when one is wired in), which eventually degrades the whole service to the
inline path.  The breaker is asked exactly where the pool is about to be
used — :meth:`~ProcessPoolBatchExecutor.execute` and
:meth:`~ProcessPoolBatchExecutor.evaluate_rows`, never the constructor — so
building an executor (the pipeline builds a throwaway one just to bind its
``evaluate_rows``) can neither take nor leak a half-open probe slot; a
refused call runs the inherited in-process path and says so through
``on_degraded``.  Every wait on a worker goes through one
:meth:`~ProcessPoolBatchExecutor._await`, bounded by the request's
:class:`~repro.resilience.deadline.Deadline`, so a *hung* worker surfaces
as a typed ``DeadlineExceeded`` — the pool is discarded and the table's
exported files are removed, never a wedged request — while an exception
the worker itself raised (a UDF's own ``TimeoutError`` or
``ConnectionRefusedError`` included) reaches the caller as it would from
the serial and inline paths.  The failure paths themselves are exercised
deterministically via :mod:`repro.resilience.faults`; the active
:class:`FaultPlan` ships inside worker task payloads so worker-side sites
fire in the right process.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from functools import partial
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.executor import ExecutionResult
from repro.core.parallel import (
    ActiveSpans,
    ParallelBatchExecutor,
    _Execution,
    _SpanOutcome,
    span_rows,
)
from repro.core.plan import ExecutionPlan
from repro.db.errors import SegmentMapError, StorageError, UnpicklableUdfError
from repro.db.index import GroupIndex
from repro.db.shm import (
    SpanExport,
    UnshareableColumnError,
    attach_array,
    export_table_spans,
    release_exports,
)
from repro.db.table import Table, select_rows
from repro.db.udf import CostLedger, UdfSpec, UserDefinedFunction, call_on_rows
from repro.obs import metrics as _metrics
from repro.resilience import faults as _faults
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.deadline import DeadlineExceeded, current_deadline
from repro.sampling.sampler import SampleOutcome

#: Below this many row ids a bulk-evaluation fan-out is not worth the
#: dispatch overhead; the call degrades to one in-process ``evaluate_rows``.
_MIN_PARALLEL_EVAL_ROWS = 2048

_PROC_POOLS: Dict[int, ProcessPoolExecutor] = {}
_PROC_POOLS_LOCK = threading.Lock()


def shared_process_pool(max_workers: int) -> ProcessPoolExecutor:
    """A process-wide spawn pool per worker bound (created lazily).

    Spawn (not fork): workers must not inherit the parent's locks, pools, or
    open trace state.  Workers are reused across queries, so the interpreter
    start-up cost is paid once per worker bound.
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


def default_max_workers() -> int:
    """Default worker bound: the machine's cores (at least 1)."""
    return max(1, os.cpu_count() or 1)


def _span_masks(table: Table, ids: np.ndarray) -> Optional[List[Tuple[int, np.ndarray]]]:
    """``(span index, mask)`` cutting ``ids`` at the table's span bounds, or ``None``.

    ``None`` means "don't fan": the table has a single span, ``ids`` is
    below :data:`_MIN_PARALLEL_EVAL_ROWS`, or every id falls in one span —
    the call is then one in-process ``evaluate_rows``.
    """
    spans = getattr(table, "shard_offsets", None)
    if spans is None or len(spans) <= 2 or ids.size < _MIN_PARALLEL_EVAL_ROWS:
        return None
    masks = []
    for span_index, (start, stop) in enumerate(zip(spans, spans[1:])):
        mask = (ids >= start) & (ids < stop)
        if mask.any():
            masks.append((span_index, mask))
    return masks if len(masks) > 1 else None


def _discard_process_pool(max_workers: int) -> None:
    """Drop (and shut down) a broken cached pool so the next use respawns."""
    with _PROC_POOLS_LOCK:
        pool = _PROC_POOLS.pop(max_workers, None)
    if pool is not None:
        pool.shutdown(wait=False, cancel_futures=True)


def spec_evaluate(
    spec: UdfSpec, exports: Sequence[SpanExport], row_ids: np.ndarray
) -> np.ndarray:
    """Evaluate a :class:`UdfSpec` on global ``row_ids`` via mapped columns.

    Runs in worker processes (and in the pickle-safety check): attaches the
    needed column blocks, then either takes the vectorised label fast path or
    calls ``spec.func`` on the span's rows through
    :func:`~repro.db.udf.call_on_rows` — the same helper, over the same
    gathered arrays, that the parent's ``UserDefinedFunction`` evaluates
    un-memoised rows with, so both see the same python values.
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
            result[mask] = call_on_rows(
                spec.func,
                {name: attach_array(block)[local] for name, block in export.columns.items()},
            )
    return result


def _remote_run_span(
    span_index: int,
    row_ids: np.ndarray,
    spec: UdfSpec,
    exports: Tuple[SpanExport, ...],
    fault_plan: Optional[_faults.FaultPlan] = None,
    attempt: int = 0,
) -> np.ndarray:
    """Worker entry point: evaluate one span's ``row_ids``, fresh.

    Returns one outcome per id.  ``fault_plan`` re-activates the parent's
    plan in this process (spawned workers inherit nothing) so the
    worker-side sites fire here; ``attempt`` is part of the ``worker``
    site's address, so a first-attempt-only crash rule lets the retried span
    succeed.
    """
    with _faults.fault_scope(fault_plan):
        kind = _faults.maybe_fire(fault_plan, "worker", span_index, attempt)
        outcomes = spec_evaluate(spec, exports, row_ids)
        if kind == _faults.GARBAGE:
            # Ship a wrong-shaped outcome array: the parent's shape check
            # rejects the whole span before anything is charged or absorbed.
            outcomes = outcomes[:-1] if outcomes.size else np.zeros(1, dtype=bool)
        return outcomes


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


class ProcessPoolBatchExecutor(ParallelBatchExecutor):
    """Span-parallel executor running UDF evaluation in worker processes.

    Same results, same gated counters as :class:`ParallelBatchExecutor` —
    only the wall-clock differs: python-callable UDFs scale with cores
    instead of serialising on the GIL.  See the module docstring for the
    division of labour between workers and the parent, and for the fault
    handling (span retry, breaker reporting, deadline-bounded harvest,
    export release on give-up).

    ``max_workers`` bounds the worker processes (``None`` means
    :func:`default_max_workers`); ``1`` keeps every call in-process.
    """

    def __init__(
        self,
        random_state=None,
        max_workers: Optional[int] = None,
        breaker: Optional[CircuitBreaker] = None,
        on_degraded: Optional[Callable[[str], None]] = None,
    ):
        super().__init__(random_state=random_state)
        workers = default_max_workers() if max_workers is None else int(max_workers)
        if workers < 1:
            raise ValueError(f"max_workers must be positive, got {max_workers}")
        self.max_workers = workers
        #: The serving layer's circuit breaker, shared across this service's
        #: executors; ``None`` standalone — every note below no-ops then.
        self.breaker = breaker
        #: Told ``"breaker_open"`` each time the breaker refuses this
        #: executor the pool (the service marks the request degraded).
        self.on_degraded = on_degraded

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

    def _admitted(self) -> bool:
        """May this call use the pool?  Asked where the pool is about to be used.

        A half-open breaker answers yes by handing out a probe slot, so a
        ``True`` obliges the caller to report back — success, failure, or
        :meth:`_cancel_probe` — and a ``False`` obliges it to nothing: the
        slot in flight belongs to another executor.
        """
        if self.breaker is None or self.breaker.allow():
            return True
        if self.on_degraded is not None:
            self.on_degraded("breaker_open")
        return False

    def _cancel_probe(self) -> None:
        """Release a half-open probe slot this run consumed but never used.

        Non-remote paths (single span, fallback before any worker ran) say
        nothing about pool health, so they must neither close nor re-open
        the breaker — just hand the probe back.
        """
        if self.breaker is not None:
            self.breaker.cancel_probe()

    def _remote_inputs(
        self, table: Table, udf: UserDefinedFunction
    ) -> Optional[Tuple[UdfSpec, Tuple[SpanExport, ...]]]:
        """The pool's inputs for this call, or ``None`` to run it in-process.

        The one preamble of :meth:`execute` and :meth:`evaluate_rows`: more
        than one worker, the breaker's admission, a picklable spec, then the
        span exports.  A call that falls back after its admission hands its
        probe slot back; a committed segment that will not map and a file
        that could not be written (a full tmpfs) are also noted on the
        breaker.
        """
        if self.max_workers == 1 or not self._admitted():
            return None
        try:
            spec = udf.worker_spec()
            if spec.func is not None:
                return spec, export_table_spans(table, table.schema.column_names)
            if udf.vectorised_on(table):
                return spec, export_table_spans(table, [spec.label_column])
            # The serial path would use the callable fallback for this
            # table; workers only hold the spec, so stay in-process.
            reason = "label_column_missing"
        except UnpicklableUdfError:
            reason = "unpicklable_udf"
        except UnshareableColumnError:
            reason = "unshareable_column"
        except StorageError:
            reason = "segment_map"
            self._note_failure(reason)
        except (_faults.InjectedFault, OSError):
            reason = "segment_write"
            self._note_failure(reason)
        self._fallback(reason)
        self._cancel_probe()
        return None

    def _await(
        self, future: Future, siblings: Iterable[Future], table: Table, where: str
    ) -> Any:
        """``future.result()``, bounded by the request's deadline if one is armed.

        The one place that tells "the wait timed out" from "the call
        raised": ``concurrent.futures.TimeoutError`` *is* the builtin
        ``TimeoutError`` since Python 3.11, so a UDF that raises it inside a
        worker lands in the same ``except``.  A future that is done did not
        hang — its own exception (or result) goes to the caller like any
        other, pool and exports untouched.  A *hung* worker cannot be
        interrupted: abandon the whole pool (cancel ``siblings``, discard,
        remove this table's exported files) and surface the
        typed ``DeadlineExceeded`` within deadline + scheduling grace.
        """
        deadline = current_deadline()
        timeout = None if deadline is None else max(deadline.remaining(), 0.0)
        try:
            return future.result(timeout=timeout)
        except FuturesTimeout:
            if deadline is None or future.done():
                return future.result()  # it raised (or just finished): not a hang
            for pending in siblings:
                pending.cancel()
            _discard_process_pool(self.max_workers)
            release_exports(table)
            self._note_failure("worker_hang")
            self._fallback("worker_hang")
            raise DeadlineExceeded(deadline.timeout_s, where)

    def evaluate_rows(
        self, table: Table, udf: UserDefinedFunction, row_ids: Sequence[int]
    ) -> np.ndarray:
        """Evaluate ``udf`` on ``row_ids``, fanned across worker processes.

        A span job like any other: ``row_ids`` are cut at the span bounds
        and each span's ids go to a worker through :meth:`_run_remote_spans`
        — the payload, submit, harvest, retry and give-up of
        :meth:`execute`.  Workers evaluate fresh; the parent then folds
        everything through one :meth:`merge_remote_evaluations`, so the
        memo cache and every UDF counter advance exactly as one serial
        ``udf.evaluate_rows`` call would (one bulk call).  A span the pool
        failed twice sends the whole call in-process.  The labelling fan
        reports pool faults but never vouches for the pool — only a clean
        :meth:`execute` closes a half-open breaker — so a probe slot taken
        here is always handed back.
        """
        ids = np.asarray(row_ids, dtype=np.intp)
        masks = _span_masks(table, ids)
        prepared = None if masks is None else self._remote_inputs(table, udf)
        if prepared is None:
            return super().evaluate_rows(table, udf, ids)
        jobs = {span_index: ids[mask] for span_index, mask in masks}
        try:
            remote, failed = self._run_remote_spans(jobs, table, *prepared)
        finally:
            self._cancel_probe()
        if failed:
            return super().evaluate_rows(table, udf, ids)
        outcomes = np.empty(ids.size, dtype=bool)
        for span_index, mask in masks:
            outcomes[mask] = remote[span_index]
        return udf.merge_remote_evaluations(ids, outcomes)

    def _harvest_spans(
        self,
        futures: Dict[int, Future],
        jobs: Dict[int, np.ndarray],
        results: Dict[int, np.ndarray],
        table: Table,
    ) -> Dict[int, str]:
        """Drain span futures into ``results``; classify transient failures.

        Returns ``{span_index: reason}`` for spans that failed transiently:
        a broken pool, a segment file that would not map, an injected fault
        or a result whose shape is not its job's.  Anything else the worker
        raised is the call's own error (a UDF's ``OSError`` included) and
        re-raises, but only after every future has settled — nothing
        mutates the ledger or memo until settling, so an abort leaves
        parent state untouched.  Every wait goes through :meth:`_await`:
        with an active deadline a *hung* worker raises the typed
        ``DeadlineExceeded`` at once instead of wedging the request.
        """
        failed: Dict[int, str] = {}
        fatal: List[BaseException] = []
        broken = False
        for span_index, future in futures.items():
            try:
                outcomes = self._await(
                    future, futures.values(), table, "process-pool harvest"
                )
            except DeadlineExceeded:
                raise
            except BrokenProcessPool:
                broken = True
                failed[span_index] = "worker_crash"
            except SegmentMapError:
                failed[span_index] = "segment_map"
            except _faults.InjectedFault as exc:
                failed[span_index] = exc.site
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                fatal.append(exc)
            else:
                if outcomes.shape != jobs[span_index].shape:
                    failed[span_index] = "garbage"
                else:
                    results[span_index] = outcomes
        if broken:
            _discard_process_pool(self.max_workers)
        if fatal:
            raise fatal[0]
        return failed

    def _run_remote_spans(
        self,
        jobs: Dict[int, np.ndarray],
        table: Table,
        spec: UdfSpec,
        exports: Tuple[SpanExport, ...],
    ) -> Tuple[Dict[int, np.ndarray], Set[int]]:
        """Fan ``{span index: row ids}`` to the pool; retry transient failures once.

        The one fan-out of this executor, for plan spans and bulk
        evaluation alike.  Returns each successful span's outcomes by index
        plus the indices the pool failed twice, which the caller recomputes
        in-process.  Each faulting round notes one failure on the breaker;
        a success is the caller's to note.  Charges only happen when the
        caller settles, so a retry can never double-charge.
        """
        fault_plan = _faults.active_plan()
        results: Dict[int, np.ndarray] = {}
        pending = dict(jobs)
        failed: Dict[int, str] = {}
        for attempt in range(2):
            if attempt:
                # The one event written twice: the breaker is optional, so
                # without one the registry instrument is its only home.
                _metrics.counter(
                    "repro_executor_retried_spans_total", backend="process"
                ).inc(len(pending))
                if self.breaker is not None:
                    self.breaker.record_retry(len(pending))
            # A retry runs against a (re)spawned pool.  Exported files stay
            # until a give-up: removing them here would strand the fresh
            # workers' maps.
            pool = shared_process_pool(self.max_workers)
            futures = {
                span_index: _submit_span(
                    pool, span_index, row_ids, spec, exports, fault_plan, attempt
                )
                for span_index, row_ids in pending.items()
            }
            failed = self._harvest_spans(futures, jobs, results, table)
            if not failed:
                break
            self._note_failure(sorted(failed.values())[0])
            pending = {span_index: pending[span_index] for span_index in sorted(failed)}
        if failed:
            # Give up on the pool for these spans: they recompute in-process
            # at fold time, and the suspect exports must not outlive the
            # failure (the leak-check invariant: zero exported files after
            # teardown, even on degraded paths).
            self._fallback(sorted(failed.values())[0])
            release_exports(table)
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
        prepared = self._remote_inputs(table, udf)
        if prepared is None:
            return super().execute(table, index, udf, plan, ledger, sample_outcome)
        try:
            return self._execute_spans(
                "process",
                partial(self._run_process_spans, *prepared),
                table,
                index,
                udf,
                plan,
                ledger,
                sample_outcome,
            )
        except BaseException:
            # An error that is no verdict on the pool (the UDF's own, a
            # budget trip) must not keep a half-open probe slot; once the
            # breaker has heard a verdict this is a no-op.
            self._cancel_probe()
            raise

    def _run_process_spans(
        self,
        spec: UdfSpec,
        exports: Tuple[SpanExport, ...],
        active: ActiveSpans,
        run: _Execution,
    ) -> List[_SpanOutcome]:
        """Evaluate the active spans' picked rows in workers; settle in the parent.

        A worker gets a span's picked row ids and returns their outcomes; a
        span with nothing to evaluate needs no worker.  The parent then
        settles every span in span-index order, replaying serial charging:
        retrieval then evaluation per span, *before* that span's outcomes
        are absorbed — so a hard budget raises at exactly the span boundary
        the inline path would, with no later span absorbed.  A span the
        pool failed twice is evaluated in-process *here, at its serial
        position*, so the charge order — and any budget trip point — is
        the same whether or not faults occurred.
        """
        jobs = {}
        if len(active) > 1:
            for span_index, tasks in active:
                picked = select_rows(*span_rows(tasks))
                if picked.size:
                    jobs[span_index] = picked
        if not jobs:
            self._cancel_probe()
            return self._run_spans(active, run)
        remote, failed = self._run_remote_spans(jobs, run.table, spec, exports)
        if not failed:
            self._note_success()
        return [
            self._settle_span(run, span_index, tasks, remote.get(span_index))
            for span_index, tasks in active
        ]
