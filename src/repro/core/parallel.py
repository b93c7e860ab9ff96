"""Span execution: the counter-coin kernel and where its spans run.

:class:`ParallelBatchExecutor` is the scale-out sibling of
:class:`~repro.core.executor.BatchExecutor`.  It owns the one span skeleton
— root key → :func:`~repro.core.executor.candidate_frame` →
:func:`build_span_tasks` → *run the spans that have work* →
:func:`merge_span_outcomes` — over the contiguous row spans of a
:class:`~repro.db.sharding.ShardedTable`, and so does its subclass
:class:`~repro.core.procpool.ProcessPoolBatchExecutor`: "where the spans
run" is the only part a placement supplies.

* **Candidates** come from the same memoised
  :class:`~repro.core.executor.CandidateFrame` the serial executor uses:
  already-sampled rows are excluded once per (index, sample outcome), not
  per request and not inside a worker.  A span task is a slice of a frame
  array, and the slice start *is* the coin position of its first row.
* **Charging and folding** are :func:`~repro.core.executor.evaluation_charge`
  (under this executor's ledger lock, :meth:`ParallelBatchExecutor._charge_span`)
  and :func:`~repro.core.executor.fold_group` — the serial executor's own.
* **Placement** is chosen from the input, not by an option.  Spans run
  inline on the calling thread unless there is more than one worker, more
  than one span with work *and* the UDF is vectorised on this table
  (:meth:`~repro.db.udf.UserDefinedFunction.vectorised_on`): then the heavy
  per-span work — block coin generation, ufunc comparisons, bulk label
  reads — runs in NumPy kernels that release the GIL, the python
  orchestration around them is O(groups), not O(rows), and the shared
  thread pool genuinely overlaps spans.  A python-callable UDF evaluated
  row by row holds the GIL, so it never leaves the calling thread (pool
  threads ran it at 0.09x of serial); its multi-core placement is the
  process pool.  The same rule gates the bulk-evaluation fan used while
  sampling and labelling.

Position-addressable coin discipline
------------------------------------

The serial backends consume one sequential random stream, which couples every
coin to all earlier coins — correct, but impossible to decompose across
shards.  This executor instead derives, per execution, a 64-bit root key from
its seeded :class:`~repro.stats.random.RandomState` and gives every group two
*counter-based* SplitMix64 streams (:func:`repro.stats.random.counter_uniforms`):

* retrieval coin for the tuple at position ``p`` of the group's candidate
  list = stream ``(root, group code, phase 0)`` at position ``p``;
* evaluation coin for the same tuple = stream ``(root, group code, phase 1)``
  at position ``p`` (drawn per *candidate* position and applied only to
  retrieved tuples, so it never depends on how many tuples earlier workers
  retrieved).

Because every coin is a pure function of (seed, group, position), the result
is **bitwise identical for any shard layout and any ``max_workers``** —
including the serial fallback — which is what lets the scale benchmark pin
sharded work counters to the unsharded run at ±0.  The trade-off is that the
stream differs from the sequential one shared by ``BatchExecutor`` /
``PlanExecutor``; per-tuple marginals are unchanged (independent uniforms
either way), but seeds are not comparable across disciplines.

Ledger charging is span-granular (one retrieval block + one evaluation block
per span, charged under a lock before that span's UDF work), so a hard budget
stops whole spans, never mid-span.  ``max_workers=1`` — or a table with a
single span, or a python-callable UDF — degrades to a deterministic serial
loop over the spans with no pool involved.
"""

from __future__ import annotations

import contextvars
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.executor import (
    NO_OUTCOMES,
    CandidateFrame,
    ExecutionResult,
    GroupExecutionCounts,
    candidate_frame,
    evaluation_charge,
    fold_group,
)
from repro.core.plan import ExecutionPlan
from repro.db.index import GroupIndex
from repro.db.table import Table
from repro.db.udf import CostLedger, UserDefinedFunction
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.resilience.deadline import check_deadline
from repro.sampling.sampler import SampleOutcome
from repro.stats.random import (
    RandomState,
    SeedLike,
    as_random_state,
    counter_uniforms,
    stream_key,
)

#: Phase tags separating the retrieval and evaluation coin streams of a group.
_PHASE_RETRIEVE = 0
_PHASE_EVALUATE = 1

#: Below this many row ids a bulk-evaluation fan-out is not worth the
#: dispatch overhead; the call degrades to one serial ``evaluate_rows``.
_MIN_PARALLEL_EVAL_ROWS = 2048

_POOLS: Dict[int, ThreadPoolExecutor] = {}
_POOLS_LOCK = threading.Lock()


def default_max_workers() -> int:
    """Default worker bound: the machine's cores (at least 1)."""
    return max(1, os.cpu_count() or 1)


def shared_pool(max_workers: int) -> ThreadPoolExecutor:
    """A process-wide thread pool per worker bound (created lazily).

    Sharing one pool across executors and index builds avoids paying thread
    start-up per query; workers are plain daemon-less pool threads, joined at
    interpreter exit like any ``ThreadPoolExecutor``.
    """
    if max_workers < 1:
        raise ValueError(f"max_workers must be positive, got {max_workers}")
    pool = _POOLS.get(max_workers)
    if pool is None:
        with _POOLS_LOCK:
            pool = _POOLS.get(max_workers)
            if pool is None:
                pool = ThreadPoolExecutor(
                    max_workers=max_workers,
                    thread_name_prefix=f"repro-shard-{max_workers}",
                )
                _POOLS[max_workers] = pool
    return pool


def _table_spans(table: Table) -> Tuple[int, ...]:
    """The table's natural contiguous row spans (shard bounds, else one span)."""
    offsets = getattr(table, "shard_offsets", None)
    if offsets is not None:
        return tuple(offsets)
    return (0, table.num_rows)


def _span_masks(table: Table, ids: np.ndarray) -> Optional[List[np.ndarray]]:
    """Masks splitting ``ids`` by the table's spans, or ``None`` for "don't fan".

    The one partition of a bulk evaluation, for the thread and the process
    fan alike: ``None`` when the table has a single span, when ``ids`` is
    below :data:`_MIN_PARALLEL_EVAL_ROWS`, or when every id falls in one
    span — the call is then one serial ``evaluate_rows``.
    """
    spans = _table_spans(table)
    if len(spans) <= 2 or ids.size < _MIN_PARALLEL_EVAL_ROWS:
        return None
    masks = []
    for start, stop in zip(spans, spans[1:]):
        mask = (ids >= start) & (ids < stop)
        if mask.any():
            masks.append(mask)
    return masks if len(masks) > 1 else None


@dataclass
class _GroupSegment:
    """One group's candidate slice falling inside one span.

    ``rows`` are the group's candidate row ids within the span (ascending;
    a slice of the shared :class:`~repro.core.executor.CandidateFrame`, so
    already-sampled rows are gone before a task exists).
    ``position_offset`` is the index of this segment's first candidate
    within the group's full candidate list, which addresses the group's
    coin streams.
    """

    key: Hashable
    code: int
    retrieve_probability: float
    conditional_evaluate: float
    rows: np.ndarray
    position_offset: int


@dataclass
class _SpanOutcome:
    """What one span's worker hands back for merging.

    ``retrieved``/``evaluated_charge`` are the exact amounts the worker
    charged to the shared ledger (computed under the ledger lock) — the
    per-shard trace spans report these instead of diffing the ledger, which
    siblings mutate concurrently.
    """

    returned: Dict[int, np.ndarray]  # group code -> returned global row ids
    counts: Dict[int, GroupExecutionCounts]
    retrieved: int = 0
    evaluated_charge: int = 0


@dataclass(frozen=True)
class _Execution:
    """What every span of one ``execute`` call shares.

    ``root`` keys the call's coin streams; ``ledger`` is charged (under the
    executor's lock) and ``udf`` evaluated on ``table`` by whichever
    placement settles a span.
    """

    root: int
    table: Table
    udf: UserDefinedFunction
    ledger: CostLedger


#: The spans of one execution that have work: ``(span index, tasks)``, ascending.
ActiveSpans = List[Tuple[int, List[_GroupSegment]]]

#: "Where the spans run": settles every active span (coins, charges, UDF
#: work, fold) and returns their outcomes in span order.
SpanRunner = Callable[[ActiveSpans, _Execution], List[_SpanOutcome]]


def _record_span_work(shard_span: _trace.Span, outcome: _SpanOutcome) -> None:
    """Put a settled span's work on its ``shard:<i>`` trace span.

    The counters are the exact amounts charged to the ledger for the span —
    recorded via :meth:`Span.add`, never by diffing the ledger, which
    sibling shards mutate concurrently.
    """
    shard_span.add("retrievals", outcome.retrieved)
    shard_span.add("udf_evals", outcome.evaluated_charge)
    shard_span.annotate("groups", len(outcome.counts))


def build_span_tasks(
    index: GroupIndex,
    plan: ExecutionPlan,
    frame: CandidateFrame,
) -> Tuple[List[List[_GroupSegment]], Dict[Hashable, GroupExecutionCounts]]:
    """Partition every group's candidate rows into per-span worker tasks.

    Returns ``(span_tasks, group_counts)``: one task list per index span
    (``span_boundaries()`` order) and a zero-initialised counts dict covering
    every group.  Pure function of the plan and inputs: ``frame.candidates``
    is cut at the span bounds, and the cut position *is* the coin position
    of the segment's first row — so the work decomposition of the thread
    and process placements cannot drift.
    """
    group_counts: Dict[Hashable, GroupExecutionCounts] = {}
    bounds = np.asarray(index.span_boundaries(), dtype=np.intp)
    num_spans = len(bounds) - 1
    span_tasks: List[List[_GroupSegment]] = [[] for _ in range(num_spans)]

    for code, (key, candidates) in enumerate(zip(index, frame.candidates)):
        decision = plan.decision(key)
        group_counts[key] = GroupExecutionCounts()
        retrieve_probability = decision.retrieve_probability
        conditional_evaluate = decision.conditional_evaluate_probability
        if retrieve_probability <= 0.0 or candidates.size == 0:
            continue
        cuts = np.searchsorted(candidates, bounds)
        for span in range(num_spans):
            lo, hi = int(cuts[span]), int(cuts[span + 1])
            if hi > lo:
                span_tasks[span].append(
                    _GroupSegment(
                        key=key,
                        code=code,
                        retrieve_probability=retrieve_probability,
                        conditional_evaluate=conditional_evaluate,
                        rows=candidates[lo:hi],
                        position_offset=lo,
                    )
                )
    return span_tasks, group_counts


def span_coin_pass(
    root: int, tasks: List[_GroupSegment]
) -> Tuple[List[np.ndarray], List[np.ndarray], int]:
    """Flip every task's retrieval and evaluation coins (no UDF, no ledger).

    Returns ``(retrieved_per_task, evaluate_per_task, total_retrieved)`` —
    per task, the retrieved global row ids and the evaluation mask over
    them.  Pure function of ``(root, tasks)``: this is the half of span
    execution that process-pool workers run remotely.
    """
    retrieved_per_task: List[np.ndarray] = []
    evaluate_per_task: List[np.ndarray] = []  # masks over retrieved
    total_retrieved = 0

    for task in tasks:
        seg = task.rows
        if task.retrieve_probability >= 1.0:
            retrieved = seg
            retrieved_positions = None  # all positions
        else:
            coins = counter_uniforms(
                stream_key(root, task.code, _PHASE_RETRIEVE),
                task.position_offset,
                seg.size,
            )
            keep = coins < task.retrieve_probability
            retrieved = seg[keep]
            retrieved_positions = keep
        if task.conditional_evaluate <= 0.0 or retrieved.size == 0:
            evaluate_mask = np.zeros(retrieved.size, dtype=bool)
        elif task.conditional_evaluate >= 1.0:
            evaluate_mask = np.ones(retrieved.size, dtype=bool)
        else:
            # Per-candidate-position evaluation coins, applied to the
            # retrieved subset (see the coin discipline in the module doc).
            eval_coins = counter_uniforms(
                stream_key(root, task.code, _PHASE_EVALUATE),
                task.position_offset,
                seg.size,
            )
            per_candidate = eval_coins < task.conditional_evaluate
            evaluate_mask = (
                per_candidate
                if retrieved_positions is None
                else per_candidate[retrieved_positions]
            )
        retrieved_per_task.append(retrieved)
        evaluate_per_task.append(evaluate_mask)
        total_retrieved += int(retrieved.size)
    return retrieved_per_task, evaluate_per_task, total_retrieved


def concat_to_evaluate(
    retrieved_per_task: List[np.ndarray], evaluate_per_task: List[np.ndarray]
) -> np.ndarray:
    """The span's rows needing UDF evaluation, in task order."""
    if not retrieved_per_task:
        return np.empty(0, dtype=np.intp)
    return np.concatenate(
        [r[m] for r, m in zip(retrieved_per_task, evaluate_per_task)]
    )


def fold_span_outcomes(
    tasks: List[_GroupSegment],
    retrieved_per_task: List[np.ndarray],
    evaluate_per_task: List[np.ndarray],
    outcomes: np.ndarray,
) -> Tuple[Dict[int, np.ndarray], Dict[int, GroupExecutionCounts]]:
    """Fold UDF outcomes back into per-group returned rows and counts.

    ``outcomes`` is the boolean result for :func:`concat_to_evaluate`'s rows
    (same order).  Pure: UDF outcomes are deterministic, so folding a worker
    process's fresh evaluations gives bitwise the same result as folding the
    parent's memo-assisted ones.
    """
    counts: Dict[int, GroupExecutionCounts] = {}
    returned: Dict[int, np.ndarray] = {}
    offset = 0
    for task, retrieved, evaluate_mask in zip(
        tasks, retrieved_per_task, evaluate_per_task
    ):
        # A span holds at most one segment of a group (build_span_tasks).
        counts[task.code] = task_counts = GroupExecutionCounts()
        if retrieved.size == 0:
            continue
        evaluated = int(evaluate_mask.sum())
        kept = fold_group(
            task_counts, retrieved, evaluate_mask, outcomes[offset : offset + evaluated]
        )
        offset += evaluated
        if kept.size:
            returned[task.code] = kept
    return returned, counts


def merge_span_outcomes(
    index: GroupIndex,
    outcomes: Sequence[_SpanOutcome],
    group_counts: Dict[Hashable, GroupExecutionCounts],
    free_positives: np.ndarray,
) -> np.ndarray:
    """Merge per-span outcomes into the serial group-major returned array.

    Merges in (group, span) order: spans are ascending row ranges, so
    concatenating a group's per-span parts in span order reproduces the
    serial group-major, row-ascending output order exactly.  The result is
    the one ``intp`` array :class:`ExecutionResult` carries to the caller
    from every backend.  ``group_counts`` is mutated in place.
    """
    merged: Dict[int, List[np.ndarray]] = {}
    group_keys = index.values  # the property copies; read it once
    for outcome in outcomes:
        for code, part in outcome.returned.items():
            merged.setdefault(code, []).append(part)
        for code, delta in outcome.counts.items():
            key = group_keys[code]
            counts = group_counts[key]
            counts.retrieved_correct += delta.retrieved_correct
            counts.retrieved_incorrect += delta.retrieved_incorrect
            counts.evaluated_correct += delta.evaluated_correct
            counts.evaluated_incorrect += delta.evaluated_incorrect
            counts.returned += delta.returned
    parts: List[np.ndarray] = [free_positives]
    for code in sorted(merged):
        parts.extend(merged[code])
    return np.concatenate(parts) if len(parts) > 1 else parts[0]


class ParallelBatchExecutor:
    """Sharded, thread-parallel plan executor (see module docstring).

    Parameters
    ----------
    random_state:
        Seed for the per-execution root key; two executions with the same
        seed, plan and inputs return identical results regardless of shard
        layout or ``max_workers``.
    max_workers:
        Thread bound; ``None`` means :func:`default_max_workers`, ``1``
        forces the serial fallback.
    free_memoized:
        Serving accounting — do not re-charge evaluations whose value the
        UDF already memoised (same semantics as ``BatchExecutor``).
    """

    def __init__(
        self,
        random_state: SeedLike = None,
        max_workers: Optional[int] = None,
        free_memoized: bool = False,
    ):
        self.random_state: RandomState = as_random_state(random_state)
        workers = default_max_workers() if max_workers is None else int(max_workers)
        if workers < 1:
            raise ValueError(f"max_workers must be positive, got {max_workers}")
        self.max_workers = workers
        self.free_memoized = free_memoized
        self._ledger_lock = threading.Lock()

    def _fans_out(self, table: Table, udf: UserDefinedFunction) -> bool:
        """Whether span work may leave the calling thread for the thread pool.

        Only with more than one worker *and* a UDF whose bulk evaluation on
        this table is a GIL-releasing column gather
        (:meth:`~repro.db.udf.UserDefinedFunction.vectorised_on`): a python
        callable evaluated row by row holds the GIL, so pool threads would
        only add hand-offs to a serial computation.  Chosen from the input —
        answers cannot depend on it (counter-addressed coins).
        """
        return self.max_workers > 1 and udf.vectorised_on(table)

    # -- bulk UDF evaluation fan-out ------------------------------------------
    def bulk_evaluator(
        self, udf: UserDefinedFunction
    ) -> Callable[[Table, Sequence[int]], np.ndarray]:
        """An ``evaluate_rows``-shaped callable that fans across shards.

        Drop-in for ``udf.evaluate_rows`` in ``draw_labeled_sample`` and
        ``GroupSampler.sample``: UDF outcomes are deterministic, so the fan
        changes wall-clock only — never results or paid-evaluation counters
        (the UDF's internal counters are lock-protected).
        """

        def evaluate(table: Table, row_ids: Sequence[int]) -> np.ndarray:
            return self.evaluate_rows(table, udf, row_ids)

        return evaluate

    def evaluate_rows(
        self, table: Table, udf: UserDefinedFunction, row_ids: Sequence[int]
    ) -> np.ndarray:
        """Evaluate ``udf`` on ``row_ids``, partitioned by the table's shards."""
        check_deadline("bulk-evaluate")
        ids = np.asarray(row_ids, dtype=np.intp)
        masks = _span_masks(table, ids) if self._fans_out(table, udf) else None
        if masks is None:
            return udf.evaluate_rows(table, ids)
        outcomes = np.empty(ids.size, dtype=bool)
        pool = shared_pool(self.max_workers)
        futures = [
            pool.submit(udf.evaluate_rows, table, ids[mask]) for mask in masks
        ]
        for mask, future in zip(masks, futures):
            outcomes[mask] = future.result()
        return outcomes

    # -- plan execution --------------------------------------------------------
    def execute(
        self,
        table: Table,
        index: GroupIndex,
        udf: UserDefinedFunction,
        plan: ExecutionPlan,
        ledger: CostLedger,
        sample_outcome: Optional[SampleOutcome] = None,
    ) -> ExecutionResult:
        """Run ``plan`` over every group of ``index``, fanned across spans."""
        return self._execute_spans(
            "parallel", self._run_spans, table, index, udf, plan, ledger, sample_outcome
        )

    def _execute_spans(
        self,
        backend: str,
        run_spans: SpanRunner,
        table: Table,
        index: GroupIndex,
        udf: UserDefinedFunction,
        plan: ExecutionPlan,
        ledger: CostLedger,
        sample_outcome: Optional[SampleOutcome],
    ) -> ExecutionResult:
        """The one span skeleton; ``run_spans`` is "where the spans run".

        Root key → shared candidate frame → span tasks → ``run_spans`` over
        the spans that have work → merge.  ``run_spans`` returns one
        :class:`_SpanOutcome` per active span, in span order, with every
        charge already made.
        """
        _metrics.counter("repro_executor_runs_total", backend=backend).inc()
        run = _Execution(int(self.random_state.integers(0, 2**63)), table, udf, ledger)
        frame = candidate_frame(index, sample_outcome)
        span_tasks, group_counts = build_span_tasks(index, plan, frame)

        # Span indices (not list positions after filtering) name the shard
        # trace spans, so ``shard:<i>`` is deterministic for a given layout
        # regardless of which spans end up with work or how the pool
        # schedules them.
        active = [
            (span_index, tasks)
            for span_index, tasks in enumerate(span_tasks)
            if tasks
        ]
        returned = merge_span_outcomes(
            index, run_spans(active, run), group_counts, frame.free_positives
        )
        return ExecutionResult(
            returned_row_ids=returned,
            ledger=ledger,
            group_counts=group_counts,
        )

    def _run_spans(self, active: ActiveSpans, run: _Execution) -> List[_SpanOutcome]:
        """Run the active spans inline, or on the shared thread pool."""
        if len(active) <= 1 or not self._fans_out(run.table, run.udf):
            return [self._run_span(run, span_index, tasks) for span_index, tasks in active]
        pool = shared_pool(self.max_workers)
        # Each worker runs in a copy of the submitting context, so the
        # per-shard trace spans it opens parent under this query's
        # current span even though the pool threads are long-lived and
        # shared across queries.  (A Context cannot be entered twice
        # concurrently, hence one copy per task.)
        futures = [
            pool.submit(
                contextvars.copy_context().run, self._run_span, run, span_index, tasks
            )
            for span_index, tasks in active
        ]
        # Drain every span before propagating a failure: siblings share
        # the ledger, so raising while they still run would hand the
        # caller (and session settlement) a moving cost total.  A hard
        # budget trips each remaining span at its own charge step, so no
        # un-paid-for UDF work happens in the meantime.
        outcomes = []
        first_error: Optional[BaseException] = None
        for future in futures:
            try:
                outcomes.append(future.result())
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                if first_error is None:
                    first_error = exc
        if first_error is not None:
            raise first_error
        return outcomes

    def _charge_span(
        self, run: _Execution, retrieved: int, to_evaluate: np.ndarray
    ) -> int:
        """Charge one span's retrievals and evaluations; return the latter.

        The whole span is charged before any of its UDF work (the serial
        backends' charge-before-evaluate order, at span granularity): a
        hard budget stops the span before any un-paid-for value could land
        in the memo cache.  The lock makes concurrent span charges exact.
        """
        evaluated_charge = 0
        with self._ledger_lock:
            if retrieved:
                run.ledger.charge_retrieval(retrieved)
            if to_evaluate.size:
                evaluated_charge = evaluation_charge(
                    run.udf, to_evaluate, self.free_memoized
                )
                if evaluated_charge:
                    run.ledger.charge_evaluation(evaluated_charge)
        return evaluated_charge

    def _run_span(
        self, run: _Execution, span_index: int, tasks: List[_GroupSegment]
    ) -> _SpanOutcome:
        """Execute one span's group segments: coins, charge, one bulk UDF call.

        Runs inside a ``shard:<i>`` trace span (with no active trace that is
        one ``ContextVar`` read).
        """
        with _trace.span(f"shard:{span_index}") as shard_span:
            # Span boundary = cancellation point.  Pool workers run in a copy
            # of the submitting context, so the request's deadline contextvar
            # is visible here; an expired request stops before this span
            # charges.
            check_deadline("execute-span")
            retrieved_per_task, evaluate_per_task, total_retrieved = span_coin_pass(
                run.root, tasks
            )
            to_evaluate = concat_to_evaluate(retrieved_per_task, evaluate_per_task)
            evaluated_charge = self._charge_span(run, total_retrieved, to_evaluate)
            outcomes = (
                run.udf.evaluate_rows(run.table, to_evaluate)
                if to_evaluate.size
                else NO_OUTCOMES
            )
            returned, counts = fold_span_outcomes(
                tasks, retrieved_per_task, evaluate_per_task, outcomes
            )
            outcome = _SpanOutcome(
                returned=returned,
                counts=counts,
                retrieved=total_retrieved,
                evaluated_charge=evaluated_charge,
            )
            _record_span_work(shard_span, outcome)
        return outcome
