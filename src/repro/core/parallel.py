"""Parallel plan execution across table shards.

:class:`ParallelBatchExecutor` is the scale-out sibling of
:class:`~repro.core.executor.BatchExecutor`: it fans plan execution (and bulk
UDF evaluation for sampling/labelling) across the contiguous row spans of a
:class:`~repro.db.sharding.ShardedTable` on a shared thread pool.  Threads
are the right tool here because the heavy per-span work — block random
generation, ufunc comparisons, sorts inside index builds, bulk label reads —
runs in NumPy kernels that release the GIL; the python orchestration around
them is O(groups), not O(rows).

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
single span — degrades to a deterministic serial loop with no pool involved.
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
    ExecutionResult,
    GroupExecutionCounts,
    _sampled_positives,
    drop_members,
    sampled_members,
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


@dataclass
class _GroupSegment:
    """One group's row slice falling inside one span.

    ``rows`` are the group's global row ids within the span (ascending);
    ``already`` the sorted already-sampled members among them (excluded from
    the probabilistic pass *inside the worker* —
    :func:`~repro.core.executor.drop_members`, off the serial critical
    path).  ``position_offset`` is
    the index of this segment's first candidate within the group's full
    candidate list, which addresses the group's coin streams.
    """

    key: Hashable
    code: int
    retrieve_probability: float
    conditional_evaluate: float
    rows: np.ndarray
    already: np.ndarray
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


def build_span_tasks(
    index: GroupIndex,
    plan: ExecutionPlan,
    sampled_ids: Dict[Hashable, np.ndarray],
) -> Tuple[List[List[_GroupSegment]], Dict[Hashable, GroupExecutionCounts]]:
    """Partition every group's candidate rows into per-span worker tasks.

    Returns ``(span_tasks, group_counts)``: one task list per index span
    (``span_boundaries()`` order) and a zero-initialised counts dict covering
    every group.  Pure function of the plan and inputs — shared by the
    thread- and process-pool executors so their work decomposition cannot
    drift.
    """
    group_counts: Dict[Hashable, GroupExecutionCounts] = {}
    bounds = np.asarray(index.span_boundaries(), dtype=np.intp)
    num_spans = len(bounds) - 1
    span_tasks: List[List[_GroupSegment]] = [[] for _ in range(num_spans)]
    empty = np.empty(0, dtype=np.intp)

    for code, (key, rows) in enumerate(index.items()):
        decision = plan.decision(key)
        group_counts[key] = GroupExecutionCounts()
        retrieve_probability = decision.retrieve_probability
        conditional_evaluate = decision.conditional_evaluate_probability
        if retrieve_probability <= 0.0 or rows.size == 0:
            continue
        already = sampled_ids.get(key)
        # Sorted already-sampled ids restricted to actual group members; the
        # O(n) removal itself happens later, inside the span workers.
        already_members = (
            sampled_members(rows, already) if already is not None else empty
        )
        if rows.size - already_members.size <= 0:
            continue
        row_cuts = np.searchsorted(rows, bounds)
        already_cuts = np.searchsorted(already_members, bounds)
        for span in range(num_spans):
            lo, hi = int(row_cuts[span]), int(row_cuts[span + 1])
            alo, ahi = int(already_cuts[span]), int(already_cuts[span + 1])
            if hi - lo - (ahi - alo) > 0:
                span_tasks[span].append(
                    _GroupSegment(
                        key=key,
                        code=code,
                        retrieve_probability=retrieve_probability,
                        conditional_evaluate=conditional_evaluate,
                        rows=rows[lo:hi],
                        already=already_members[alo:ahi],
                        position_offset=lo - alo,
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
        seg = drop_members(task.rows, task.already)
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
        task_counts = counts.setdefault(task.code, GroupExecutionCounts())
        if retrieved.size == 0:
            continue
        evaluated = int(evaluate_mask.sum())
        keep_mask = ~evaluate_mask
        if evaluated:
            group_outcomes = outcomes[offset : offset + evaluated]
            offset += evaluated
            positives = int(group_outcomes.sum())
            negatives = evaluated - positives
            task_counts.evaluated_correct += positives
            task_counts.retrieved_correct += positives
            task_counts.evaluated_incorrect += negatives
            task_counts.retrieved_incorrect += negatives
            task_counts.returned += positives
            keep_mask = keep_mask.copy()
            keep_mask[np.flatnonzero(evaluate_mask)] = group_outcomes
        unevaluated = int(retrieved.size) - evaluated
        task_counts.returned += unevaluated
        kept = retrieved[keep_mask]
        if kept.size:
            previous = returned.get(task.code)
            returned[task.code] = (
                kept if previous is None else np.concatenate([previous, kept])
            )
    return returned, counts


def merge_span_outcomes(
    index: GroupIndex,
    outcomes: Sequence[_SpanOutcome],
    group_counts: Dict[Hashable, GroupExecutionCounts],
    free_positives: Sequence[int],
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
    parts: List[np.ndarray] = [np.asarray(free_positives, dtype=np.intp)]
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
        spans = _table_spans(table)
        if (
            self.max_workers == 1
            or len(spans) <= 2  # a single span
            or ids.size < _MIN_PARALLEL_EVAL_ROWS
        ):
            return udf.evaluate_rows(table, ids)
        masks = []
        for start, stop in zip(spans, spans[1:]):
            mask = (ids >= start) & (ids < stop)
            if mask.any():
                masks.append(mask)
        if len(masks) <= 1:
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
        _metrics.counter("repro_executor_runs_total", backend="parallel").inc()
        root = int(self.random_state.integers(0, 2**63))
        sampled_ids, free_positives = _sampled_positives(sample_outcome)
        span_tasks, group_counts = build_span_tasks(index, plan, sampled_ids)

        # Span indices (not list positions after filtering) name the shard
        # trace spans, so ``shard:<i>`` is deterministic for a given layout
        # regardless of which spans end up with work or how the pool
        # schedules them.
        active = [
            (span_index, tasks)
            for span_index, tasks in enumerate(span_tasks)
            if tasks
        ]
        if self.max_workers == 1 or len(active) <= 1:
            outcomes = [
                self._run_span_traced(span_index, root, table, udf, ledger, tasks)
                for span_index, tasks in active
            ]
        else:
            pool = shared_pool(self.max_workers)
            # Each worker runs in a copy of the submitting context, so the
            # per-shard trace spans it opens parent under this query's
            # current span even though the pool threads are long-lived and
            # shared across queries.  (A Context cannot be entered twice
            # concurrently, hence one copy per task.)
            futures = [
                pool.submit(
                    contextvars.copy_context().run,
                    self._run_span_traced,
                    span_index,
                    root,
                    table,
                    udf,
                    ledger,
                    tasks,
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

        returned = merge_span_outcomes(index, outcomes, group_counts, free_positives)

        return ExecutionResult(
            returned_row_ids=returned,
            ledger=ledger,
            group_counts=group_counts,
        )

    def _run_span_traced(
        self,
        span_index: int,
        root: int,
        table: Table,
        udf: UserDefinedFunction,
        ledger: CostLedger,
        tasks: List[_GroupSegment],
    ) -> _SpanOutcome:
        """Run one span inside a ``shard:<i>`` trace span.

        The shard span's work counters are the exact amounts the worker
        charged to the ledger — recorded via :meth:`Span.add`, never by
        diffing the ledger, which sibling shards mutate concurrently.  With
        no active trace this adds one ``ContextVar`` read over
        :meth:`_run_span`.
        """
        with _trace.span(f"shard:{span_index}") as shard_span:
            outcome = self._run_span(root, table, udf, ledger, tasks)
            shard_span.add("retrievals", outcome.retrieved)
            shard_span.add("udf_evals", outcome.evaluated_charge)
            shard_span.annotate("groups", len(tasks))
        return outcome

    def _run_span(
        self,
        root: int,
        table: Table,
        udf: UserDefinedFunction,
        ledger: CostLedger,
        tasks: List[_GroupSegment],
    ) -> _SpanOutcome:
        """Execute one span's group segments: coins, charge, one bulk UDF call."""
        # Span boundary = cancellation point.  Pool workers run in a copy of
        # the submitting context, so the request's deadline contextvar is
        # visible here; an expired request stops before this span charges.
        check_deadline("execute-span")
        retrieved_per_task, evaluate_per_task, total_retrieved = span_coin_pass(
            root, tasks
        )
        to_evaluate = concat_to_evaluate(retrieved_per_task, evaluate_per_task)

        # Charge the whole span before any of its UDF work (the serial
        # backends' charge-before-evaluate order, at span granularity): a
        # hard budget stops the span before any un-paid-for value could land
        # in the memo cache.  The lock makes concurrent span charges exact.
        evaluated_charge = 0
        with self._ledger_lock:
            if total_retrieved:
                ledger.charge_retrieval(total_retrieved)
            if to_evaluate.size:
                if self.free_memoized:
                    evaluated_charge = int(to_evaluate.size) - int(
                        udf.memoized_mask(to_evaluate).sum()
                    )
                else:
                    evaluated_charge = int(to_evaluate.size)
                if evaluated_charge:
                    ledger.charge_evaluation(evaluated_charge)

        outcomes = (
            udf.evaluate_rows(table, to_evaluate)
            if to_evaluate.size
            else np.empty(0, dtype=bool)
        )

        returned, counts = fold_span_outcomes(
            tasks, retrieved_per_task, evaluate_per_task, outcomes
        )
        return _SpanOutcome(
            returned=returned,
            counts=counts,
            retrieved=total_retrieved,
            evaluated_charge=evaluated_charge,
        )
