"""Span execution: the vectorised kernel over shard spans, run inline.

:class:`ParallelBatchExecutor` runs :class:`~repro.core.executor.BatchExecutor`'s
kernel over the contiguous row spans of a
:class:`~repro.db.sharding.ShardedTable`.  It owns the one span skeleton —
:func:`~repro.core.executor.candidate_frame` → :func:`build_span_tasks` →
*settle the spans that have work* → :func:`merge_span_outcomes` — and
settles every span inline on the calling thread.  Its subclass
:class:`~repro.core.procpool.ProcessPoolBatchExecutor` evaluates the same
spans' picked rows in worker processes: "where the spans are evaluated" is
the only part it supplies, and those are the two places spans run.

* **Coins** are flipped in the parent, before any span runs, from the
  coin stream ``execute`` is given, by :func:`~repro.core.executor.flip_group_coins`
  — the serial backend's coin step, group by group in index order, with its
  thresholds and skips.  :func:`build_span_tasks` then cuts each group's
  retrieved rows and evaluation mask at the span bounds.  So a seed returns
  :class:`~repro.core.executor.BatchExecutor`'s (and
  :class:`~repro.core.executor.PlanExecutor`'s) rows, ledger counts and
  per-group counts, whatever the shard layout, the worker count or a
  fallback to inline.
* **Candidates** come from the same memoised
  :class:`~repro.core.executor.CandidateFrame` the serial executor uses:
  already-sampled rows are excluded once per (index, sample outcome), not
  per request and not inside a worker.
* **Charging, evaluating and folding** are the serial executor's own one
  memo pass per evaluated batch: the span's retrieved rows and evaluation
  mask go through one
  :meth:`~repro.db.udf.UserDefinedFunction.evaluate_rows`, which reads the
  memo once, charges the ledger from that read before any UDF work and
  returns a per-row ``passed`` array, and
  :func:`~repro.core.executor.fold_group` cuts the answer from it.  A span
  whose picked rows a worker evaluated is settled through
  :meth:`~repro.db.udf.UserDefinedFunction.merge_remote_evaluations`, the
  same one read and the same charge over the worker's outcomes.

Ledger charging is span-granular (one retrieval block + one evaluation block
per span, charged before that span's UDF work), so a hard budget stops whole
spans, never mid-span.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.executor import (
    CandidateFrame,
    ExecutionResult,
    GroupExecutionCounts,
    candidate_frame,
    flip_group_coins,
    fold_group,
)
from repro.core.plan import ExecutionPlan
from repro.db.index import GroupIndex
from repro.db.table import Table, select_rows
from repro.db.udf import CostLedger, UserDefinedFunction
from repro.obs import trace as _trace
from repro.resilience.deadline import check_deadline
from repro.sampling.sampler import SampleOutcome
from repro.stats.random import SeedLike, as_random_state


@dataclass
class _GroupSegment:
    """One group's retrieved rows falling inside one span.

    ``rows`` are the group's retrieved row ids within the span (ascending);
    ``evaluate`` is the evaluation mask over them — both slices of what
    :func:`~repro.core.executor.flip_group_coins` returned for the group.
    """

    code: int
    rows: np.ndarray
    evaluate: np.ndarray


@dataclass
class _SpanOutcome:
    """What settling one span hands back for merging."""

    returned: Dict[int, np.ndarray]  # group code -> returned global row ids
    counts: Dict[int, GroupExecutionCounts]


@dataclass(frozen=True)
class _Execution:
    """What every span of one ``execute`` call shares.

    ``ledger`` is charged and ``udf`` evaluated on ``table`` by whichever
    placement settles a span.
    """

    table: Table
    udf: UserDefinedFunction
    ledger: CostLedger


#: The spans of one execution that have work: ``(span index, tasks)``, ascending.
ActiveSpans = List[Tuple[int, List[_GroupSegment]]]

#: "Where the spans run": settles every active span (charges, UDF work,
#: fold) and returns their outcomes in span order.
SpanRunner = Callable[[ActiveSpans, _Execution], List[_SpanOutcome]]


def build_span_tasks(
    index: GroupIndex,
    plan: ExecutionPlan,
    frame: CandidateFrame,
    rng: np.random.Generator,
) -> Tuple[List[List[_GroupSegment]], Dict[Hashable, GroupExecutionCounts]]:
    """Flip every group's coins, then cut the result into per-span tasks.

    Returns ``(span_tasks, group_counts)``: one task list per index span
    (``span_boundaries()`` order) and a zero-initialised counts dict covering
    every group.  The coins come from ``rng`` group by group, in index order,
    through :func:`~repro.core.executor.flip_group_coins` — exactly where
    :class:`~repro.core.executor.BatchExecutor` draws them — so the inline
    and process placements cut one answer, whatever the span bounds.
    """
    group_counts: Dict[Hashable, GroupExecutionCounts] = {}
    bounds = np.asarray(index.span_boundaries(), dtype=np.intp)
    num_spans = len(bounds) - 1
    span_tasks: List[List[_GroupSegment]] = [[] for _ in range(num_spans)]

    for code, (key, candidates) in enumerate(zip(index, frame.candidates)):
        group_counts[key] = GroupExecutionCounts()
        if candidates.size == 0:
            continue
        retrieved, evaluate, picked = flip_group_coins(rng, plan.decision(key), candidates)
        if retrieved.size == 0:
            continue
        if evaluate is None:  # every retrieved row picked, or none
            evaluate = np.full(retrieved.size, picked > 0)
        cuts = np.searchsorted(retrieved, bounds)
        for span in range(num_spans):
            lo, hi = int(cuts[span]), int(cuts[span + 1])
            if hi > lo:
                span_tasks[span].append(
                    _GroupSegment(code, retrieved[lo:hi], evaluate[lo:hi])
                )
    return span_tasks, group_counts


def span_rows(tasks: List[_GroupSegment]) -> Tuple[np.ndarray, np.ndarray]:
    """The span's retrieved rows and their evaluation mask, in task order."""
    return (
        np.concatenate([task.rows for task in tasks]),
        np.concatenate([task.evaluate for task in tasks]),
    )


def fold_span_outcomes(
    tasks: List[_GroupSegment], passed: Optional[np.ndarray]
) -> Tuple[Dict[int, np.ndarray], Dict[int, GroupExecutionCounts]]:
    """Fold UDF outcomes back into per-group returned rows and counts.

    ``passed`` is the per-row result over :func:`span_rows`' rows (same
    order; ``None`` when the span evaluated nothing).  Pure: UDF outcomes
    are deterministic, so folding a worker process's fresh evaluations
    gives bitwise the same result as folding the parent's memo-assisted ones.
    """
    counts: Dict[int, GroupExecutionCounts] = {}
    returned: Dict[int, np.ndarray] = {}
    offset = 0
    for task in tasks:
        # A span holds at most one segment of a group (build_span_tasks).
        counts[task.code] = task_counts = GroupExecutionCounts()
        end = offset + int(task.rows.size)
        kept = fold_group(
            task_counts,
            task.rows,
            task.evaluate,
            None if passed is None else passed[offset:end],
        )
        offset = end
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
    """Sharded plan executor, spans inline (see module docstring).

    Holds no state: a seed given to :meth:`execute` returns what
    :class:`~repro.core.executor.BatchExecutor` returns for it, whatever
    the shard layout or placement.
    """

    def evaluate_rows(
        self,
        table: Table,
        udf: UserDefinedFunction,
        row_ids: Sequence[int],
        ledger: Optional[CostLedger] = None,
    ) -> np.ndarray:
        """Evaluate ``udf`` on ``row_ids`` in one bulk call on this thread,
        charging ``ledger`` (when given) under its accounting."""
        check_deadline("bulk-evaluate")
        return udf.evaluate_rows(table, np.asarray(row_ids, dtype=np.intp), None, ledger)

    # -- plan execution --------------------------------------------------------
    def execute(
        self,
        table: Table,
        index: GroupIndex,
        udf: UserDefinedFunction,
        plan: ExecutionPlan,
        ledger: CostLedger,
        random_state: SeedLike,
        sample_outcome: Optional[SampleOutcome] = None,
    ) -> ExecutionResult:
        """Run ``plan`` over every group of ``index``, span by span."""
        return self._execute_spans(
            self._run_spans, table, index, udf, plan, ledger, random_state, sample_outcome
        )

    def _execute_spans(
        self,
        run_spans: SpanRunner,
        table: Table,
        index: GroupIndex,
        udf: UserDefinedFunction,
        plan: ExecutionPlan,
        ledger: CostLedger,
        random_state: SeedLike,
        sample_outcome: Optional[SampleOutcome],
    ) -> ExecutionResult:
        """The one span skeleton; ``run_spans`` is "where the spans run".

        Shared candidate frame → coins and span tasks → ``run_spans`` over
        the spans that have work → merge.  ``run_spans`` returns one
        :class:`_SpanOutcome` per active span, in span order, with every
        charge already made.
        """
        frame = candidate_frame(index, sample_outcome)
        span_tasks, group_counts = build_span_tasks(
            index, plan, frame, as_random_state(random_state).generator
        )

        # Span indices (not list positions after filtering) name the shard
        # trace spans, so ``shard:<i>`` is deterministic for a given layout
        # regardless of which spans end up with work.
        active = [
            (span_index, tasks)
            for span_index, tasks in enumerate(span_tasks)
            if tasks
        ]
        returned = merge_span_outcomes(
            index,
            run_spans(active, _Execution(table, udf, ledger)),
            group_counts,
            frame.free_positives,
        )
        return ExecutionResult(
            returned_row_ids=returned,
            ledger=ledger,
            group_counts=group_counts,
        )

    def _run_spans(self, active: ActiveSpans, run: _Execution) -> List[_SpanOutcome]:
        """Settle the active spans inline, in span order."""
        return [self._settle_span(run, span_index, tasks) for span_index, tasks in active]

    def _settle_span(
        self,
        run: _Execution,
        span_index: int,
        tasks: List[_GroupSegment],
        outcomes: Optional[np.ndarray] = None,
    ) -> _SpanOutcome:
        """Charge one span, evaluate its picked rows and fold them.

        ``outcomes`` are a worker's results for the span's picked rows (its
        :func:`span_rows` under their mask), absorbed through
        :meth:`~repro.db.udf.UserDefinedFunction.merge_remote_evaluations`;
        without them the picked rows are evaluated here.  Either way the
        whole span is charged before any of its UDF work lands (the serial
        backend's charge-before-evaluate order, at span granularity), from
        one memo read.  Runs inside a ``shard:<i>`` trace span (with no
        active trace that is one ``ContextVar`` read) that records the
        span's charges.
        """
        with _trace.span(f"shard:{span_index}") as shard_span:
            # Span boundary = cancellation point: an expired request stops
            # before this span charges.
            check_deadline("execute-span")
            rows, evaluate = span_rows(tasks)
            charged_before = run.ledger.evaluated_count
            run.ledger.charge_retrieval(int(rows.size))
            passed = None
            if outcomes is not None:
                passed = np.zeros(rows.size, dtype=bool)
                passed[evaluate] = run.udf.merge_remote_evaluations(
                    select_rows(rows, evaluate), outcomes, run.ledger
                )
            elif evaluate.any():
                passed = run.udf.evaluate_rows(run.table, rows, evaluate, run.ledger)
            returned, counts = fold_span_outcomes(tasks, passed)
            shard_span.add("retrievals", int(rows.size))
            shard_span.add("udf_evals", run.ledger.evaluated_count - charged_before)
            shard_span.annotate("groups", len(counts))
        return _SpanOutcome(returned, counts)
