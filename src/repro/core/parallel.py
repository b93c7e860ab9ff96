"""Span execution: the counter-coin kernel and its in-process placement.

:class:`ParallelBatchExecutor` is the counter-coin sibling of
:class:`~repro.core.executor.BatchExecutor`.  It owns the one span skeleton
— root key → :func:`~repro.core.executor.candidate_frame` →
:func:`build_span_tasks` → *run the spans that have work* →
:func:`merge_span_outcomes` — over the contiguous row spans of a
:class:`~repro.db.sharding.ShardedTable`, and runs every span inline on the
calling thread.  Its subclass
:class:`~repro.core.procpool.ProcessPoolBatchExecutor` runs the same spans
in worker processes: "where the spans run" is the only part it supplies, and
those are the two places spans run.

* **Candidates** come from the same memoised
  :class:`~repro.core.executor.CandidateFrame` the serial executor uses:
  already-sampled rows are excluded once per (index, sample outcome), not
  per request and not inside a worker.  A span task is a slice of a frame
  array, and the slice start *is* the coin position of its first row.
* **Charging, evaluating and folding** are the serial executor's own one
  memo pass per evaluated batch: the span's retrieved rows and evaluation
  mask go through one
  :meth:`~repro.db.udf.UserDefinedFunction.evaluate_rows`, which reads the
  memo once, charges the ledger from that read before any UDF work and
  returns a per-row ``passed`` array, and
  :func:`~repro.core.executor.fold_group` cuts the answer from it.  The
  process placement settles a span through
  :meth:`~repro.db.udf.UserDefinedFunction.merge_remote_evaluations`, the
  same one read and the same charge over the workers' outcomes.

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
  retrieved tuples, so it never depends on how many tuples earlier spans
  retrieved).

The two stream keys of a group are derived once per execution, in
:func:`build_span_tasks`, and travel on every segment of the group.  So do
the probabilities the coins are compared against: the decision's
*thresholds* (:class:`~repro.core.plan.GroupDecision`), where a near-certain
``R_a`` or ``E_a / R_a`` is exactly 0 or 1 and its coins are not drawn.  No
bookkeeping follows, as the coins are addressed by position: a group whose
``R_a`` is fixed at 0 gets no segment at all, and the groups after a skipped
block draw the coins they always did.
Because every coin is a pure function of (seed, group, position), the result
is **bitwise identical for any shard layout and either placement** — inline
or in worker processes, including every fallback to inline — which is what
lets the scale benchmark pin sharded work counters to the unsharded run at
±0.  The trade-off is that the stream differs from the sequential one shared
by ``BatchExecutor`` / ``PlanExecutor``; per-tuple marginals are unchanged
(independent uniforms either way), but seeds are not comparable across
disciplines.

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
    fold_group,
)
from repro.core.plan import ExecutionPlan
from repro.db.index import GroupIndex
from repro.db.table import Table, select_rows
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


@dataclass
class _GroupSegment:
    """One group's candidate slice falling inside one span.

    ``rows`` are the group's candidate row ids within the span (ascending;
    a slice of the shared :class:`~repro.core.executor.CandidateFrame`, so
    already-sampled rows are gone before a task exists).
    ``retrieve_probability`` / ``conditional_evaluate`` are the decision's
    thresholds (near-certain values made exactly 0 or 1).
    ``position_offset`` is the index of this segment's first candidate
    within the group's full candidate list; together with the group's
    ``retrieve_key`` / ``evaluate_key`` (its two coin streams for this
    execution) it addresses the segment's coins.
    """

    key: Hashable
    code: int
    retrieve_probability: float
    conditional_evaluate: float
    rows: np.ndarray
    position_offset: int
    retrieve_key: int
    evaluate_key: int


@dataclass
class _SpanOutcome:
    """What settling one span hands back for merging.

    ``retrieved``/``evaluated_charge`` are the exact amounts charged to the
    ledger for the span — what its ``shard:<i>`` trace span reports.
    """

    returned: Dict[int, np.ndarray]  # group code -> returned global row ids
    counts: Dict[int, GroupExecutionCounts]
    retrieved: int = 0
    evaluated_charge: int = 0


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

#: "Where the spans run": settles every active span (coins, charges, UDF
#: work, fold) and returns their outcomes in span order.
SpanRunner = Callable[[ActiveSpans, _Execution], List[_SpanOutcome]]


def _record_span_work(shard_span: _trace.Span, outcome: _SpanOutcome) -> None:
    """Put a settled span's work on its ``shard:<i>`` trace span.

    The counters are the exact amounts charged to the ledger for the span,
    recorded via :meth:`Span.add` — a process span is charged in the
    parent while its trace span is open, its UDF work done elsewhere.
    """
    shard_span.add("retrievals", outcome.retrieved)
    shard_span.add("udf_evals", outcome.evaluated_charge)
    shard_span.annotate("groups", len(outcome.counts))


def build_span_tasks(
    index: GroupIndex,
    plan: ExecutionPlan,
    frame: CandidateFrame,
    root: int,
) -> Tuple[List[List[_GroupSegment]], Dict[Hashable, GroupExecutionCounts]]:
    """Partition every group's candidate rows into per-span tasks.

    Returns ``(span_tasks, group_counts)``: one task list per index span
    (``span_boundaries()`` order) and a zero-initialised counts dict covering
    every group.  Pure function of the plan, the inputs and the execution's
    ``root`` key: ``frame.candidates`` is cut at the span bounds, the cut
    position *is* the coin position of the segment's first row, and a
    group's two stream keys are derived here once and shared by all of its
    segments — so the work decomposition of the inline and process
    placements cannot drift.
    """
    group_counts: Dict[Hashable, GroupExecutionCounts] = {}
    bounds = np.asarray(index.span_boundaries(), dtype=np.intp)
    num_spans = len(bounds) - 1
    span_tasks: List[List[_GroupSegment]] = [[] for _ in range(num_spans)]

    for code, (key, candidates) in enumerate(zip(index, frame.candidates)):
        decision = plan.decision(key)
        group_counts[key] = GroupExecutionCounts()
        if decision.retrieve_threshold <= 0.0 or candidates.size == 0:
            continue
        retrieve_key = stream_key(root, code, _PHASE_RETRIEVE)
        evaluate_key = stream_key(root, code, _PHASE_EVALUATE)
        cuts = np.searchsorted(candidates, bounds)
        for span in range(num_spans):
            lo, hi = int(cuts[span]), int(cuts[span + 1])
            if hi > lo:
                span_tasks[span].append(
                    _GroupSegment(
                        key=key,
                        code=code,
                        retrieve_probability=decision.retrieve_threshold,
                        conditional_evaluate=decision.evaluate_threshold,
                        rows=candidates[lo:hi],
                        position_offset=lo,
                        retrieve_key=retrieve_key,
                        evaluate_key=evaluate_key,
                    )
                )
    return span_tasks, group_counts


def span_coin_pass(
    tasks: List[_GroupSegment],
) -> Tuple[List[np.ndarray], List[np.ndarray], int]:
    """Flip every task's retrieval and evaluation coins (no UDF, no ledger).

    Returns ``(retrieved_per_task, evaluate_per_task, total_retrieved)`` —
    per task, the retrieved global row ids and the evaluation mask over
    them.  Pure function of ``tasks`` (which carry their stream keys): this
    is the half of span execution that process-pool workers run remotely.
    A task's probabilities are its decision's thresholds, so a near-certain
    one is exactly 0 or 1 and takes the no-coin branch: every row, or none.
    The answer differs from drawing only when a coin would have landed
    between the probability and that 0 or 1 (a band at most 1e-9 wide).
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
            coins = counter_uniforms(task.retrieve_key, task.position_offset, seg.size)
            retrieved_positions = coins < task.retrieve_probability
            retrieved = select_rows(seg, retrieved_positions)
        if task.conditional_evaluate <= 0.0 or retrieved.size == 0:
            evaluate_mask = np.zeros(retrieved.size, dtype=bool)
        elif task.conditional_evaluate >= 1.0:
            evaluate_mask = np.ones(retrieved.size, dtype=bool)
        else:
            # Per-candidate-position evaluation coins, applied to the
            # retrieved subset (see the coin discipline in the module doc).
            eval_coins = counter_uniforms(task.evaluate_key, task.position_offset, seg.size)
            per_candidate = eval_coins < task.conditional_evaluate
            evaluate_mask = (
                per_candidate
                if retrieved_positions is None
                else select_rows(per_candidate, retrieved_positions)
            )
        retrieved_per_task.append(retrieved)
        evaluate_per_task.append(evaluate_mask)
        total_retrieved += int(retrieved.size)
    return retrieved_per_task, evaluate_per_task, total_retrieved


def span_rows(
    retrieved_per_task: List[np.ndarray], evaluate_per_task: List[np.ndarray]
) -> Tuple[np.ndarray, np.ndarray]:
    """The span's retrieved rows and their evaluation mask, in task order."""
    if not retrieved_per_task:
        return np.empty(0, dtype=np.intp), np.empty(0, dtype=bool)
    return np.concatenate(retrieved_per_task), np.concatenate(evaluate_per_task)


def fold_span_outcomes(
    tasks: List[_GroupSegment],
    retrieved_per_task: List[np.ndarray],
    evaluate_per_task: List[np.ndarray],
    passed: Optional[np.ndarray],
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
    for task, retrieved, evaluate_mask in zip(
        tasks, retrieved_per_task, evaluate_per_task
    ):
        # A span holds at most one segment of a group (build_span_tasks).
        counts[task.code] = task_counts = GroupExecutionCounts()
        if retrieved.size == 0:
            continue
        end = offset + int(retrieved.size)
        kept = fold_group(
            task_counts,
            retrieved,
            evaluate_mask,
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
    """Sharded counter-coin plan executor, spans inline (see module docstring).

    Parameters
    ----------
    random_state:
        Seed for the per-execution root key; two executions with the same
        seed, plan and inputs return identical results regardless of shard
        layout or placement.
    free_memoized:
        Serving accounting — do not re-charge evaluations whose value the
        UDF already memoised (same semantics as ``BatchExecutor``).
    """

    def __init__(self, random_state: SeedLike = None, free_memoized: bool = False):
        self.random_state: RandomState = as_random_state(random_state)
        self.free_memoized = free_memoized

    def evaluate_rows(
        self, table: Table, udf: UserDefinedFunction, row_ids: Sequence[int]
    ) -> np.ndarray:
        """Evaluate ``udf`` on ``row_ids`` in one bulk call on this thread."""
        check_deadline("bulk-evaluate")
        return udf.evaluate_rows(table, np.asarray(row_ids, dtype=np.intp))

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
        """Run ``plan`` over every group of ``index``, span by span."""
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
        root = int(self.random_state.integers(0, 2**63))
        frame = candidate_frame(index, sample_outcome)
        span_tasks, group_counts = build_span_tasks(index, plan, frame, root)

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
        """Run the active spans inline, in span order."""
        return [self._run_span(run, span_index, tasks) for span_index, tasks in active]

    def _run_span(
        self, run: _Execution, span_index: int, tasks: List[_GroupSegment]
    ) -> _SpanOutcome:
        """Execute one span's group segments: coins, charge, one bulk UDF call.

        Runs inside a ``shard:<i>`` trace span (with no active trace that is
        one ``ContextVar`` read).
        """
        with _trace.span(f"shard:{span_index}") as shard_span:
            # Span boundary = cancellation point: an expired request stops
            # before this span charges.
            check_deadline("execute-span")
            retrieved_per_task, evaluate_per_task, total_retrieved = span_coin_pass(tasks)
            charged_before = run.ledger.evaluated_count
            if total_retrieved:
                run.ledger.charge_retrieval(total_retrieved)
            retrieved, evaluate_mask = span_rows(retrieved_per_task, evaluate_per_task)
            passed = None
            if evaluate_mask.any():
                # The whole span is charged before any of its UDF work (the
                # serial backends' charge-before-evaluate order, at span
                # granularity), from the one memo read inside evaluate_rows.
                passed = run.udf.evaluate_rows(
                    run.table, retrieved, evaluate_mask, run.ledger, self.free_memoized
                )
            returned, counts = fold_span_outcomes(
                tasks, retrieved_per_task, evaluate_per_task, passed
            )
            outcome = _SpanOutcome(
                returned=returned,
                counts=counts,
                retrieved=total_retrieved,
                evaluated_charge=run.ledger.evaluated_count - charged_before,
            )
            _record_span_work(shard_span, outcome)
        return outcome
