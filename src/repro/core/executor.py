"""Probabilistic plan execution (paper Section 3.2, "Execution" step).

Given an :class:`~repro.core.plan.ExecutionPlan`, an executor walks every
group and

1. retrieves each tuple with probability ``R_a`` (charging ``o_r``),
2. evaluates each retrieved tuple with probability ``E_a / R_a`` (charging
   ``o_e``); evaluated tuples are returned only when the UDF passes,
   unevaluated retrieved tuples are returned unconditionally,
3. skips tuples that were already evaluated during sampling — their positive
   members are added to the output for free, exactly as Section 4.2 allows.

One kernel, one coin stream, three placements
---------------------------------------------

Every vectorised backend runs the same kernel — candidates from the one
:func:`~repro.sampling.sampler.candidate_frame`, coins from the one
:func:`flip_group_coins`, then one memo pass per evaluated batch: a single
:meth:`~repro.db.udf.UserDefinedFunction.evaluate_rows` over the retrieved
rows and their evaluation mask reads each row's memo state once and, from
that read, charges the ledger before any UDF work, evaluates only the
picked rows the memo does not know, and returns a per-row ``passed`` array
that one :func:`fold_group` turns into the answer ``retrieved[~mask |
passed]`` — so a change to exclusion, coins, charging or folding is made
once and proven by every backend's parity suite.  What differs is where the
evaluation runs:

* :class:`BatchExecutor`, the default: one NumPy pass per group on the
  calling thread.  :class:`PlanExecutor` is its paper-faithful
  tuple-at-a-time reference — python loops, one ledger charge per tuple,
  one UDF call per evaluated row — kept apart on purpose (it shares only
  the free positives' order, and excludes sampled rows through a
  whole-table mask of its own), because the differential tests compare the
  two.
* :class:`~repro.core.parallel.ParallelBatchExecutor` flips the same coins
  in the same order, cuts each group's retrieved rows and evaluation mask at
  the shard bounds, and evaluates span by span on the calling thread;
  :class:`~repro.core.procpool.ProcessPoolBatchExecutor` sends each span's
  picked rows to a worker process and settles the outcomes in the parent.

So a seed returns the same rows, ledger counts and per-group counts from
every backend, whatever the shard layout or worker count; only the
granularity at which a hard budget trips differs (a group, or a span).

Both copy the rows a coin or the memo picked by one count-first rule,
:func:`~repro.db.table.select_rows`: the retrieval coins, the fold's keep
mask and the UDF's pending rows are counted first (``np.count_nonzero``);
every row passing hands on the input array itself, none an empty one, and
otherwise one ``compress`` copies them.  The evaluation mask is counted the
same way: all-true becomes ``None`` (every retrieved row is evaluated) and
all-false skips the UDF call and the fold.  Between those, numpy 2.4's
``compress`` is 3–5x faster than a boolean-index gather.  The coins drawn,
and so the rows chosen, are the same either way: only how they are copied
differs.

SLSQP leaves many probabilities a hair from 0 or 1 (R = 2.3e-16 over 11 483
rows, or 1 − 2.2e-16 over 24 740).  Over one 8 s ``durable_churn`` run
(7 024 executed groups) their groups held 60 % of the candidate rows and
70 % of the retrieval coins; no such value lay farther than 7e-14 from 0
or 1, and no other value nearer than 1e-4.  Their outcome is fixed before
any coin is drawn: :class:`~repro.core.plan.GroupDecision` derives, once, a
*threshold* per phase that is the probability, or exactly 0 or 1 when the
probability is within ``_PROBABILITY_TOLERANCE`` of either, and
:func:`flip_group_coins` compares coins against the thresholds.  A fixed
outcome takes the no-row or every-row branch with no coin drawn and no
compare, and moves the generator past the coins the reference would have
drawn (:func:`~repro.stats.random.skip_uniforms`, a PCG64 ``advance``), so
every later group sees the reference's coins: the skip costs 3.5–4 µs where
drawing, comparing and selecting 12.5k–63k coins costs 60–280 µs (numpy
2.4, one core).  An answer therefore differs from :class:`PlanExecutor`'s
only when some coin of a fixed group lands between the probability and the
0 or 1 it is fixed at, a band as wide as that distance: at most 1e-9, and
on that run at most 7e-14.

The prepared candidate frame
----------------------------

Step 3 is the only part of execution that does not depend on the request:
"this group's rows minus its already-sampled rows" and "the sampled
positives" are a pure function of the group index and the sample outcome,
both of which a cached plan reuses unchanged from hit to hit.
:func:`~repro.sampling.sampler.build_candidate_frame` computes them once —
per group a sorted-membership exclusion
(:func:`~repro.sampling.sampler.drop_members` over the group's slice of
:meth:`Evidence.by_group <repro.sampling.sampler.Evidence.by_group>`) — and
:func:`~repro.sampling.sampler.candidate_frame`, the one entry point every
backend uses (the span executors cut its per-group arrays at the span
bounds), memoises the result on the index (:meth:`GroupIndex.derived
<repro.db.index.GroupIndex.derived>`) under the *identity* of the outcome.
The frame lives in :mod:`repro.sampling.sampler`, not here, because the
stratified sampler draws from the same arrays and files the frame of what
it returns, and cannot import this module; the names are re-exported below for the
backends and tests that use them.  What a plan hit then does per group is
flip coins over a ready array; what it returns is one ``np.concatenate`` of
per-group chunks — the array the caller receives — so no per-row python
object is built anywhere between the coins and the caller.

Identity keys are sufficient because both inputs are replaced, never
edited, when the data they describe changes: an append gives the table a
new (extended) index object, and evidence that gained a row is a new
:class:`~repro.sampling.sampler.SampleOutcome`.  Neither replacement starts
from nothing.  The extended index inherits its parent's memo lazily — each
frame with the row count it covers — and the first lookup grows it by the
appended rows (one concatenation per group the append reached; evidence
holding an appended row is rebuilt).  Evidence a draw made or extended
comes with its frame: :meth:`GroupSampler.sample
<repro.sampling.sampler.GroupSampler.sample>` files it as it draws, the
frame the rows were drawn from minus the drawn rows.  Either way the frame
equals a from-scratch build, array for array.  The converse holds too:
evidence that gained *nothing* stays the same object (a draw that takes no
row returns the earlier outcome itself — safe because evidence is
immutable), so a refresh that drew no row executes over the frame its
sampler, or the other signature's refresh, already grew.  The memo entry
dies with the outcome (a weak reference removes it from every index
holding it) or with the last index holding it; the frame references
neither input, no extended index keeps its parent alive, and nothing of it
is attached to the outcome — so it is never written into warm state, which
holds the index's values and codes and the evidence's arrays only; a
restored plan builds its frame on the first hit.

Shared coin discipline
----------------------

Every backend consumes the random stream identically — the vectorised ones
through :func:`flip_group_coins`, the reference coin by coin — so for a
fixed seed they produce *exactly* the same returned row ids and ledger
counts; the differential property tests in ``tests/properties`` pin this.
Per group, in :attr:`GroupIndex.values` order:

* ``R_a <= 0``: the group is skipped, no coins drawn;
* retrieval coins: none when ``R_a >= 1`` (every candidate retrieved),
  otherwise one uniform per candidate tuple in row order;
* evaluation coins: none when ``E_a/R_a <= 0`` (nothing evaluated) or
  ``E_a/R_a >= 1`` (every retrieved tuple evaluated), otherwise one uniform
  per *retrieved* tuple in row order;
* a fixed outcome (a near-certain ``R_a`` or ``E_a/R_a``, above) draws
  nothing but consumes its positions: :func:`flip_group_coins` skips the
  generator past exactly the uniforms :class:`PlanExecutor` draws there
  (one per candidate, or one per retrieved tuple).

Each tuple still sees an independent Bernoulli trial — the discipline only
fixes where its coin sits in the stream (numpy's block and scalar ``random``
draws are stream-identical), which is what makes a vectorised backend
bit-compatible with the serial reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, FrozenSet, Hashable, List, Optional, Protocol, Tuple

import numpy as np
import numpy.typing as npt

from repro.core.plan import ExecutionPlan, GroupDecision
from repro.db.index import GroupIndex
from repro.db.table import Table, as_row_ids, select_rows
from repro.db.udf import CostLedger, UserDefinedFunction
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.resilience.deadline import check_deadline
from repro.sampling.sampler import SampleOutcome, candidate_frame

# Re-exported: the frame is built in ``sampling.sampler`` (which cannot import
# this module) and named from here by the span executors and the tests.
from repro.sampling.sampler import CandidateFrame, build_candidate_frame  # noqa: F401
from repro.stats.random import RandomState, SeedLike, as_random_state, skip_uniforms


@dataclass
class GroupExecutionCounts:
    """Per-group bookkeeping mirroring the paper's R+/R-/E+/E- quantities."""

    retrieved_correct: int = 0
    retrieved_incorrect: int = 0
    evaluated_correct: int = 0
    evaluated_incorrect: int = 0
    returned: int = 0

    @property
    def retrieved(self) -> int:
        """Total retrieved tuples in the group."""
        return self.retrieved_correct + self.retrieved_incorrect

    @property
    def evaluated(self) -> int:
        """Total evaluated tuples in the group."""
        return self.evaluated_correct + self.evaluated_incorrect


@dataclass
class ExecutionResult:
    """Outcome of executing a plan.

    ``returned_row_ids`` is a read-only 1-d ``intp`` array from every
    backend (whatever the constructor is given is normalised by
    :func:`~repro.db.table.as_row_ids`): elements are NumPy integers, the
    array may be shared with other results and must not be written to;
    ``returned_row_ids.tolist()`` gives python ints.
    """

    returned_row_ids: npt.NDArray[np.intp]
    ledger: CostLedger
    group_counts: Dict[Hashable, GroupExecutionCounts] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.returned_row_ids = as_row_ids(self.returned_row_ids)

    @cached_property
    def returned_set(self) -> FrozenSet[int]:
        """Returned row ids as a read-only set of python ints (built once)."""
        return frozenset(self.returned_row_ids.tolist())

    @property
    def total_cost(self) -> float:
        """Total charged cost (sampling included if it used the same ledger)."""
        return self.ledger.total_cost

    @property
    def evaluations(self) -> int:
        """Number of UDF evaluations charged to the ledger."""
        return self.ledger.evaluated_count

    @property
    def retrievals(self) -> int:
        """Number of tuple retrievals charged to the ledger."""
        return self.ledger.retrieved_count


class ExecutorBackend(Protocol):
    """Protocol shared by plan-execution backends.

    :class:`BatchExecutor` is the vectorised default;
    :class:`PlanExecutor` is the paper-faithful tuple-at-a-time reference
    kept for differential testing.  Strategies accept any implementation via
    their ``executor_factory`` hook, so the same pipeline can run on either.
    """

    def execute(
        self,
        table: Table,
        index: GroupIndex,
        udf: UserDefinedFunction,
        plan: ExecutionPlan,
        ledger: CostLedger,
        sample_outcome: Optional[SampleOutcome] = None,
    ) -> ExecutionResult:  # pragma: no cover - protocol definition
        """Run ``plan`` over every group of ``index``, charging ``ledger``."""
        ...


def fold_group(
    counts: GroupExecutionCounts,
    retrieved: np.ndarray,
    evaluate_mask: Optional[np.ndarray],
    passed: Optional[np.ndarray],
) -> np.ndarray:
    """Book one group's (or group segment's) UDF outcomes; return its output rows.

    ``passed`` is what :meth:`~repro.db.udf.UserDefinedFunction.evaluate_rows`
    returns for ``retrieved`` and ``evaluate_mask``: per retrieved row, whether
    it was evaluated and the UDF passed (``None`` when nothing was evaluated;
    an ``evaluate_mask`` of ``None`` means every row was).  A row is kept
    unless it was evaluated and failed — ``retrieved[~evaluate_mask |
    passed]``, in the group's row order, matching the serial reference.
    ``counts`` is advanced in place.
    """
    if passed is None:
        counts.returned += int(retrieved.size)
        return retrieved
    if evaluate_mask is None:
        evaluated = int(retrieved.size)
        kept = select_rows(retrieved, passed)
    else:
        evaluated = int(np.count_nonzero(evaluate_mask))
        keep = ~evaluate_mask
        keep |= passed
        kept = select_rows(retrieved, keep)
    positives = int(kept.size) - (int(retrieved.size) - evaluated)
    negatives = evaluated - positives
    counts.evaluated_correct += positives
    counts.retrieved_correct += positives
    counts.evaluated_incorrect += negatives
    counts.retrieved_incorrect += negatives
    counts.returned += int(kept.size)
    return kept


def flip_group_coins(
    rng: np.random.Generator, decision: GroupDecision, candidates: np.ndarray
) -> Tuple[np.ndarray, Optional[np.ndarray], int]:
    """Flip one group's coins where the reference draws them in the stream.

    Returns ``(retrieved, evaluate_mask, picked)``: the retrieved candidates
    (one block of retrieval coins, one per candidate), the evaluation mask
    over them (one coin per retrieved row; ``None`` when every retrieved row
    is picked, or when none is) and how many rows are picked.  A fixed
    outcome draws nothing but moves ``rng`` past the coins the reference
    would have drawn there.  The one coin step of both kernels:
    :class:`BatchExecutor` calls it per group, and
    :func:`~repro.core.parallel.build_span_tasks` per group before cutting
    the result at the span bounds.
    """
    threshold = decision.retrieve_threshold
    if 0.0 < threshold < 1.0:
        retrieved = select_rows(candidates, rng.random(candidates.size) < threshold)
    else:
        if 0.0 < decision.retrieve_probability < 1.0:
            skip_uniforms(rng, candidates.size)
        retrieved = candidates if threshold > 0.0 else candidates[:0]
    if retrieved.size == 0:
        return retrieved, None, 0
    threshold = decision.evaluate_threshold
    if 0.0 < threshold < 1.0:
        evaluate_mask = rng.random(retrieved.size) < threshold
        picked = int(np.count_nonzero(evaluate_mask))
        return retrieved, None if picked == retrieved.size else evaluate_mask, picked
    if 0.0 < decision.conditional_evaluate_probability < 1.0:
        skip_uniforms(rng, retrieved.size)
    return retrieved, None, int(retrieved.size) if threshold > 0.0 else 0


class PlanExecutor:
    """Tuple-at-a-time reference executor (paper-faithful accounting).

    Retrieval and evaluation are charged tuple by tuple and every evaluated
    row goes through the per-row UDF entry point, exactly as the paper's
    cost model narrates execution.  Use :class:`BatchExecutor` (the default
    everywhere) for speed; this backend exists to keep it honest.
    """

    def __init__(self, random_state: SeedLike = None):
        self.random_state: RandomState = as_random_state(random_state)

    def execute(
        self,
        table: Table,
        index: GroupIndex,
        udf: UserDefinedFunction,
        plan: ExecutionPlan,
        ledger: CostLedger,
        sample_outcome: Optional[SampleOutcome] = None,
    ) -> ExecutionResult:
        """Run ``plan`` over every group of ``index``.

        ``sample_outcome`` (when provided) identifies tuples whose UDF value
        was already paid for during sampling: they are excluded from the
        probabilistic pass and their positive members join the output
        directly.
        """
        _metrics.counter("repro_executor_runs_total", backend="serial").inc()
        # Serial executors attribute their ledger advance to the *current*
        # trace span (the pipeline's execute step).  The parallel backend
        # instead attributes work to its per-shard child spans, so each
        # charge appears on exactly one span either way.
        active_span = _trace.current_span()
        ledger_before = (
            (ledger.retrieved_count, ledger.evaluated_count)
            if active_span is not None
            else None
        )
        outcome = sample_outcome if sample_outcome is not None else SampleOutcome()
        sampled, flags, _ = outcome.by_group(index)
        already_sampled = np.zeros(index.total_rows(), dtype=bool)
        already_sampled[sampled] = True
        returned: List[int] = []
        group_counts: Dict[Hashable, GroupExecutionCounts] = {}

        for key, row_ids in index.items():
            # Cooperative cancellation before this group's charges: an
            # expired request never pays for further UDF work.
            check_deadline("execute")
            decision = plan.decision(key)
            counts = GroupExecutionCounts()
            group_counts[key] = counts
            retrieve_probability = decision.retrieve_probability
            conditional_evaluate = decision.conditional_evaluate_probability
            if retrieve_probability <= 0.0:
                continue
            # Phase 1 — one retrieval coin per candidate tuple, in row order
            # (no coins when retrieval is certain; see the coin discipline).
            retrieved: List[int] = []
            for row_id in row_ids:
                row_id = int(row_id)
                if already_sampled[row_id]:
                    continue
                if (
                    retrieve_probability >= 1.0
                    or self.random_state.random() < retrieve_probability
                ):
                    retrieved.append(row_id)

            # Phase 2 — retrieve/evaluate tuple by tuple, charging as we go.
            for row_id in retrieved:
                ledger.charge_retrieval()
                if conditional_evaluate <= 0.0:
                    evaluate = False
                elif conditional_evaluate >= 1.0:
                    evaluate = True
                else:
                    evaluate = self.random_state.random() < conditional_evaluate
                if evaluate:
                    ledger.charge_evaluation()
                    outcome = udf.evaluate_row(table, row_id)
                    if outcome:
                        counts.evaluated_correct += 1
                        counts.retrieved_correct += 1
                        counts.returned += 1
                        returned.append(row_id)
                    else:
                        counts.evaluated_incorrect += 1
                        counts.retrieved_incorrect += 1
                else:
                    # Returned without verification; correctness is unknown to
                    # the algorithm (the counts split is filled by auditing).
                    counts.returned += 1
                    returned.append(row_id)

        if active_span is not None:
            active_span.add("retrievals", ledger.retrieved_count - ledger_before[0])
            active_span.add("udf_evals", ledger.evaluated_count - ledger_before[1])
        return ExecutionResult(
            returned_row_ids=np.concatenate(
                [sampled[flags], np.asarray(returned, dtype=np.intp)]
            ),
            ledger=ledger,
            group_counts=group_counts,
        )


class BatchExecutor:
    """Vectorised executor: one NumPy pass and one bulk UDF call per group.

    The default backend for :class:`~repro.core.pipeline.IntelSample`,
    :class:`~repro.core.pipeline.OptimalOracle` and the serving layer.
    Thanks to the shared coin discipline it is *seed-for-seed identical* to
    :class:`PlanExecutor`: same returned row ids, same ledger counts.  The
    observable differences are performance and charging granularity — the
    ledger is charged in per-group blocks, so a hard budget stops a group
    before any of its UDF work happens instead of mid-group.  Which
    evaluations are charged at all is the ledger's accounting
    (:class:`~repro.db.udf.CostLedger`).
    """

    def __init__(self, random_state: SeedLike = None):
        self.random_state: RandomState = as_random_state(random_state)

    def execute(
        self,
        table: Table,
        index: GroupIndex,
        udf: UserDefinedFunction,
        plan: ExecutionPlan,
        ledger: CostLedger,
        sample_outcome: Optional[SampleOutcome] = None,
    ) -> ExecutionResult:
        """Run ``plan`` over every group of ``index`` (vectorised)."""
        _metrics.counter("repro_executor_runs_total", backend="batch").inc()
        # See PlanExecutor.execute: serial backends put their ledger advance
        # on the current trace span.
        active_span = _trace.current_span()
        ledger_before = (
            (ledger.retrieved_count, ledger.evaluated_count)
            if active_span is not None
            else None
        )
        frame = candidate_frame(index, sample_outcome)
        # Per-group returned chunks, concatenated once at the end: no python
        # object is built per returned row.
        chunks: List[np.ndarray] = [frame.free_positives]
        group_counts: Dict[Hashable, GroupExecutionCounts] = {}

        rng = self.random_state.generator
        for key, candidates in zip(index, frame.candidates):
            # Cooperative cancellation before this group's charges (the
            # coin draws below consume no stream positions when skipped
            # mid-loop — the request is abandoned wholesale, not resumed).
            check_deadline("execute")
            counts = GroupExecutionCounts()
            group_counts[key] = counts
            if candidates.size == 0:
                continue
            retrieved, evaluate_mask, picked = flip_group_coins(
                rng, plan.decision(key), candidates
            )
            if retrieved.size == 0:
                continue
            ledger.charge_retrieval(int(retrieved.size))
            if picked == 0:
                chunks.append(fold_group(counts, retrieved, None, None))
                continue
            # One memo read over the retrieved rows: the ledger is charged
            # from it before any UDF work (the serial backend's order, so a
            # hard budget stops the batch before a value lands in the memo
            # cache), then only the picked rows the memo does not know are
            # evaluated.
            passed = udf.evaluate_rows(table, retrieved, evaluate_mask, ledger)
            chunks.append(fold_group(counts, retrieved, evaluate_mask, passed))

        if active_span is not None:
            active_span.add("retrievals", ledger.retrieved_count - ledger_before[0])
            active_span.add("udf_evals", ledger.evaluated_count - ledger_before[1])
        return ExecutionResult(
            returned_row_ids=np.concatenate(chunks),
            ledger=ledger,
            group_counts=group_counts,
        )
