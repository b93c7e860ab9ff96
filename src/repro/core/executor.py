"""Probabilistic plan execution (paper Section 3.2, "Execution" step).

Given an :class:`~repro.core.plan.ExecutionPlan`, an executor walks every
group and

1. retrieves each tuple with probability ``R_a`` (charging ``o_r``),
2. evaluates each retrieved tuple with probability ``E_a / R_a`` (charging
   ``o_e``); evaluated tuples are returned only when the UDF passes,
   unevaluated retrieved tuples are returned unconditionally,
3. skips tuples that were already evaluated during sampling — their positive
   members are added to the output for free, exactly as Section 4.2 allows.

One kernel, two coin sources, two span placements
-------------------------------------------------

Every vectorised backend runs the same kernel — candidates from the one
:func:`~repro.sampling.sampler.candidate_frame`, coins, then one memo pass
per evaluated batch: a single
:meth:`~repro.db.udf.UserDefinedFunction.evaluate_rows` over the retrieved
rows and their evaluation mask reads each row's memo state once and, from
that read, charges the ledger before any UDF work, evaluates only the
picked rows the memo does not know, and returns a per-row ``passed`` array
that one :func:`fold_group` turns into the answer ``retrieved[~mask |
passed]`` — so a change to exclusion, charging or folding is made once and
proven by every backend's parity suite.  What differs is where the coins
come from and where the work runs:

* **Sequential coins** — :class:`BatchExecutor`, the default: one NumPy pass
  per group on the calling thread, coins drawn in order from the seeded
  generator (the discipline below).  :class:`PlanExecutor` is its
  paper-faithful tuple-at-a-time reference — python loops, one ledger
  charge per tuple, one UDF call per evaluated row — kept apart on purpose
  (it shares only the free positives' order, and excludes sampled rows
  through a whole-table mask of its own), because the differential tests
  compare the two.
* **Counter coins** — :class:`~repro.core.parallel.ParallelBatchExecutor`:
  position-addressable SplitMix64 streams, so results are invariant to
  shard layout and worker count, over spans run *inline* on the calling
  thread or (:class:`~repro.core.procpool.ProcessPoolBatchExecutor`) in
  *worker processes*.  Seeds are not comparable across the two coin
  sources, only within each.

Both copy the rows a coin or the memo picked by one count-first rule,
:func:`~repro.db.table.select_rows`: the retrieval coins, the fold's keep
mask, the span coin pass's per-candidate evaluation mask and the UDF's
pending rows are counted first (``np.count_nonzero``); every row passing
hands on the input array itself, none an empty one, and otherwise one
``compress`` copies them.  :class:`BatchExecutor` counts its evaluation
mask the same way: all-true becomes ``None`` (every retrieved row is
evaluated) and all-false skips the UDF call and the fold.  SLSQP leaves
many probabilities a hair from 0 or 1 (R = 2.3e-16 over 11 483 rows, or
1 − 2.2e-16 over 24 740), whose coins all fail or all pass; between those,
numpy 2.4's ``compress`` is 3–5x faster than a boolean-index gather.  The
coins drawn, and so the rows chosen, are the same either way: only how they
are copied differs.

Two coin sources remain by measurement, not by oversight.  "Serial is one
span on zero workers" does not hold: on the benchmark's four cached
``warm_hits`` plans (20k rows, 4 shards, 8 groups; per plan the least of
five medians of 200 runs, on a shared 2-core box) ``BatchExecutor.execute``
takes 0.15–0.22 ms and ``ParallelBatchExecutor().execute`` 0.9–1.4 ms
(0.2–0.3 and 0.7–1.0 ms unsharded), most of the gap inside the counter
coins themselves, and the two streams
return different rows for one seed — which would re-baseline every
committed answers digest and work counter.  Each path is the better one on
a benchmark workload (``warm_hits`` serial, ``udf_process`` process), and
the choice is the configured backend, not an option of this module.

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
stratified sampler reads the same arrays when it tops an outcome up and
cannot import this module; the names are re-exported below for the
backends and tests that use them.  What a plan hit then does per group is
flip coins over a ready array; what it returns is one ``np.concatenate`` of
per-group chunks — the array the caller receives — so no per-row python
object is built anywhere between the coins and the caller.

Identity keys are sufficient because both inputs are replaced, never
edited, when the data they describe changes: an append gives the table a
new (extended) index object, whose memo starts empty, and evidence that
gained a row is a new :class:`~repro.sampling.sampler.SampleOutcome`, which
no older frame is filed under.  A stale frame is therefore unreachable, not
merely invalidated.  The converse holds too, and the update path relies on
it: evidence that gained *nothing* stays the same object
(:meth:`SampleOutcome.merge <repro.sampling.sampler.SampleOutcome.merge>`
returns a sole non-empty operand as is — safe because evidence is
immutable), so a refresh that drew no row executes over the frame its
sampler, or the other signature's refresh, already built: one exclusion
pass per changed evidence, not one per reader.  The memo entry dies with
whichever input dies first (the index owns it; a weak reference to the
outcome removes it), the frame references neither, and nothing of it is
attached to the outcome — so it is never pickled into warm state; a
restored plan rebuilds its frame on the first hit.  With the caches off
every query brings a fresh outcome and the frame is simply rebuilt per
query by the same (cheap) function: there is no second code path.

Shared coin discipline
----------------------

Both sequential backends (:class:`BatchExecutor`, :class:`PlanExecutor`)
consume the random stream identically, so for a fixed seed
they produce *exactly* the same returned row ids and ledger counts — the
differential property tests in ``tests/properties`` pin this.  Per group, in
:attr:`GroupIndex.values` order:

* ``R_a <= 0``: the group is skipped, no coins drawn;
* retrieval coins: none when ``R_a >= 1`` (every candidate retrieved),
  otherwise one uniform per candidate tuple in row order;
* evaluation coins: none when ``E_a/R_a <= 0`` (nothing evaluated) or
  ``E_a/R_a >= 1`` (every retrieved tuple evaluated), otherwise one uniform
  per *retrieved* tuple in row order.

Each tuple still sees an independent Bernoulli trial — the discipline only
fixes where its coin sits in the stream (numpy's block and scalar ``random``
draws are stream-identical), which is what makes a vectorised backend
bit-compatible with the serial reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    List,
    Optional,
    Protocol,
    runtime_checkable,
)

import numpy as np
import numpy.typing as npt

from repro.core.plan import ExecutionPlan
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
from repro.stats.random import RandomState, SeedLike, as_random_state


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


@runtime_checkable
class ExecutorAware(Protocol):
    """Strategies that accept an injected plan-execution backend.

    A strategy is ``ExecutorAware`` when it exposes an ``executor_factory``
    attribute: a callable building its :class:`ExecutorBackend` from the
    per-query :class:`~repro.stats.random.RandomState` (or ``None`` for the
    strategy's default).  The serving layer *requires* this protocol before
    injecting its configured backend — an explicit ``isinstance`` check
    instead of ``hasattr`` poking, so a strategy spelling the attribute
    differently fails loudly at service construction rather than silently
    running serial.
    """

    executor_factory: Optional[Callable[[RandomState], "ExecutorBackend"]]


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
    before any of its UDF work happens instead of mid-group.

    ``free_memoized=True`` switches the ledger accounting to serving
    semantics: rows whose UDF value is already memoised are not re-charged,
    mirroring a production system that never pays twice for the same
    expensive predicate.  The default (``False``) keeps the paper's
    accounting, where every execution-phase evaluation is charged.
    """

    def __init__(self, random_state: SeedLike = None, free_memoized: bool = False):
        self.random_state: RandomState = as_random_state(random_state)
        self.free_memoized = free_memoized

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
            decision = plan.decision(key)
            counts = GroupExecutionCounts()
            group_counts[key] = counts
            retrieve_probability = decision.retrieve_probability
            conditional_evaluate = decision.conditional_evaluate_probability
            if retrieve_probability <= 0.0 or candidates.size == 0:
                continue

            # One retrieval coin per candidate tuple, drawn in a single block.
            if retrieve_probability >= 1.0:
                retrieved = candidates
            else:
                coins = rng.random(candidates.size)
                retrieved = select_rows(candidates, coins < retrieve_probability)
            if retrieved.size == 0:
                continue
            ledger.charge_retrieval(int(retrieved.size))

            # The evaluation mask by count: ``None`` when every retrieved row
            # is picked, no UDF call when none is.
            picked = int(retrieved.size) if conditional_evaluate > 0.0 else 0
            evaluate_mask = None
            if 0.0 < conditional_evaluate < 1.0:
                evaluate_mask = rng.random(retrieved.size) < conditional_evaluate
                picked = int(np.count_nonzero(evaluate_mask))
                if picked == retrieved.size:
                    evaluate_mask = None
            if picked == 0:
                chunks.append(fold_group(counts, retrieved, None, None))
                continue
            # One memo read over the retrieved rows: the ledger is charged
            # from it before any UDF work (the serial backend's order, so a
            # hard budget stops the batch before a value lands in the memo
            # cache), then only the picked rows the memo does not know are
            # evaluated.
            passed = udf.evaluate_rows(
                table, retrieved, evaluate_mask, ledger, self.free_memoized
            )
            chunks.append(fold_group(counts, retrieved, evaluate_mask, passed))

        if active_span is not None:
            active_span.add("retrievals", ledger.retrieved_count - ledger_before[0])
            active_span.add("udf_evals", ledger.evaluated_count - ledger_before[1])
        return ExecutionResult(
            returned_row_ids=np.concatenate(chunks),
            ledger=ledger,
            group_counts=group_counts,
        )
