"""End-to-end query evaluation strategies.

:class:`IntelSample` is the paper's main algorithm (Section 6.2): choose a
correlated column (real or virtual), sample to estimate group selectivities,
solve Convex Program 4.1 and execute the resulting probabilistic plan.
:class:`OptimalOracle` is the unrealistic "Optimal" baseline that is handed
the exact selectivities and only pays for execution.

Both implement the engine's evaluation-strategy protocol
(``run(table, query, ledger) -> QueryResult``) and also expose a direct
``answer(...)`` entry point for callers that do not want to go through the
query layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Optional

import numpy as np

from repro.core.bigreedy import solve_bigreedy
from repro.core.column_selection import (
    LabeledSample,
    build_virtual_column,
    draw_labeled_sample,
    select_correlated_column,
)
from repro.core.constraints import CostModel, QueryConstraints
from repro.core.executor import BatchExecutor, ExecutorBackend
from repro.core.groups import SelectivityModel
from repro.core.plan import ExecutionPlan
from repro.core.sampling_program import solve_with_samples
from repro.db.engine import QueryResult
from repro.db.query import SelectQuery
from repro.db.table import Table
from repro.db.udf import CostLedger, UserDefinedFunction
from repro.obs.trace import span as _span
from repro.resilience.deadline import check_deadline
from repro.sampling.sampler import GroupSampler, SampleOutcome
from repro.sampling.schemes import SamplingScheme, TwoThirdPowerScheme
from repro.solvers.linear import InfeasibleProblemError
from repro.stats.random import RandomState, SeedLike, as_random_state


def _cost_model_from_ledger(ledger: CostLedger) -> CostModel:
    return CostModel(
        retrieval_cost=ledger.retrieval_cost,
        evaluation_cost=ledger.evaluation_cost,
    )


def _constraints_from_query(query: SelectQuery) -> QueryConstraints:
    return QueryConstraints(alpha=query.alpha, beta=query.beta, rho=query.rho)


def _probe_bulk_evaluator(
    executor_factory: Callable[[RandomState], ExecutorBackend],
    udf: UserDefinedFunction,
):
    """The executor's ``evaluate_rows`` bound to ``udf``, if it has one.

    Drop-in for ``udf.evaluate_rows`` in sampling and labelling, so a
    process executor can fan the bulk evaluation across its workers.  A
    throwaway, fixed-seed instance is built purely to read configuration —
    the real executor is still created (with its proper child stream) at the
    execution step, so the pipeline's random-stream consumption is unchanged
    whether or not the backend is parallel.  UDF outcomes are deterministic,
    so fanning sampling/labelling evaluations across shards alters wall-clock
    only, never statistics.
    """
    evaluate_rows = getattr(executor_factory(as_random_state(0)), "evaluate_rows", None)
    if evaluate_rows is None:
        return None
    return lambda table, row_ids, ledger=None: evaluate_rows(table, udf, row_ids, ledger)


def _udf_from_query(query: SelectQuery) -> UserDefinedFunction:
    """The one UDF predicate an approximate query optimises (pipeline and service)."""
    predicates = query.udf_predicates
    if not predicates:
        raise ValueError(
            "approximate query has no UDF predicate to optimize; run it "
            "exactly (alpha=beta=1) or add a UdfPredicate"
        )
    if len(predicates) > 1:
        raise ValueError(
            "the pipeline handles a single UDF predicate; use "
            "repro.core.extensions.multi_predicate for conjunctions"
        )
    return predicates[0].udf


@dataclass
class IntelSampleReport:
    """Diagnostics attached to an Intel-Sample run."""

    correlated_column: str
    used_virtual_column: bool
    sample_size: int
    plan: ExecutionPlan
    model: SelectivityModel
    expected_cost: float
    used_fallback: bool
    column_costs: Optional[dict] = None
    # Serving hooks: the raw statistics a caching layer needs to amortise
    # repeated queries (see repro.serving).
    labeled: Optional[LabeledSample] = None
    sample_outcome: Optional[SampleOutcome] = None
    working_table: Optional[Table] = None


class IntelSample:
    """The paper's sampling-based approximate evaluation strategy.

    Parameters
    ----------
    sampling_scheme:
        How many tuples to sample per group; defaults to the paper's
        Two-Third-Power rule with ``num = 2.5 * alpha``.
    correlated_column:
        Fix the correlated column instead of searching for one.
    use_virtual_column:
        Build a logistic-regression virtual column (Section 4.4, second
        method) instead of choosing a real column.
    independent:
        Use the independent-groups convex program (default) rather than the
        unknown-correlations variant.
    column_sample_fraction:
        Fraction of rows labelled up-front for column selection / virtual
        column training (the paper uses 1%).
    executor_factory:
        Maps a :class:`RandomState` to an
        :class:`~repro.core.executor.ExecutorBackend`; defaults to the
        vectorised :class:`~repro.core.executor.BatchExecutor`.  Pass
        ``lambda rng: PlanExecutor(random_state=rng)`` to run on the
        tuple-at-a-time reference backend (seed-for-seed identical results,
        paper-faithful per-tuple charging).
    """

    def __init__(
        self,
        sampling_scheme: Optional[SamplingScheme] = None,
        correlated_column: Optional[str] = None,
        use_virtual_column: bool = False,
        num_buckets: int = 10,
        independent: bool = True,
        column_sample_fraction: float = 0.01,
        random_state: SeedLike = None,
        executor_factory: Optional[Callable[[RandomState], ExecutorBackend]] = None,
    ):
        self.sampling_scheme = sampling_scheme
        self.correlated_column = correlated_column
        self.use_virtual_column = use_virtual_column
        self.num_buckets = num_buckets
        self.independent = independent
        self.column_sample_fraction = column_sample_fraction
        self.random_state: RandomState = as_random_state(random_state)
        self.executor_factory = executor_factory or BatchExecutor

    # -- engine strategy protocol ---------------------------------------------------
    def run(self, table: Table, query: SelectQuery, ledger: CostLedger) -> QueryResult:
        """Evaluate ``query`` approximately (engine strategy entry point)."""
        constraints = _constraints_from_query(query)
        udf = _udf_from_query(query)
        column = query.correlated_column or self.correlated_column
        return self.answer(table, udf, constraints, ledger, correlated_column=column)

    # -- direct API -------------------------------------------------------------------
    def answer(
        self,
        table: Table,
        udf: UserDefinedFunction,
        constraints: QueryConstraints,
        ledger: Optional[CostLedger] = None,
        correlated_column: Optional[str] = None,
        cached_labeled: Optional[LabeledSample] = None,
        cached_outcomes: Optional[Mapping[str, SampleOutcome]] = None,
    ) -> QueryResult:
        """Run the full pipeline and return the approximate result.

        ``cached_labeled`` and ``cached_outcomes`` inject statistics whose
        UDF cost was paid by an earlier query (see
        :class:`repro.serving.stats_cache.StatisticsCache`): an injected
        labelled sample skips the up-front labelling draw, and an injected
        per-column :class:`SampleOutcome` counts toward the sampling
        allocation so only the shortfall (usually nothing) is sampled fresh.
        """
        ledger = ledger if ledger is not None else CostLedger()
        cost_model = _cost_model_from_ledger(ledger)
        column = correlated_column or self.correlated_column
        udf_counters_before = udf.counter_snapshot()
        bulk_evaluator = _probe_bulk_evaluator(self.executor_factory, udf)

        labeled = cached_labeled if cached_labeled is not None else LabeledSample()
        column_costs = None
        used_virtual = False
        working_table = table

        # Step 0 — find a correlated column if none was designated.  Each
        # pipeline step runs inside a trace span (no-ops without an active
        # trace); serial steps pass the ledger so their span records the
        # exact work-counter delta they incurred.
        if column is None:
            with _span("column-selection", ledger=ledger) as section:
                if not labeled.size:
                    labeled = draw_labeled_sample(
                        table,
                        udf,
                        ledger,
                        fraction=self.column_sample_fraction,
                        random_state=self.random_state.child(),
                        bulk_evaluator=bulk_evaluator,
                    )
                if self.use_virtual_column:
                    exclude = [
                        name for name in ("record_id",) if table.schema.has_column(name)
                    ]
                    virtual = build_virtual_column(
                        table,
                        labeled,
                        num_buckets=self.num_buckets,
                        exclude_columns=exclude,
                        random_state=self.random_state.child(),
                    )
                    working_table = virtual.table
                    column = virtual.column_name
                    used_virtual = True
                else:
                    selection = select_correlated_column(
                        table,
                        labeled,
                        constraints,
                        cost_model,
                        exclude_columns=("record_id",),
                    )
                    column = selection.best_column
                    column_costs = selection.estimated_costs
                section.annotate("column", column)

        # Step 1 — group by the correlated column (shared cached index: the
        # serving layer and repeated queries reuse the same factorisation).
        with _span("group-index"):
            index = working_table.group_index(column)
        cached_outcome = (cached_outcomes or {}).get(column)
        if used_virtual:
            # The labelled rows fitted the model and the bucket edges, so
            # their buckets are not a fair sample of their buckets'
            # selectivity: as evidence they bias every estimate towards the
            # model's fit (a .67 / .64 precision / recall satisfaction rate
            # on prosper at rho = .8).  They are neither evidence nor paid-for
            # output here: the sampler draws fresh evidence for every bucket
            # (about 8 % more evaluations there) and the executor treats them
            # as any other row.  Cached outcomes are never over a virtual
            # column (it is rebuilt per run), so none is read.
            cached_outcome = prior = None
        elif cached_outcome is not None:
            # A caching layer stores the merged outcome of earlier runs.  Any
            # labelled rows it does not already cover (e.g. a sample drawn
            # fresh this run) are folded in rather than discarded — their UDF
            # cost is paid, so they count as evidence and as sunk samples.
            prior = cached_outcome
            if labeled.size:
                prior = cached_outcome.merge(
                    labeled.excluding(cached_outcome).to_sample_outcome(index)
                )
        else:
            prior = labeled.to_sample_outcome(index) if labeled.size else None

        # Step 2 — sample to estimate selectivities.  Every step boundary is
        # a cancellation point (the steps' own loops check again at finer
        # grain).
        check_deadline("pipeline")
        with _span("sampling", ledger=ledger) as section:
            scheme = self.sampling_scheme or TwoThirdPowerScheme(
                num=2.5 * constraints.alpha
            )
            allocation = scheme.allocate(index.group_sizes())
            if cached_outcome is not None:
                # Cached samples count toward the allocation: only the
                # shortfall is drawn (and paid for) fresh.
                paid, _ = index.label_counts(prior.row_ids)
                allocation = {
                    key: max(0, int(requested) - int(paid[index.code_of(key)]))
                    for key, requested in allocation.items()
                }
            sampler = GroupSampler(random_state=self.random_state.child())
            outcome: SampleOutcome = sampler.sample(
                working_table,
                index,
                udf,
                allocation,
                ledger,
                already_sampled=prior,
                bulk_evaluator=bulk_evaluator,
            )
            section.annotate("sampled", outcome.total_sampled)

        # Step 3 — solve Convex Program 4.1 (an infeasible program is
        # answered by evaluating everything, with ``used_fallback`` set).
        check_deadline("pipeline")
        with _span("solve", ledger=ledger) as section:
            solution = solve_with_samples(
                index,
                outcome,
                constraints,
                cost_model=cost_model,
                independent=self.independent,
            )
            if solution.used_fallback:
                section.annotate("used_fallback", True)

        # Step 4 — execute.  The span carries no ledger: the executor
        # attributes its own work — serial backends onto this span, the
        # parallel backend onto per-shard child spans — so no charge is
        # double-counted across the tree.
        check_deadline("pipeline")
        with _span("execute"):
            executor = self.executor_factory(self.random_state.child())
            result = executor.execute(
                working_table, index, udf, solution.plan, ledger, sample_outcome=outcome
            )

        report = IntelSampleReport(
            correlated_column=column,
            used_virtual_column=used_virtual,
            sample_size=outcome.total_sampled,
            plan=solution.plan,
            model=solution.model,
            expected_cost=solution.expected_total_cost,
            used_fallback=solution.used_fallback,
            column_costs=column_costs,
            labeled=labeled,
            sample_outcome=outcome,
            working_table=working_table,
        )
        return QueryResult(
            row_ids=result.returned_row_ids,
            ledger=ledger,
            metadata={
                "strategy": "intel_sample",
                "report": report,
                "evaluations": ledger.evaluated_count,
                "retrievals": ledger.retrieved_count,
                "udf_cache": udf.counter_delta(udf_counters_before),
            },
        )


class OptimalOracle:
    """The "Optimal" baseline: exact selectivities handed to the LP for free.

    The oracle reads the true per-group selectivities without charging any
    cost (which no real system could do) and then pays only for executing the
    resulting BiGreedy plan.  It lower-bounds Intel-Sample's cost.
    """

    def __init__(
        self,
        correlated_column: Optional[str] = None,
        random_state: SeedLike = None,
        executor_factory: Optional[Callable[[RandomState], ExecutorBackend]] = None,
    ):
        self.correlated_column = correlated_column
        self.random_state: RandomState = as_random_state(random_state)
        self.executor_factory = executor_factory or BatchExecutor

    def run(self, table: Table, query: SelectQuery, ledger: CostLedger) -> QueryResult:
        """Engine strategy entry point."""
        constraints = _constraints_from_query(query)
        udf = _udf_from_query(query)
        column = query.correlated_column or self.correlated_column
        if column is None:
            raise ValueError("OptimalOracle requires an explicit correlated column")
        return self.answer(table, udf, constraints, ledger, correlated_column=column)

    def answer(
        self,
        table: Table,
        udf: UserDefinedFunction,
        constraints: QueryConstraints,
        ledger: Optional[CostLedger] = None,
        correlated_column: Optional[str] = None,
    ) -> QueryResult:
        """Solve with exact selectivities and execute the plan."""
        ledger = ledger if ledger is not None else CostLedger()
        cost_model = _cost_model_from_ledger(ledger)
        column = correlated_column or self.correlated_column
        if column is None:
            raise ValueError("OptimalOracle requires an explicit correlated column")
        index = table.group_index(column)

        # Peek at the ground truth without charging costs (unrealistic, by
        # design) — in oracle mode, so the peek leaves no trace in the UDF's
        # memo cache or counters that later accounting could mistake for
        # paid-for work.  The peek spans the whole table, so it fans across
        # shards on the process backend (oracle mode is depth-counted on the
        # parent's UDF object, which absorbs the workers' outcomes).
        bulk_evaluator = _probe_bulk_evaluator(self.executor_factory, udf)
        evaluate = bulk_evaluator if bulk_evaluator is not None else udf.evaluate_rows
        with _span("ground-truth-peek"):
            with udf.oracle_mode():
                outcomes = evaluate(table, table.row_ids)
        positives = np.flatnonzero(outcomes)
        model = SelectivityModel.from_ground_truth(index, positives)

        # BiGreedy attains the LP optimum on every feasible input, so the
        # oracle never needs a second opinion from the scipy LP: an
        # InfeasibleProblemError here means the margined LP itself has no
        # solution and evaluating everything is the only correct plan.
        used_fallback = False
        with _span("solve", ledger=ledger):
            try:
                solution = solve_bigreedy(model, constraints, cost_model)
                plan = solution.plan
            except InfeasibleProblemError:
                plan = ExecutionPlan.evaluate_everything(index.values)
                used_fallback = True

        check_deadline("pipeline")
        with _span("execute"):
            executor = self.executor_factory(self.random_state.child())
            result = executor.execute(table, index, udf, plan, ledger)
        return QueryResult(
            row_ids=result.returned_row_ids,
            ledger=ledger,
            metadata={
                "strategy": "optimal_oracle",
                "plan": plan,
                "used_fallback": used_fallback,
                "evaluations": ledger.evaluated_count,
                "retrievals": ledger.retrieved_count,
            },
        )
