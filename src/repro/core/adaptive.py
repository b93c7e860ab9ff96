"""Adaptive joint estimation and exploitation (paper Section 4.3).

Rather than fixing the sampling parameter ``num`` up-front, the adaptive
strategy grows it incrementally: after each round of additional sampling it
re-solves Convex Program 4.1 and records the *predicted* total cost (sunk
sampling cost plus the expected execution cost of the new plan).  The
predicted cost first falls, then rises once extra sampling stops paying for
itself; when it rises the strategy stops sampling and executes the best plan
found with everything sampled so far.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.constraints import CostModel, QueryConstraints
from repro.core.executor import BatchExecutor, ExecutorBackend
from repro.core.groups import SelectivityModel
from repro.core.plan import ExecutionPlan
from repro.core.sampling_program import solve_with_samples
from repro.db.engine import QueryResult
from repro.db.table import Table
from repro.db.udf import CostLedger, UserDefinedFunction
from repro.sampling.adaptive import choose_num_adaptively, default_num_schedule
from repro.sampling.sampler import GroupSampler, SampleOutcome
from repro.sampling.schemes import TwoThirdPowerScheme
from repro.solvers.linear import InfeasibleProblemError
from repro.stats.random import RandomState, SeedLike, as_random_state


@dataclass(frozen=True)
class AdaptiveRound:
    """Diagnostics for one adaptive sampling round."""

    num: float
    total_sampled: int
    predicted_total_cost: float
    used_fallback: bool


@dataclass
class AdaptiveReport:
    """Diagnostics attached to an adaptive Intel-Sample run."""

    rounds: List[AdaptiveRound]
    chosen_num: float
    plan: ExecutionPlan
    model: SelectivityModel

    @property
    def num_rounds(self) -> int:
        """How many sampling rounds ran."""
        return len(self.rounds)


class AdaptiveIntelSample:
    """Intel-Sample with the adaptive ``num`` search of Section 4.3.

    Parameters
    ----------
    correlated_column:
        The correlated column to group by (the adaptive variant assumes the
        column is already known; combine with
        :func:`repro.core.column_selection.select_correlated_column` otherwise).
    num_schedule:
        Increasing candidate ``num`` values; defaults to
        ``{1, 2, ..., 8} * alpha``.
    patience:
        Number of consecutive predicted-cost increases tolerated before the
        search stops.
    executor_factory:
        Optional factory mapping a :class:`RandomState` to an
        :class:`~repro.core.executor.ExecutorBackend`; defaults to the
        vectorised :class:`~repro.core.executor.BatchExecutor` (pass
        ``lambda rng: PlanExecutor(random_state=rng)`` for the
        tuple-at-a-time reference backend).
    """

    def __init__(
        self,
        correlated_column: str,
        num_schedule: Optional[Sequence[float]] = None,
        patience: int = 1,
        independent: bool = True,
        random_state: SeedLike = None,
        executor_factory: Optional[Callable[[RandomState], ExecutorBackend]] = None,
    ):
        self.correlated_column = correlated_column
        self.num_schedule = list(num_schedule) if num_schedule is not None else None
        self.patience = patience
        self.independent = independent
        self.random_state: RandomState = as_random_state(random_state)
        self.executor_factory = executor_factory

    def answer(
        self,
        table: Table,
        udf: UserDefinedFunction,
        constraints: QueryConstraints,
        ledger: Optional[CostLedger] = None,
    ) -> QueryResult:
        """Run the adaptive pipeline and return the approximate result."""
        ledger = ledger if ledger is not None else CostLedger()
        cost_model = CostModel(
            retrieval_cost=ledger.retrieval_cost,
            evaluation_cost=ledger.evaluation_cost,
        )
        index = table.group_index(self.correlated_column)
        schedule = self.num_schedule or default_num_schedule(constraints.alpha)
        sampler = GroupSampler(random_state=self.random_state.child())

        outcome: Optional[SampleOutcome] = None
        rounds: List[AdaptiveRound] = []
        solved: Dict[float, Tuple[ExecutionPlan, SelectivityModel]] = {}

        def sample_and_solve(num: float) -> float:
            """One round: sample up to ``num``, re-solve, keep the plan."""
            nonlocal outcome
            allocation = TwoThirdPowerScheme(num=num).allocate(index.group_sizes())
            outcome = sampler.sample(
                table, index, udf, allocation, ledger, already_sampled=outcome
            )
            try:
                solution = solve_with_samples(
                    index,
                    outcome,
                    constraints,
                    cost_model=cost_model,
                    independent=self.independent,
                )
                predicted = solution.expected_total_cost
                plan = solution.plan
                model = solution.model
                used_fallback = solution.used_fallback
            except InfeasibleProblemError:
                model = SelectivityModel.from_sample_outcome(index, outcome)
                plan = ExecutionPlan.evaluate_everything(index.values)
                predicted = plan.expected_cost(model, cost_model)
                used_fallback = True
            rounds.append(
                AdaptiveRound(
                    num=num,
                    total_sampled=outcome.total_sampled,
                    predicted_total_cost=predicted,
                    used_fallback=used_fallback,
                )
            )
            solved[num] = (plan, model)
            return predicted

        chosen_num = choose_num_adaptively(sample_and_solve, schedule, self.patience).best_num
        best_plan, best_model = solved[chosen_num]
        executor_rng = self.random_state.child()
        if self.executor_factory is not None:
            executor: ExecutorBackend = self.executor_factory(executor_rng)
        else:
            executor = BatchExecutor(random_state=executor_rng)
        result = executor.execute(
            table, index, udf, best_plan, ledger, sample_outcome=outcome
        )
        report = AdaptiveReport(
            rounds=rounds,
            chosen_num=chosen_num,
            plan=best_plan,
            model=best_model,
        )
        return QueryResult(
            row_ids=result.returned_row_ids,
            ledger=ledger,
            metadata={
                "strategy": "adaptive_intel_sample",
                "report": report,
                "evaluations": ledger.evaluated_count,
                "retrievals": ledger.retrieved_count,
            },
        )
