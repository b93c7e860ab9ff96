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
from typing import Dict, List, Optional, Sequence

from repro.core.constraints import QueryConstraints
from repro.core.executor import BatchExecutor, ExecutorBackend
from repro.core.groups import SelectivityModel
from repro.core.pipeline import _cost_model_from_ledger
from repro.core.plan import ExecutionPlan
from repro.core.sampling_program import SamplingProgramSolution, solve_with_samples
from repro.db.engine import QueryResult
from repro.db.table import Table
from repro.db.udf import CostLedger, UserDefinedFunction
from repro.sampling.adaptive import choose_num_adaptively, default_num_schedule
from repro.sampling.sampler import GroupSampler, SampleOutcome
from repro.sampling.schemes import TwoThirdPowerScheme
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
    executor:
        The :class:`~repro.core.executor.ExecutorBackend` the sampling
        rounds and the execution run on; defaults to the vectorised
        :class:`~repro.core.executor.BatchExecutor` (pass ``PlanExecutor()``
        for the tuple-at-a-time reference backend).
    """

    def __init__(
        self,
        correlated_column: str,
        num_schedule: Optional[Sequence[float]] = None,
        patience: int = 1,
        independent: bool = True,
        random_state: SeedLike = None,
        executor: Optional[ExecutorBackend] = None,
    ):
        self.correlated_column = correlated_column
        self.num_schedule = list(num_schedule) if num_schedule is not None else None
        self.patience = patience
        self.independent = independent
        self.random_state: RandomState = as_random_state(random_state)
        self.executor = executor if executor is not None else BatchExecutor()

    def answer(
        self,
        table: Table,
        udf: UserDefinedFunction,
        constraints: QueryConstraints,
        ledger: Optional[CostLedger] = None,
    ) -> QueryResult:
        """Run the adaptive pipeline and return the approximate result."""
        ledger = ledger if ledger is not None else CostLedger()
        cost_model = _cost_model_from_ledger(ledger)
        index = table.group_index(self.correlated_column)
        schedule = self.num_schedule or default_num_schedule(constraints.alpha)
        sampler = GroupSampler(random_state=self.random_state.child())

        outcome: Optional[SampleOutcome] = None
        rounds: List[AdaptiveRound] = []
        solved: Dict[float, SamplingProgramSolution] = {}

        def sample_and_solve(num: float) -> float:
            """One round: sample up to ``num``, re-solve, keep the plan."""
            nonlocal outcome
            allocation = TwoThirdPowerScheme(num=num).allocate(index.group_sizes())
            outcome = sampler.sample(
                table, index, udf, allocation, ledger,
                already_sampled=outcome, executor=self.executor,
            )
            solution = solve_with_samples(
                index,
                outcome,
                constraints,
                cost_model=cost_model,
                independent=self.independent,
            )
            rounds.append(
                AdaptiveRound(
                    num=num,
                    total_sampled=outcome.total_sampled,
                    predicted_total_cost=solution.expected_total_cost,
                    used_fallback=solution.used_fallback,
                )
            )
            solved[num] = solution
            return solution.expected_total_cost

        chosen_num = choose_num_adaptively(sample_and_solve, schedule, self.patience).best_num
        best = solved[chosen_num]
        result = self.executor.execute(
            table, index, udf, best.plan, ledger, self.random_state.child(), sample_outcome=outcome
        )
        report = AdaptiveReport(
            rounds=rounds,
            chosen_num=chosen_num,
            plan=best.plan,
            model=best.model,
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
