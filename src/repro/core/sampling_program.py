"""Convex Program 4.1: joint estimation and exploitation (paper Section 4.2).

This is a thin, named wrapper over the estimated-selectivity machinery in
:mod:`repro.core.estimated`: once a :class:`~repro.core.groups.SelectivityModel`
is built from a :class:`~repro.sampling.sampler.SampleOutcome`, the remaining
group sizes ``t_a - F_a``, the Beta-posterior estimates ``(s_a, v_a)`` and the
already-found positives ``F_a^+`` are all in place, and the independent-groups
convex program of Section 3.3 becomes exactly Convex Program 4.1.  The module
exists so the pipeline (and readers of the code) can reference the paper's
program by name, and so the sunk sampling cost is reported alongside the plan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.constraints import CostModel, QueryConstraints
from repro.core.estimated import EstimatedSolution, solve_estimated_selectivity
from repro.core.groups import SelectivityModel
from repro.core.plan import ExecutionPlan
from repro.db.index import GroupIndex
from repro.sampling.sampler import SampleOutcome
from repro.solvers.convex import ConvexSolver


@dataclass(frozen=True)
class SamplingProgramSolution:
    """Plan plus cost breakdown for a Convex Program 4.1 solve."""

    plan: ExecutionPlan
    model: SelectivityModel
    expected_execution_cost: float
    sunk_sampling_cost: float
    independent: bool
    used_fallback: bool

    @property
    def expected_total_cost(self) -> float:
        """Expected cost including the sampling already paid for."""
        return self.expected_execution_cost + self.sunk_sampling_cost


def solve_with_samples(
    index: GroupIndex,
    outcome: SampleOutcome,
    constraints: QueryConstraints,
    cost_model: CostModel = CostModel(),
    independent: bool = True,
    solver: Optional[ConvexSolver] = None,
) -> SamplingProgramSolution:
    """Build the model from ``outcome`` and solve Convex Program 4.1."""
    model = SelectivityModel.from_sample_outcome(index, outcome)
    return solve_from_model(
        model,
        constraints,
        cost_model=cost_model,
        independent=independent,
        solver=solver,
    )


def solve_from_model(
    model: SelectivityModel,
    constraints: QueryConstraints,
    cost_model: CostModel = CostModel(),
    independent: bool = True,
    solver: Optional[ConvexSolver] = None,
) -> SamplingProgramSolution:
    """Solve Convex Program 4.1 for a model that already carries sample counts."""
    solution: EstimatedSolution = solve_estimated_selectivity(
        model,
        constraints,
        cost_model=cost_model,
        independent=independent,
        solver=solver,
    )
    sunk = sum(group.sampled for group in model) * (
        cost_model.retrieval_cost + cost_model.evaluation_cost
    )
    return SamplingProgramSolution(
        plan=solution.plan,
        model=model,
        expected_execution_cost=solution.expected_cost,
        sunk_sampling_cost=sunk,
        independent=solution.independent,
        used_fallback=solution.used_fallback,
    )
