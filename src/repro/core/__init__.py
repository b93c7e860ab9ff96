"""The paper's core contribution: correlation-aware expensive-predicate evaluation.

Public surface:

* data model — :class:`GroupStatistics`, :class:`SelectivityModel`,
  :class:`QueryConstraints`, :class:`CostModel`, :class:`ExecutionPlan`,
* optimizers — :func:`solve_perfect_information` (Section 3.1),
  :func:`solve_perfect_selectivity_lp` and :func:`solve_bigreedy`
  (Section 3.2), :func:`solve_estimated_selectivity` (Section 3.3),
  :func:`solve_with_samples` (Section 4.2),
* execution — :class:`BatchExecutor` (vectorised default),
  :class:`ParallelBatchExecutor` (the same coins, evaluated span by span,
  inline),
  :class:`ProcessPoolBatchExecutor` (the same spans in worker processes
  over memory-mapped segment files)
  and :class:`PlanExecutor` (tuple-at-a-time reference); every strategy
  builds its backend through its ``executor_factory`` (``BatchExecutor`` by
  default), and the request's ledger carries how it is charged,
* end-to-end strategies — :class:`IntelSample`, :class:`AdaptiveIntelSample`,
  :class:`OptimalOracle`,
* column selection — :func:`select_correlated_column`,
  :func:`build_virtual_column`, and
* extensions — budget-constrained, multi-predicate and join-aware variants in
  :mod:`repro.core.extensions`.
"""

from repro.core.adaptive import AdaptiveIntelSample, AdaptiveReport, AdaptiveRound
from repro.core.bigreedy import bigreedy_feasibility_conditions, solve_bigreedy
from repro.core.column_selection import (
    ColumnSelectionResult,
    LabeledSample,
    VirtualColumnResult,
    build_virtual_column,
    candidate_correlated_columns,
    draw_labeled_sample,
    estimate_column_cost,
    select_correlated_column,
)
from repro.core.constraints import CostModel, QueryConstraints
from repro.core.estimated import EstimatedSolution, solve_estimated_selectivity
from repro.core.executor import (
    BatchExecutor,
    ExecutionResult,
    ExecutorBackend,
    GroupExecutionCounts,
    PlanExecutor,
)
from repro.core.parallel import ParallelBatchExecutor
from repro.core.procpool import ProcessPoolBatchExecutor, default_max_workers
from repro.core.groups import GroupStatistics, SelectivityModel
from repro.core.hoeffding_lp import (
    LpSolution,
    SelectivityMargins,
    compute_margins,
    solve_perfect_selectivity_lp,
)
from repro.core.perfect_info import (
    PerfectInformationSolution,
    greedy_perfect_information,
    knapsack_to_perfect_information,
    solve_perfect_information,
)
from repro.core.pipeline import IntelSample, IntelSampleReport, OptimalOracle
from repro.core.plan import ExecutionPlan, GroupDecision
from repro.core.sampling_program import (
    SamplingProgramSolution,
    solve_from_model,
    solve_with_samples,
)

__all__ = [
    "GroupStatistics",
    "SelectivityModel",
    "QueryConstraints",
    "CostModel",
    "ExecutionPlan",
    "GroupDecision",
    "PerfectInformationSolution",
    "solve_perfect_information",
    "greedy_perfect_information",
    "knapsack_to_perfect_information",
    "LpSolution",
    "SelectivityMargins",
    "compute_margins",
    "solve_perfect_selectivity_lp",
    "solve_bigreedy",
    "bigreedy_feasibility_conditions",
    "EstimatedSolution",
    "solve_estimated_selectivity",
    "SamplingProgramSolution",
    "solve_with_samples",
    "solve_from_model",
    "PlanExecutor",
    "BatchExecutor",
    "ParallelBatchExecutor",
    "ProcessPoolBatchExecutor",
    "default_max_workers",
    "ExecutorBackend",
    "ExecutionResult",
    "GroupExecutionCounts",
    "IntelSample",
    "IntelSampleReport",
    "OptimalOracle",
    "AdaptiveIntelSample",
    "AdaptiveReport",
    "AdaptiveRound",
    "LabeledSample",
    "ColumnSelectionResult",
    "VirtualColumnResult",
    "draw_labeled_sample",
    "candidate_correlated_columns",
    "estimate_column_cost",
    "select_correlated_column",
    "build_virtual_column",
]
