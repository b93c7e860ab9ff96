"""Optimization substrate.

The paper needs three kinds of optimization machinery:

* a linear-program solver for the perfect-selectivity formulation
  (Section 3.2) — :mod:`repro.solvers.linear` wraps :func:`scipy.optimize.linprog`,
* a convex solver for the estimated-selectivity formulations (Sections 3.3
  and 4.2) — :mod:`repro.solvers.convex` drives scipy's SLSQP step directly
  (:func:`~repro.solvers.convex.slsqp`, the iterates of
  :func:`scipy.optimize.minimize` without its per-call front door) and adds
  warm starts and feasibility fall-backs, and
* exact integer machinery for the (NP-hard) perfect-information problem on
  small instances — :mod:`repro.solvers.knapsack` and
  :mod:`repro.solvers.branch_bound`.
"""

from repro.solvers.branch_bound import BranchAndBoundSolver, IntegerProgram
from repro.solvers.convex import ConvexProblem, ConvexSolution, ConvexSolver
from repro.solvers.knapsack import (
    KnapsackItem,
    min_knapsack_dp,
    min_knapsack_greedy,
)
from repro.solvers.linear import LinearProgram, LinearSolution, solve_linear_program

__all__ = [
    "LinearProgram",
    "LinearSolution",
    "solve_linear_program",
    "ConvexProblem",
    "ConvexSolution",
    "ConvexSolver",
    "KnapsackItem",
    "min_knapsack_dp",
    "min_knapsack_greedy",
    "IntegerProgram",
    "BranchAndBoundSolver",
]
