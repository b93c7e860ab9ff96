"""Tests for the SLSQP-backed convex solver."""

import math

import numpy as np
import pytest

from repro.solvers.convex import ConvexProblem, ConvexSolver, LinearBlock
from repro.solvers.linear import InfeasibleProblemError


def make_socp_problem():
    """minimize x + y subject to x + y - sqrt((1-x)^2 + (1-y)^2) >= 0."""

    def constraint(v):
        x, y = v
        return np.array([x + y - math.sqrt((1 - x) ** 2 + (1 - y) ** 2)])

    def jacobian(v):
        x, y = v
        norm = max(math.sqrt((1 - x) ** 2 + (1 - y) ** 2), 1e-12)
        return np.array([[1.0 + (1 - x) / norm, 1.0 + (1 - y) / norm]])

    return ConvexProblem(objective=[1.0, 1.0], constraints=(constraint, jacobian))


def one_row(fun, gradient):
    """A one-row ``(fun, jac)`` pair from a scalar function and its gradient."""
    return (
        lambda v: np.array([fun(v)]),
        lambda v: np.array([gradient(v)], dtype=float),
    )


class TestConvexProblem:
    def test_cost(self):
        problem = ConvexProblem(objective=[2.0, 3.0])
        assert problem.cost(np.array([1.0, 1.0])) == pytest.approx(5.0)

    def test_violation_zero_for_feasible_point(self):
        problem = make_socp_problem()
        assert problem.violation(np.array([1.0, 1.0])) == pytest.approx(0.0)

    def test_violation_positive_for_infeasible_point(self):
        problem = make_socp_problem()
        assert problem.violation(np.array([0.0, 0.0])) > 0.0

    def test_bounds_violation_detected(self):
        problem = ConvexProblem(objective=[1.0])
        assert problem.violation(np.array([1.5])) > 0.0

    def test_linear_inequality_violation(self):
        problem = ConvexProblem(objective=[1.0, 1.0])
        problem.linear_inequalities.append(([1.0, -1.0], 0.0))  # x >= y
        assert problem.is_feasible(np.array([0.5, 0.2]))
        assert not problem.is_feasible(np.array([0.2, 0.5]))

    def test_linear_block_given_whole_equals_rows_appended(self):
        appended = ConvexProblem(objective=[1.0, 1.0])
        appended.linear_inequalities.append(([1.0, -1.0], 0.0))
        appended.linear_inequalities.append(([1.0, 1.0], 1.0))
        whole = ConvexProblem(
            objective=[1.0, 1.0],
            linear_inequalities=LinearBlock(
                np.array([[1.0, -1.0], [1.0, 1.0]]), np.array([0.0, 1.0])
            ),
        )
        x = np.array([0.3, 0.4])
        assert appended.violation(x) == whole.violation(x) > 0.0

    def test_oracle_stacks_nonlinear_rows_above_the_linear_block(self):
        problem = make_socp_problem()
        problem.linear_inequalities.append(([1.0, -1.0], 0.25))
        values, jacobian = problem.oracle()
        x = np.array([0.75, 0.25])
        fun, jac = problem.constraints
        assert values(x).tolist() == [fun(x)[0], 0.25]
        assert jacobian(x).tolist() == [jac(x)[0].tolist(), [1.0, -1.0]]
        # The same buffers come back on every call, with the linear rows intact.
        assert jacobian(np.array([0.5, 0.5])) is jacobian(x)
        assert jacobian(x)[1].tolist() == [1.0, -1.0]


class TestViolationVerdictsAtTheBoundary:
    """``violation`` / ``is_feasible`` verdicts, pinned value by value.

    ``violation`` returns the worst shortfall unchanged up to its own
    ``tolerance`` (1e-7) and ``worst - tolerance`` above it; ``is_feasible``
    compares that with *its* tolerance and never hands it down.  The array
    form must reproduce every one of these.
    """

    @staticmethod
    def _problem(shortfall):
        # One nonlinear row worth ``-shortfall`` everywhere.
        return ConvexProblem(
            objective=[1.0],
            constraints=one_row(lambda v: -shortfall, lambda v: [0.0]),
        )

    @pytest.mark.parametrize(
        "shortfall, expected",
        [
            (0.0, 0.0),
            (-1.0, 0.0),                  # slack is not a violation
            (5e-8, 5e-8),                 # below the inner tolerance: as is
            (1e-7, 1e-7),                 # at it: still as is
            (1.5e-7, 1.5e-7 - 1e-7),      # above: reduced by the tolerance
            (1e-3, 1e-3 - 1e-7),
        ],
    )
    def test_violation_is_worst_then_worst_minus_tolerance(self, shortfall, expected):
        assert self._problem(shortfall).violation(np.array([0.5])) == expected

    def test_violation_honours_its_own_tolerance_argument(self):
        problem = self._problem(1e-3)
        x = np.array([0.5])
        assert problem.violation(x, tolerance=1e-2) == 1e-3
        assert problem.violation(x, tolerance=1e-4) == 1e-3 - 1e-4

    @pytest.mark.parametrize(
        "shortfall, tolerance, feasible",
        [
            (1e-6, 1e-6, True),            # 1e-6 - 1e-7 <= 1e-6
            (1.09e-6, 1e-6, True),         # the inner 1e-7 widens the outer one
            (1.1e-6, 1e-6, False),         # 1.1e-6 - 1e-7 rounds a hair above 1e-6
            (1.2e-6, 1e-6, False),
            (1e-5, 1e-5, True),            # the solver's feasibility_tolerance
            (1.009e-5, 1e-5, True),
            (1.02e-5, 1e-5, False),
            (1e-7, 1e-7, True),
            (2e-7, 1e-7, True),
            (2.1e-7, 1e-7, False),
            (1.5e-7, 1e-8, False),         # 5e-8 left after the inner tolerance
            (1.05e-7, 1e-8, True),         # 5e-9 left
            (9e-8, 1e-8, False),           # below the inner tolerance: as is
        ],
    )
    def test_is_feasible_does_not_pass_its_tolerance_down(
        self, shortfall, tolerance, feasible
    ):
        problem = self._problem(shortfall)
        assert problem.is_feasible(np.array([0.5]), tolerance) is feasible

    def test_every_kind_of_row_counts_and_the_worst_wins(self):
        problem = ConvexProblem(
            objective=[1.0, 1.0],
            constraints=one_row(lambda v: v[0] - 0.9, lambda v: [1.0, 0.0]),
            bounds=[(0.0, 1.0), (0.25, 0.5)],
        )
        problem.linear_inequalities.append(([1.0, -1.0], 0.0))
        assert problem.violation(np.array([0.95, 0.4])) == 0.0
        assert problem.violation(np.array([0.5, 0.4])) == (0.9 - 0.5) - 1e-7
        assert problem.violation(np.array([0.95, 0.0])) == 0.25 - 1e-7   # low bound
        assert problem.violation(np.array([1.5, 0.4])) == 0.5 - 1e-7     # high bound
        assert problem.violation(np.array([0.9, 0.5]) + [0.0, 0.45]) > 0.0

    def test_a_nan_row_is_ignored_as_python_max_ignored_it(self):
        problem = ConvexProblem(
            objective=[1.0], constraints=one_row(lambda v: math.nan, lambda v: [0.0])
        )
        assert problem.violation(np.array([0.5])) == 0.0
        assert problem.violation(np.array([1.5])) == 0.5 - 1e-7


class TestConvexSolver:
    def test_solves_socp_like_problem(self):
        problem = make_socp_problem()
        solution = ConvexSolver().solve(problem)
        assert solution.feasible
        # The symmetric optimum is around x = y ~ 0.414 (cost ~ 0.83).
        assert solution.objective_value < 1.0
        assert problem.is_feasible(solution.values, 1e-5)

    def test_warm_starts_are_clipped_to_the_problems_bounds(self, monkeypatch):
        from repro.solvers import convex

        seen = []

        def recording(fun, x0, **kwargs):
            seen.append(np.array(x0))
            return minimize(fun, x0, **kwargs)

        minimize = convex.minimize
        monkeypatch.setattr(convex, "minimize", recording)
        problem = ConvexProblem(objective=[1.0, 1.0], bounds=[(2.0, 3.0), (-1.0, -0.5)])
        solution = ConvexSolver().solve(problem, warm_starts=[[0.5, 0.5], [9.0, -9.0]])
        assert seen[0].tolist() == [2.0, -0.5]  # not the literal [0, 1] box
        assert solution.values.tolist() == [2.0, -1.0]

    def test_warm_start_is_used_or_beaten(self):
        problem = make_socp_problem()
        warm = [0.9, 0.9]
        solution = ConvexSolver().solve(problem, warm_starts=[warm])
        assert solution.objective_value <= problem.cost(np.array(warm)) + 1e-6

    def test_linear_coupling_respected(self):
        problem = ConvexProblem(objective=[1.0, -1.0])
        problem.linear_inequalities.append(([1.0, -1.0], 0.0))  # x >= y
        solution = ConvexSolver().solve(problem)
        assert solution.values[0] >= solution.values[1] - 1e-6

    def test_infeasible_problem_raises(self):
        problem = ConvexProblem(
            objective=[1.0],
            constraints=one_row(lambda v: v[0] - 2.0, lambda v: [1.0]),  # impossible in [0, 1]
        )
        with pytest.raises(InfeasibleProblemError):
            ConvexSolver().solve(problem)

    def test_unconstrained_problem_goes_to_lower_bound(self):
        problem = ConvexProblem(objective=[1.0, 1.0])
        solution = ConvexSolver().solve(problem)
        assert solution.objective_value == pytest.approx(0.0, abs=1e-6)

    def test_fallback_to_feasible_start(self):
        # A constraint whose gradient is zero almost everywhere can defeat
        # SLSQP; the solver must still return some feasible point.
        def nasty(v):
            return 1.0 if v[0] > 0.95 else -1.0

        problem = ConvexProblem(
            objective=[1.0], constraints=one_row(nasty, lambda v: [0.0])
        )
        solution = ConvexSolver().solve(problem)
        assert solution.feasible
        assert nasty(solution.values) >= 0.0
