"""The closure-based form of Convex Program 3.11 / 4.1 — the test oracle.

Until the fused constraint oracle, ``core/estimated.py`` stated the program as
four closures (precision value / jacobian, recall value / jacobian) plus one
Python-list row per coupling constraint, and ``solvers/convex.py`` handed
them to SLSQP as three separate constraints.  That code lives on here,
unchanged in its arithmetic, as the reference the array form is held to bit
for bit: same constraint values, same jacobians, same feasibility verdicts,
same plans.
"""

import math
from dataclasses import dataclass, field
from typing import Callable, List, Sequence, Tuple

import numpy as np
from scipy.optimize import minimize

from repro.core import estimated
from repro.solvers.linear import InfeasibleProblemError
from repro.stats.chebyshev import chebyshev_deviation_factor

_ALPHA_CERTAIN = 1.0 - 1e-12


@dataclass
class ClosureProgram:
    objective: List[float]
    inequality_constraints: List[Tuple[Callable, Callable]] = field(default_factory=list)
    linear_inequalities: List[Tuple[Sequence[float], float]] = field(default_factory=list)

    @property
    def num_variables(self) -> int:
        return len(self.objective)

    def cost(self, x):
        return float(np.dot(np.asarray(self.objective, dtype=float), x))

    def stacked_values(self, x):
        """What SLSQP received: every constraint value, in row order."""
        rows = [np.atleast_1d(fun(x)) for fun, _ in self.inequality_constraints]
        matrix, offsets = self._linear_block()
        return np.concatenate(rows + [matrix @ x - offsets])

    def stacked_jacobian(self, x):
        rows = [np.atleast_2d(jac(x)) for _, jac in self.inequality_constraints]
        return np.vstack(rows + [self._linear_block()[0]])

    def _linear_block(self):
        matrix = np.asarray([row for row, _ in self.linear_inequalities], dtype=float)
        offsets = np.asarray([bound for _, bound in self.linear_inequalities], dtype=float)
        return matrix, offsets

    def violation(self, x, tolerance=1e-7):
        worst = 0.0
        for fun, _ in self.inequality_constraints:
            worst = max(worst, -float(fun(x)))
        for row, bound in self.linear_inequalities:
            worst = max(worst, bound - float(np.dot(row, x)))
        for value in x:
            worst = max(worst, 0.0 - value, value - 1.0)
        return max(0.0, worst - tolerance if worst > tolerance else worst)

    def is_feasible(self, x, tolerance=1e-6):
        return self.violation(x) <= tolerance


def closure_program(groups, constraints, cost_model) -> ClosureProgram:
    """The program ``_solve_independent`` built before the fused oracle."""
    k = len(groups)
    alpha = constraints.alpha
    beta = constraints.beta
    e_rho = chebyshev_deviation_factor(constraints.rho)
    browsing = alpha >= _ALPHA_CERTAIN

    remaining = np.asarray([group.remaining for group in groups], dtype=float)
    selectivity = np.asarray([group.selectivity for group in groups], dtype=float)
    variance = np.asarray([group.variance for group in groups], dtype=float)
    sampled_positives = np.asarray(
        [group.sampled_positives for group in groups], dtype=float
    )

    scale = 1.0 / max(1.0, float(np.sum(remaining)))
    objective = list(remaining * cost_model.retrieval_cost * scale) + list(
        remaining * cost_model.evaluation_cost * scale
    )
    program = ClosureProgram(objective=objective)

    for index in range(k):
        row = [0.0] * (2 * k)
        row[index] = 1.0
        row[k + index] = -1.0
        program.linear_inequalities.append((list(row), 0.0))
        if browsing:
            program.linear_inequalities.append(([-value for value in row], 0.0))

    def split(x):
        return x[:k], x[k:]

    if 0.0 < alpha < _ALPHA_CERTAIN:
        precision_expect_grad_r = (
            (1.0 - alpha) * remaining * selectivity
            - alpha * remaining * (1.0 - selectivity)
        )
        precision_expect_grad_e = alpha * remaining * (1.0 - selectivity)

        def precision_constraint(x):
            retrieve, evaluate = split(x)
            expectation = float(
                np.sum(sampled_positives) * (1.0 - alpha)
                + np.sum((1.0 - alpha) * remaining * selectivity * retrieve)
                - np.sum(alpha * remaining * (1.0 - selectivity) * (retrieve - evaluate))
            )
            var = float(
                np.sum(
                    remaining**2 * variance * (retrieve - alpha * evaluate) ** 2
                    + 0.25 * remaining
                )
            )
            return (expectation - e_rho * math.sqrt(max(var, 0.0))) * scale

        def precision_jacobian(x):
            retrieve, evaluate = split(x)
            deviation = retrieve - alpha * evaluate
            var = float(
                np.sum(remaining**2 * variance * deviation**2 + 0.25 * remaining)
            )
            std = math.sqrt(max(var, 1e-18))
            var_grad_r = remaining**2 * variance * deviation / std
            grad_r = precision_expect_grad_r - e_rho * var_grad_r
            grad_e = precision_expect_grad_e + e_rho * alpha * var_grad_r
            return np.concatenate([grad_r, grad_e]) * scale

        program.inequality_constraints.append(
            (precision_constraint, precision_jacobian)
        )

    expected_total_correct = float(
        np.sum(sampled_positives) + np.sum(remaining * selectivity)
    )
    recall_expect_grad_r = remaining * selectivity

    def recall_constraint(x):
        retrieve, _ = split(x)
        expectation = float(
            np.sum(sampled_positives)
            + np.sum(remaining * selectivity * retrieve)
            - beta * expected_total_correct
        )
        var = float(
            np.sum(remaining**2 * variance * (retrieve - beta) ** 2 + 0.25 * remaining)
        )
        return (expectation - e_rho * math.sqrt(max(var, 0.0))) * scale

    def recall_jacobian(x):
        retrieve, _ = split(x)
        deviation = retrieve - beta
        var = float(
            np.sum(remaining**2 * variance * deviation**2 + 0.25 * remaining)
        )
        std = math.sqrt(max(var, 1e-18))
        grad_r = recall_expect_grad_r - e_rho * remaining**2 * variance * deviation / std
        return np.concatenate([grad_r, np.zeros_like(grad_r)]) * scale

    program.inequality_constraints.append((recall_constraint, recall_jacobian))
    return program


def closure_solve(program: ClosureProgram, warm_starts=()):
    """``ConvexSolver.solve`` as it ran on a :class:`ClosureProgram`.

    Returns ``(values, status)`` or raises :class:`InfeasibleProblemError`.
    """
    n = program.num_variables
    bounds = [(0.0, 1.0)] * n
    lows, highs = np.zeros(n), np.ones(n)

    def starts():
        for warm in warm_starts:
            yield np.clip(np.asarray(warm, dtype=float), 0.0, 1.0)
        yield highs.copy()
        yield (lows + highs) / 2.0
        yield lows + 0.9 * (highs - lows)

    objective_vector = np.asarray(program.objective, dtype=float)
    scipy_constraints = [
        {"type": "ineq", "fun": fun, "jac": jac}
        for fun, jac in program.inequality_constraints
    ]
    matrix = np.asarray([row for row, _ in program.linear_inequalities], dtype=float)
    offsets = np.asarray([bound for _, bound in program.linear_inequalities], dtype=float)
    scipy_constraints.append(
        {
            "type": "ineq",
            "fun": (lambda x, m=matrix, b=offsets: m @ x - b),
            "jac": (lambda x, m=matrix: m),
        }
    )

    best = None
    tried = []
    for start in starts():
        tried.append(start)
        result = minimize(
            lambda x: float(np.dot(objective_vector, x)),
            start,
            jac=lambda x: objective_vector,
            bounds=bounds,
            constraints=scipy_constraints,
            method="SLSQP",
            options={"maxiter": 300, "ftol": 1e-9},
        )
        candidate = np.clip(np.asarray(result.x, dtype=float), lows, highs)
        if not program.is_feasible(candidate, 1e-5):
            continue
        cost = program.cost(candidate)
        if best is None or cost < best[2]:
            best = (candidate, "optimal" if result.success else "feasible", cost)
        if result.success:
            break
    if best is not None:
        return best[0], best[1]
    feasible_starts = [s for s in tried if program.is_feasible(s, 1e-5)]
    if feasible_starts:
        return np.asarray(min(feasible_starts, key=program.cost), dtype=float), "fallback"
    raise InfeasibleProblemError(
        "convex program has no feasible point among solver attempts"
    )


def closure_plan(model, constraints, cost_model):
    """``[(key, R_a, E_a) ...], used_fallback`` of the closure-based solve."""
    groups = model.groups
    k = len(groups)
    program = closure_program(groups, constraints, cost_model)

    def warm_starts():
        greedy_warm = estimated._warm_start(model, constraints, cost_model)
        if greedy_warm is not None:
            yield greedy_warm
        try:
            linear = estimated._solve_unknown_correlations(model, constraints, cost_model)
        except InfeasibleProblemError:
            return
        yield estimated._plan_vector(linear.plan, model)

    values, status = closure_solve(program, warm_starts())
    browsing = constraints.alpha >= _ALPHA_CERTAIN
    decisions = []
    for index, group in enumerate(groups):
        retrieve = min(1.0, max(0.0, float(values[index])))
        evaluate = min(retrieve, max(0.0, float(values[k + index])))
        if browsing:
            evaluate = retrieve
        decisions.append((group.key, retrieve, evaluate))
    return decisions, status == "fallback"
