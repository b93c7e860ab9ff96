"""Estimated-selectivity optimizers (paper Sections 3.3 and 4.2).

When selectivities come from sampling (or any other estimator) they are random
variables ``S_a`` with mean ``s_a`` and variance ``v_a``.  The paper keeps the
precision/recall constraints satisfied with probability ``rho`` via Chebyshev:
the expectation of each constraint quantity must exceed ``e_rho = 1/sqrt(1-rho)``
times its standard deviation.  Two variants differ in how per-group deviations
combine:

* **unknown correlations** (Convex Program 3.10): deviations add linearly —
  after introducing auxiliary variables for ``|R_a - beta|`` the program is an
  LP;
* **independent groups** (Convex Program 3.11): deviations add in quadrature —
  the constraint is a second-order cone and is solved with the SLSQP-backed
  :class:`~repro.solvers.convex.ConvexSolver`.

Both variants transparently handle sunk sampling costs (Convex Program 4.1):
group sizes are replaced by the *remaining* ``t_a - F_a`` tuples and the
already-found positives ``F_a^+`` contribute deterministically to precision
and recall.  Setting every ``F_a`` to zero recovers the Section 3.3 programs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence

import numpy as np

from repro.core.bigreedy import solve_bigreedy
from repro.core.constraints import CostModel, QueryConstraints
from repro.core.groups import GroupStatistics, SelectivityModel
from repro.core.plan import ExecutionPlan, _plan_from_vector
from repro.resilience.deadline import check_deadline
from repro.solvers.convex import ConvexProblem, ConvexSolver, LinearBlock
from repro.solvers.linear import (
    InfeasibleProblemError,
    LinearProgram,
    solve_linear_program,
)
from repro.stats.chebyshev import chebyshev_deviation_factor

_ALPHA_CERTAIN = 1.0 - 1e-12


@dataclass(frozen=True)
class EstimatedSolution:
    """Plan plus diagnostics for an estimated-selectivity solve."""

    plan: ExecutionPlan
    expected_cost: float
    independent: bool
    used_fallback: bool = False


def _plan_vector(plan: ExecutionPlan, model: SelectivityModel) -> List[float]:
    """``[R_1..R_k, E_1..E_k]`` in the model's group order (the solver's layout)."""
    decisions = [plan.decision(group.key) for group in model]
    return [decision.retrieve_probability for decision in decisions] + [
        decision.evaluate_probability for decision in decisions
    ]


def _warm_start(
    model: SelectivityModel,
    constraints: QueryConstraints,
    cost_model: CostModel,
) -> Optional[List[float]]:
    """BiGreedy solution (selectivities treated as exact) as a warm start."""
    try:
        greedy = solve_bigreedy(model, constraints, cost_model)
    except InfeasibleProblemError:
        return None
    return _plan_vector(greedy.plan, model)


def solve_estimated_selectivity(
    model: SelectivityModel,
    constraints: QueryConstraints,
    cost_model: CostModel = CostModel(),
    independent: bool = True,
    solver: Optional[ConvexSolver] = None,
) -> EstimatedSolution:
    """Solve Convex Program 3.10/3.11 (or 4.1 when the model carries samples).

    Raises :class:`InfeasibleProblemError` when no plan satisfies the
    Chebyshev-margined constraints; callers fall back to exhaustive
    evaluation.
    """
    check_deadline("solve")
    if independent:
        return _solve_independent(model, constraints, cost_model, solver)
    return _solve_unknown_correlations(model, constraints, cost_model)


# ---------------------------------------------------------------------------
# Independent groups: second-order-cone constraints, solved with SLSQP.
# ---------------------------------------------------------------------------
def _independent_program(
    groups: Sequence[GroupStatistics],
    constraints: QueryConstraints,
    cost_model: CostModel,
) -> ConvexProblem:
    """Convex Program 3.11 / 4.1 over ``x = [R_1..R_k, E_1..E_k]``."""
    k = len(groups)
    alpha, beta = constraints.alpha, constraints.beta
    e_rho = chebyshev_deviation_factor(constraints.rho)

    remaining = np.asarray([group.remaining for group in groups], dtype=float)
    selectivity = np.asarray([group.selectivity for group in groups], dtype=float)
    variance = np.asarray([group.variance for group in groups], dtype=float)
    sampled_positives = np.asarray(
        [group.sampled_positives for group in groups], dtype=float
    )

    # The objective and constraints are normalised by the remaining tuple
    # count so their values are O(1); this keeps SLSQP well-conditioned and
    # makes the solver's absolute feasibility tolerance meaningful across
    # dataset sizes.  The reported cost is recomputed from the plan, so the
    # scaling does not leak out.
    scale = 1.0 / max(1.0, float(np.sum(remaining)))
    objective = np.concatenate(
        [
            remaining * cost_model.retrieval_cost * scale,
            remaining * cost_model.evaluation_cost * scale,
        ]
    )
    # Coupling rows R_a - E_a >= 0; in the browsing scenario each is followed
    # by its negation, which makes it an equality.
    coupling = np.eye(k, 2 * k) - np.eye(k, 2 * k, k)
    if alpha >= _ALPHA_CERTAIN:
        coupling = np.repeat(coupling, 2, axis=0)
        coupling[1::2] *= -1.0

    # The Chebyshev-margined rows — precision (absent when alpha is 0 or
    # certain), then recall — are one vector-valued oracle with an analytic
    # jacobian: SLSQP makes one ``values`` and one ``jacobian`` call per
    # iteration, where numerical differentiation would re-evaluate every row
    # 2k+1 times per jacobian.  Whatever does not depend on ``x`` is computed
    # here, once — grouped exactly as the expressions in the callbacks would
    # group it, so hoisting moves no bit.  The callbacks write into ``out``
    # and ``normals``; recall's dE half is never written and stays zero.
    has_precision = 0.0 < alpha < _ALPHA_CERTAIN
    total = np.add.reduce
    found = total(sampled_positives)
    found_precision = found * (1.0 - alpha)
    precision_gain = (1.0 - alpha) * remaining * selectivity
    false_positive_weight = alpha * remaining * (1.0 - selectivity)
    precision_grad = precision_gain - false_positive_weight
    e_rho_alpha = e_rho * alpha
    recall_gain = remaining * selectivity
    recall_floor = beta * float(found + total(recall_gain))
    weighted_variance = remaining**2 * variance
    # (e_rho * remaining**2) * variance, as recall's gradient always grouped
    # it: not e_rho * weighted_variance, which rounds differently.
    recall_spread = e_rho * remaining**2 * variance
    quarter_remaining = 0.25 * remaining
    out = np.empty(2 if has_precision else 1)
    normals = np.zeros((out.size, 2 * k))

    def variance_of(deviation: np.ndarray) -> float:
        return float(total(weighted_variance * deviation**2 + quarter_remaining))

    def margin(expectation: float, deviation: np.ndarray) -> float:
        std = math.sqrt(max(variance_of(deviation), 0.0))
        return (float(expectation) - e_rho * std) * scale

    def values(x: np.ndarray) -> np.ndarray:
        retrieve, evaluate = x[:k], x[k:]
        if has_precision:
            out[0] = margin(
                found_precision
                + total(precision_gain * retrieve)
                - total(false_positive_weight * (retrieve - evaluate)),
                retrieve - alpha * evaluate,
            )
        out[-1] = margin(
            found + total(recall_gain * retrieve) - recall_floor, retrieve - beta
        )
        return out

    def jacobian(x: np.ndarray) -> np.ndarray:
        retrieve, evaluate = x[:k], x[k:]
        if has_precision:
            deviation = retrieve - alpha * evaluate
            std = math.sqrt(max(variance_of(deviation), 1e-18))
            spread = weighted_variance * deviation / std
            normals[0, :k] = (precision_grad - e_rho * spread) * scale
            normals[0, k:] = (false_positive_weight + e_rho_alpha * spread) * scale
        deviation = retrieve - beta
        std = math.sqrt(max(variance_of(deviation), 1e-18))
        normals[-1, :k] = (recall_gain - recall_spread * deviation / std) * scale
        return normals

    return ConvexProblem(
        objective,
        constraints=(values, jacobian),
        linear_inequalities=LinearBlock(coupling, np.zeros(len(coupling))),
    )


def _solve_independent(
    model: SelectivityModel,
    constraints: QueryConstraints,
    cost_model: CostModel,
    solver: Optional[ConvexSolver],
) -> EstimatedSolution:
    groups = model.groups
    if not groups:
        return EstimatedSolution(ExecutionPlan({}), 0.0, independent=True)
    problem = _independent_program(groups, constraints, cost_model)

    def warm_starts() -> Iterator[List[float]]:
        """SLSQP starts in the order tried, each built only when reached."""
        greedy_warm = _warm_start(model, constraints, cost_model)
        if greedy_warm is not None:
            yield greedy_warm
        # The unknown-correlations LP over-estimates the deviation term
        # (sum of deviations >= sqrt of sum of squares), so its solution is
        # guaranteed feasible here: a high-quality second start, and (as the
        # solver's cheapest feasible start) the plan should SLSQP never
        # converge.  SLSQP almost always converges from the BiGreedy start,
        # and then this LP is never built.
        try:
            linear = _solve_unknown_correlations(model, constraints, cost_model)
        except InfeasibleProblemError:
            return
        yield _plan_vector(linear.plan, model)

    solution = (solver or ConvexSolver()).solve(problem, warm_starts=warm_starts())

    plan = _plan_from_vector(
        groups, solution.values, browsing=constraints.alpha >= _ALPHA_CERTAIN
    )
    return EstimatedSolution(
        plan=plan,
        expected_cost=plan.expected_cost(model, cost_model, include_sampling=False),
        independent=True,
        used_fallback=solution.status == "fallback",
    )


# ---------------------------------------------------------------------------
# Unknown correlations: deviations add linearly, the program is an LP with
# auxiliary variables z_a >= |R_a - beta|.
# ---------------------------------------------------------------------------
def _solve_unknown_correlations(
    model: SelectivityModel,
    constraints: QueryConstraints,
    cost_model: CostModel,
) -> EstimatedSolution:
    groups = model.groups
    k = len(groups)
    if k == 0:
        return EstimatedSolution(ExecutionPlan({}), 0.0, independent=False)

    alpha = constraints.alpha
    beta = constraints.beta
    e_rho = chebyshev_deviation_factor(constraints.rho)
    browsing = alpha >= _ALPHA_CERTAIN

    remaining = [group.remaining for group in groups]
    selectivity = [group.selectivity for group in groups]
    deviation = [math.sqrt(group.variance) for group in groups]
    sampled_positives = [group.sampled_positives for group in groups]
    half_sqrt_remaining = sum(0.5 * math.sqrt(max(rem, 0)) for rem in remaining)

    # Variables: [R_1..R_k, E_1..E_k, Z_1..Z_k] with Z_a >= |R_a - beta|.
    objective = (
        [rem * cost_model.retrieval_cost for rem in remaining]
        + [rem * cost_model.evaluation_cost for rem in remaining]
        + [0.0] * k
    )
    program = LinearProgram(objective=objective, bounds=[(0.0, 1.0)] * (3 * k))

    # Precision: E[P] - e_rho * sum(sqrt(v_a) rem_a (R_a - alpha E_a)) >=
    #            e_rho * 0.5 * sum(sqrt(rem_a)) - sum(F_a^+ (1 - alpha)).
    if 0.0 < alpha < _ALPHA_CERTAIN:
        row = [0.0] * (3 * k)
        for index in range(k):
            row[index] = (
                (1.0 - alpha) * remaining[index] * selectivity[index]
                - alpha * remaining[index] * (1.0 - selectivity[index])
                - e_rho * deviation[index] * remaining[index]
            )
            row[k + index] = (
                alpha * remaining[index] * (1.0 - selectivity[index])
                + e_rho * deviation[index] * remaining[index] * alpha
            )
        bound = e_rho * half_sqrt_remaining - sum(
            positives * (1.0 - alpha) for positives in sampled_positives
        )
        program.add_ge(row, bound)

    # Recall: E[R] - e_rho * sum(sqrt(v_a) rem_a Z_a) >=
    #         e_rho * 0.5 * sum(sqrt(rem_a)) + beta * total_correct - sum(F_a^+).
    total_correct = sum(
        positives + rem * sel
        for positives, rem, sel in zip(sampled_positives, remaining, selectivity)
    )
    row = [0.0] * (3 * k)
    for index in range(k):
        row[index] = remaining[index] * selectivity[index]
        row[2 * k + index] = -e_rho * deviation[index] * remaining[index]
    bound = (
        e_rho * half_sqrt_remaining
        + beta * total_correct
        - sum(sampled_positives)
    )
    program.add_ge(row, bound)

    # Z_a >= R_a - beta  and  Z_a >= beta - R_a.
    for index in range(k):
        row_upper = [0.0] * (3 * k)
        row_upper[2 * k + index] = 1.0
        row_upper[index] = -1.0
        program.add_ge(row_upper, -beta)
        row_lower = [0.0] * (3 * k)
        row_lower[2 * k + index] = 1.0
        row_lower[index] = 1.0
        program.add_ge(row_lower, beta)

    # Coupling R_a >= E_a (equality in the browsing scenario).
    for index in range(k):
        row = [0.0] * (3 * k)
        row[index] = 1.0
        row[k + index] = -1.0
        program.add_ge(row, 0.0)
        if browsing:
            program.add_ge([-value for value in row], 0.0)

    solution = solve_linear_program(program)
    plan = _plan_from_vector(groups, solution.values, browsing)
    return EstimatedSolution(
        plan=plan,
        expected_cost=plan.expected_cost(model, cost_model, include_sampling=False),
        independent=False,
    )
