"""Perfect-selectivity LP (paper Section 3.2, Problem 2 / Linear Program 3.4).

Group selectivities ``s_a`` are known exactly; decisions are probabilities.
The precision and recall constraints are imposed on expectations shifted by
Hoeffding safety margins ``h^p_rho`` / ``h^r_rho`` so that the realized
constraints hold with probability at least ``rho`` (Theorem 3.5), and the
resulting plan is asymptotically optimal (Theorems 3.6/3.7).

Two solvers produce identical plans: this module's scipy-backed LP and the
solver-free BiGreedy algorithm in :mod:`repro.core.bigreedy`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.constraints import CostModel, QueryConstraints
from repro.core.groups import SelectivityModel
from repro.core.plan import ExecutionPlan, _plan_from_vector
from repro.solvers.linear import LinearProgram, solve_linear_program
from repro.stats.hoeffding import hoeffding_precision_margin, hoeffding_recall_margin

_ALPHA_CERTAIN = 1.0 - 1e-12


@dataclass(frozen=True)
class SelectivityMargins:
    """The Hoeffding margins used by a perfect-selectivity solve."""

    precision_margin: float
    recall_margin: float


@dataclass(frozen=True)
class LpSolution:
    """Plan plus diagnostics for a Problem 2 solve."""

    plan: ExecutionPlan
    expected_cost: float
    margins: SelectivityMargins


def compute_margins(
    model: SelectivityModel, constraints: QueryConstraints
) -> SelectivityMargins:
    """Hoeffding margins for the precision and recall constraints.

    The margins operate on the *remaining* (not-yet-sampled) tuples, because
    sampled tuples contribute deterministically to precision and recall.
    """
    remaining = model.total_remaining
    precision_margin = (
        0.0
        if constraints.alpha <= 0.0 or constraints.alpha >= _ALPHA_CERTAIN
        else hoeffding_precision_margin(remaining, constraints.rho)
    )
    recall_margin = hoeffding_recall_margin(remaining, constraints.beta, constraints.rho)
    return SelectivityMargins(
        precision_margin=precision_margin, recall_margin=recall_margin
    )


def recall_target(
    model: SelectivityModel, constraints: QueryConstraints, margin: float
) -> float:
    """The right-hand side of the recall constraint: ``beta * sum t_a s_a + h^r``."""
    expected_correct = sum(group.remaining * group.selectivity for group in model)
    return constraints.beta * expected_correct + margin


@dataclass(frozen=True)
class PrecisionHeadroom:
    """How much margined-precision slack a model can buy, per cost channel.

    The precision constraint's left-hand side grows through two channels:

    * retrieving a tuple of group ``a`` unevaluated (paid at ``o_r``)
      contributes ``s_a - alpha`` — positive only on high-selectivity groups;
    * retrieving *and* evaluating it (paid at ``o_r + o_e``) contributes
      ``s_a * (1 - alpha)``, which dominates the first channel by the
      filtered false-positive mass ``alpha * (1 - s_a)``.

    ``retrieval`` is the headroom of the first channel alone — the quantity
    Theorem 3.8's pre-condition compares against ``h^p_rho``.  ``total`` is
    the absolute ceiling (retrieve and evaluate everything); the margined LP
    is precision-feasible iff ``total >= h^p_rho``.
    """

    retrieval: float
    total: float


def precision_headroom(
    model: SelectivityModel, constraints: QueryConstraints
) -> PrecisionHeadroom:
    """Per-channel precision headroom of ``model`` under ``constraints``."""
    alpha = constraints.alpha
    retrieval = 0.0
    total = 0.0
    for group in model:
        retrieval += max(group.remaining * (group.selectivity - alpha), 0.0)
        total += group.remaining * group.selectivity * (1.0 - alpha)
    return PrecisionHeadroom(retrieval=retrieval, total=total)


def solve_perfect_selectivity_lp(
    model: SelectivityModel,
    constraints: QueryConstraints,
    cost_model: CostModel = CostModel(),
    margins: Optional[SelectivityMargins] = None,
) -> LpSolution:
    """Solve Linear Program 3.4 with scipy.

    Special cases handled outside the LP:

    * ``alpha >= 1`` (browsing scenario): every retrieved tuple must be
      evaluated, which makes the realized precision exactly 1; the LP drops
      the precision constraint and adds ``E_a = R_a``.
    * ``alpha = 0``: the precision constraint is vacuous and dropped.

    Raises :class:`InfeasibleProblemError` when no probabilistic plan meets
    the margined constraints (callers fall back to evaluating everything).
    """
    groups = model.groups
    k = len(groups)
    if k == 0:
        return LpSolution(
            plan=ExecutionPlan({}),
            expected_cost=0.0,
            margins=SelectivityMargins(0.0, 0.0),
        )
    margins = margins or compute_margins(model, constraints)
    alpha = constraints.alpha
    browsing = alpha >= _ALPHA_CERTAIN

    objective = [group.remaining * cost_model.retrieval_cost for group in groups] + [
        group.remaining * cost_model.evaluation_cost for group in groups
    ]
    program = LinearProgram(objective=objective)

    # Recall constraint.
    recall_row = [group.remaining * group.selectivity for group in groups] + [0.0] * k
    program.add_ge(recall_row, recall_target(model, constraints, margins.recall_margin))

    # Precision constraint (skipped for alpha == 0 and for the browsing case).
    if 0.0 < alpha < _ALPHA_CERTAIN:
        precision_row = [
            group.remaining * group.selectivity * (1.0 - alpha)
            - group.remaining * (1.0 - group.selectivity) * alpha
            for group in groups
        ] + [group.remaining * (1.0 - group.selectivity) * alpha for group in groups]
        program.add_ge(precision_row, margins.precision_margin)

    # Coupling R_a >= E_a (and E_a >= R_a in the browsing case).
    for index in range(k):
        row = [0.0] * (2 * k)
        row[index] = 1.0
        row[k + index] = -1.0
        program.add_ge(row, 0.0)
        if browsing:
            program.add_ge([-value for value in row], 0.0)

    solution = solve_linear_program(program)
    plan = _plan_from_vector(groups, solution.values, browsing=False)
    return LpSolution(
        plan=plan,
        expected_cost=plan.expected_cost(model, cost_model, include_sampling=False),
        margins=margins,
    )
