"""BiGreedy: the paper's solver-free algorithm for Linear Program 3.4.

Phase 1 (Section 3.2.2): raise the retrieval probabilities ``R_a`` to 1 in
*decreasing* selectivity order until the (margined) recall constraint is met —
retrieval mass on a high-selectivity group is the cheapest expected recall
available at ``o_r`` per tuple.

Phase 2 — joint precision repair.  When the margined precision constraint is
still short, the cost model offers two repair channels:

* **evaluate at** ``o_e``: converting a retrieved-but-unevaluated tuple of
  group ``a`` into a retrieved-and-evaluated one filters its false positives
  and buys ``alpha * (1 - s_a)`` units of margined precision — cheapest on
  *low*-selectivity groups (the appendix greedy's only move);
* **retrieve at** ``o_r``: retrieving more of a group buys ``s_a - alpha``
  units unevaluated (positive when ``s_a > alpha``) or ``s_a * (1 - alpha)``
  units when also evaluated, *and* adds recall slack — cheapest on
  *high*-selectivity groups.

The pre-PR-2 implementation repaired with evaluations only, which is up to
``o_e / o_r`` times more expensive than the LP optimum on loose-recall
problems (the old ROADMAP open item).  The joint repair implemented here
compares the marginal cost of the two channels at every price point: it
sweeps the shadow price ``mu`` of the precision constraint across its
breakpoints — each breakpoint is exactly a price at which one channel starts
paying for itself or two channels trade places — and at each candidate price
solves the ``mu``-adjusted recall problem as a fractional knapsack (phase 1
is the ``mu = 0`` instance).  At the first price whose cheapest allocation
closes the deficit, blending the deficit-closing and deficit-short
allocations makes the precision constraint exactly tight; together with
recall feasibility and ``mu``-optimality that certifies a *global* LP
optimum by weak duality.  The result therefore matches
:func:`~repro.core.hoeffding_lp.solve_perfect_selectivity_lp` on every
feasible input — in particular wherever Theorem 3.8's pre-conditions hold —
and raises :class:`InfeasibleProblemError` exactly when the margined LP has
no solution (callers then fall back to the exhaustive plan).

Complexity: ``O(|A| log |A|)`` when phase 1 alone satisfies precision (the
common case, and the regime of Theorem 3.8).  The repair sorts its
``O(|A|^2)`` breakpoints once and then *bisects* them for the first closing
price — the precision of the precision-maximising optimum never falls as the
price rises — so it solves ``O(log |A|)`` knapsacks, not one per breakpoint:
``O(|A|^2 log |A|)`` overall, over group counts that are small by construction
(one group per bucket of the correlated column).
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Tuple

from repro.core.constraints import CostModel, QueryConstraints
from repro.core.groups import SelectivityModel
from repro.core.hoeffding_lp import (
    LpSolution,
    SelectivityMargins,
    compute_margins,
    precision_headroom,
    recall_target,
    solve_perfect_selectivity_lp,
)
from repro.core.plan import ExecutionPlan, GroupDecision
from repro.resilience.deadline import check_deadline
from repro.solvers.linear import InfeasibleProblemError

_ALPHA_CERTAIN = 1.0 - 1e-12
_EPS = 1e-12
#: Relative tolerance for detecting that two repair channels are tied at a
#: candidate shadow price (their price-adjusted costs agree to ~12 digits).
_TIE_RTOL = 1e-12
#: Absolute slack on the margined precision constraint; must stay well below
#: the 1e-6 slack the property suite grants feasible plans.
_PRECISION_SLACK = 1e-9

#: Group entry consumed by the allocator: ``(key, remaining, selectivity)``.
_Entry = Tuple[Hashable, float, float]
#: Per-group allocation: fractions bought ``(unevaluated, evaluated)``.
_Alloc = Dict[Hashable, Tuple[float, float]]


def bigreedy_feasibility_conditions(
    model: SelectivityModel,
    constraints: QueryConstraints,
    margins: Optional[SelectivityMargins] = None,
) -> bool:
    """The two sufficient conditions of Theorem 3.8.

    ``h^p_rho < sum_a max(t_a (s_a - alpha), 0)`` ensures the precision
    constraint can be met without evaluating high-selectivity groups, and
    ``h^r_rho < sum_a (1 - beta) t_a s_a`` ensures the recall constraint is
    satisfiable at all.  Note these scope the *theorem*, not the solver:
    :func:`solve_bigreedy` attains the LP optimum on every feasible input.
    """
    margins = margins or compute_margins(model, constraints)
    headroom = precision_headroom(model, constraints)
    recall_head_room = sum(
        (1.0 - constraints.beta) * group.remaining * group.selectivity for group in model
    )
    precision_ok = (
        constraints.alpha <= 0.0
        or constraints.alpha >= _ALPHA_CERTAIN
        or margins.precision_margin < headroom.retrieval
    )
    recall_ok = margins.recall_margin <= recall_head_room + _EPS
    return precision_ok and recall_ok


def _cheapest_recall_allocation(
    entries: List[_Entry],
    price: float,
    target: float,
    alpha: float,
    retrieval_cost: float,
    evaluation_cost: float,
    prefer_precision: bool,
) -> Tuple[_Alloc, float, float]:
    """Cheapest recall-feasible allocation at a fixed precision shadow price.

    With the precision constraint priced into the objective at ``price``,
    both channels of a group carry the same recall coefficient ``s_a``, so
    each group collapses to its cheaper price-adjusted channel and the
    problem becomes a fractional knapsack: buy every channel whose adjusted
    cost is negative outright, then close the remaining recall gap in
    increasing adjusted-cost-per-recall order.  ``prefer_precision`` selects
    which of the (generally many) tied optima to return — the
    precision-maximising one or the precision-minimising one; the repair
    sweep blends the two to make the precision constraint exactly tight.

    Returns ``(allocation, precision_lhs, recall_shortfall)``.
    """
    chosen = []
    for key, remaining, selectivity in entries:
        gain_unevaluated = selectivity - alpha
        gain_evaluated = selectivity * (1.0 - alpha)
        adjusted_unevaluated = retrieval_cost - price * gain_unevaluated
        adjusted_evaluated = (
            retrieval_cost + evaluation_cost - price * gain_evaluated
        )
        tie = _TIE_RTOL * (1.0 + abs(adjusted_unevaluated) + abs(adjusted_evaluated))
        if adjusted_evaluated < adjusted_unevaluated - tie:
            evaluated = True
        elif adjusted_unevaluated < adjusted_evaluated - tie:
            evaluated = False
        else:
            # Tied channels: the evaluated one never has less precision gain.
            evaluated = prefer_precision
        adjusted = adjusted_evaluated if evaluated else adjusted_unevaluated
        gain = gain_evaluated if evaluated else gain_unevaluated
        chosen.append((key, remaining, selectivity, evaluated, adjusted, gain))

    allocation: _Alloc = {}
    recall = 0.0
    deferred = []
    for key, remaining, selectivity, evaluated, adjusted, gain in chosen:
        tie = _TIE_RTOL * (1.0 + abs(adjusted))
        if adjusted < -tie or (adjusted <= tie and prefer_precision and gain > 0.0):
            # Strictly profitable at this price (or free precision, when the
            # caller wants the precision-maximising optimum): buy it all.
            allocation[key] = (0.0, 1.0) if evaluated else (1.0, 0.0)
            recall += remaining * selectivity
        elif selectivity > 0.0:
            deferred.append(
                (key, remaining, selectivity, evaluated, max(adjusted, 0.0), gain)
            )

    shortfall = target - recall
    if shortfall > _EPS:
        # Adjusted cost per unit of expected recall; among ties, take the
        # precision-richest (or -poorest) recall first so the two returned
        # optima bracket the whole optimal face.
        def order(item):
            _, _, selectivity, _, adjusted, gain = item
            per_recall = gain / selectivity
            return (
                adjusted / selectivity,
                -per_recall if prefer_precision else per_recall,
            )

        deferred.sort(key=order)
        for key, remaining, selectivity, evaluated, adjusted, gain in deferred:
            if shortfall <= _EPS:
                break
            capacity = remaining * selectivity
            if capacity <= shortfall + _EPS:
                fraction = 1.0
                shortfall -= capacity
            else:
                fraction = shortfall / capacity
                shortfall = 0.0
            allocation[key] = (0.0, fraction) if evaluated else (fraction, 0.0)

    precision = 0.0
    for key, remaining, selectivity, _evaluated, _adjusted, _gain in chosen:
        unevaluated, evaluated_mass = allocation.get(key, (0.0, 0.0))
        if unevaluated > 0.0 or evaluated_mass > 0.0:
            precision += remaining * (
                unevaluated * (selectivity - alpha)
                + evaluated_mass * selectivity * (1.0 - alpha)
            )
    return allocation, precision, max(shortfall, 0.0)


def _precision_price_breakpoints(
    entries: List[_Entry],
    alpha: float,
    retrieval_cost: float,
    evaluation_cost: float,
) -> List[float]:
    """Candidate shadow prices at which the cheapest allocation can change.

    Three families, all derived from the per-group channel lines
    ``adjusted(mu) = cost - mu * gain``:

    * a channel turns free (``adjusted = 0``) — ``o_r / (s_a - alpha)`` for
      unevaluated retrieval, ``(o_r + o_e) / (s_a (1 - alpha))`` evaluated;
    * a group's two channels tie — ``o_e / (alpha (1 - s_a))``, the price at
      which evaluating stops being worth the filtered false positives;
    * two channels of different groups swap order in adjusted cost per unit
      of recall.

    The first two are the pairwise crossings with the ``i == j`` diagonal, so
    a single pass over channel pairs produces all three.
    """
    channels = []
    for _key, _remaining, selectivity in entries:
        if selectivity <= 0.0:
            # Zero-selectivity groups contribute no recall and no positive
            # precision; no price ever makes them worth buying.
            continue
        channels.append((retrieval_cost, selectivity - alpha, selectivity))
        channels.append(
            (
                retrieval_cost + evaluation_cost,
                selectivity * (1.0 - alpha),
                selectivity,
            )
        )
    candidates = set()
    for i, (cost_i, gain_i, recall_i) in enumerate(channels):
        if gain_i > 0.0 and cost_i > 0.0:
            candidates.add(cost_i / gain_i)
        for cost_j, gain_j, recall_j in channels[i + 1 :]:
            denominator = gain_i * recall_j - gain_j * recall_i
            magnitude = abs(gain_i * recall_j) + abs(gain_j * recall_i)
            if abs(denominator) > 1e-15 * (magnitude + 1e-300):
                crossing = (cost_i * recall_j - cost_j * recall_i) / denominator
                if crossing > 0.0:
                    candidates.add(crossing)
    return sorted(candidates)


def _blend(low: _Alloc, high: _Alloc, theta: float) -> _Alloc:
    """Convex combination ``theta * high + (1 - theta) * low`` of allocations."""
    blended: _Alloc = {}
    for key in set(low) | set(high):
        low_u, low_e = low.get(key, (0.0, 0.0))
        high_u, high_e = high.get(key, (0.0, 0.0))
        blended[key] = (
            theta * high_u + (1.0 - theta) * low_u,
            theta * high_e + (1.0 - theta) * low_e,
        )
    return blended


def _joint_precision_repair(
    entries: List[_Entry],
    target: float,
    required: float,
    ceiling: float,
    alpha: float,
    retrieval_cost: float,
    evaluation_cost: float,
) -> Optional[_Alloc]:
    """Close a precision deficit at minimal cost via the breakpoint sweep.

    ``ceiling`` is :func:`precision_headroom`'s ``total`` channel — the LHS
    of retrieving and evaluating everything.  Returns the optimal
    allocation, or ``None`` when floating-point degeneracy prevented the
    sweep from certifying one (the caller then falls back to the scipy LP,
    preserving exactness).  Raises :class:`InfeasibleProblemError` when even
    ``ceiling`` cannot reach ``required``.

    The first closing price is found by bisection: the priced problem is a
    parametric LP, so the precision of its precision-maximising optimum never
    falls as the shadow price rises, and "closes the deficit" is false up to
    some breakpoint and true from it on.
    """
    if ceiling < required - 1e-7:
        raise InfeasibleProblemError(
            "precision constraint unsatisfiable even when retrieving and "
            "evaluating every tuple; fall back to exhaustive evaluation"
        )
    prices = [0.0] + _precision_price_breakpoints(
        entries, alpha, retrieval_cost, evaluation_cost
    )
    high = high_precision = None  # at the lowest closing price met so far
    below, above = 0, len(prices)  # every price before `below` falls short
    while below < above:
        # Breakpoint sweeps scale with group count; a deadlined request
        # bails between evaluations rather than finishing a doomed solve.
        check_deadline("solve")
        middle = (below + above) // 2
        allocation, precision, _ = _cheapest_recall_allocation(
            entries, prices[middle], target, alpha, retrieval_cost, evaluation_cost, True
        )
        if precision < required - _PRECISION_SLACK:
            below = middle + 1
        else:
            above, high, high_precision = middle, allocation, precision
    if high is None:
        return None
    low, low_precision, _ = _cheapest_recall_allocation(
        entries, prices[above], target, alpha, retrieval_cost, evaluation_cost, False
    )
    if low_precision > required + 1e-6:
        # The optimal face should straddle the deficit at the first
        # closing price; if rounding broke the bracket, let scipy decide.
        return None
    if high_precision - low_precision <= _EPS:
        return high
    theta = (required - low_precision) / (high_precision - low_precision)
    return _blend(low, high, min(1.0, max(0.0, theta)))


def solve_bigreedy(
    model: SelectivityModel,
    constraints: QueryConstraints,
    cost_model: CostModel = CostModel(),
    margins: Optional[SelectivityMargins] = None,
) -> LpSolution:
    """Solve Linear Program 3.4 exactly, without an LP solver.

    Raises :class:`InfeasibleProblemError` when the margined constraints are
    unsatisfiable even with every tuple retrieved and evaluated (callers then
    fall back to the exhaustive plan, which is always correct).
    """
    groups = model.groups
    if not groups:
        return LpSolution(
            plan=ExecutionPlan({}),
            expected_cost=0.0,
            margins=SelectivityMargins(0.0, 0.0),
        )
    margins = margins or compute_margins(model, constraints)
    alpha = constraints.alpha
    browsing = alpha >= _ALPHA_CERTAIN
    retrieval_cost = cost_model.retrieval_cost
    evaluation_cost = cost_model.evaluation_cost
    entries: List[_Entry] = [
        (group.key, float(group.remaining), group.selectivity)
        for group in groups
        if group.remaining > 0
    ]

    # Phase 1 — the zero-price knapsack: raise R_a in decreasing selectivity
    # order (equivalently, increasing o_r per expected recall) to meet recall.
    target = recall_target(model, constraints, margins.recall_margin)
    allocation, precision, shortfall = _cheapest_recall_allocation(
        entries, 0.0, target, alpha, retrieval_cost, evaluation_cost, False
    )
    if shortfall > 1e-7:
        achieved = target - shortfall
        raise InfeasibleProblemError(
            "recall constraint unsatisfiable: even retrieving every tuple yields "
            f"{achieved:.3f} expected correct tuples versus a target of {target:.3f}"
        )

    if browsing:
        # Browsing scenario: everything retrieved must be evaluated; realized
        # precision is then exactly 1 and needs no margin.  Phase 1 may leave
        # the marginal R_a fractional — the E_a = R_a invariant must hold for
        # that fractional mass too, not only for the 0/1 groups.
        allocation = {
            key: (0.0, unevaluated + evaluated)
            for key, (unevaluated, evaluated) in allocation.items()
        }
    elif alpha > 0.0 and precision < margins.precision_margin - _PRECISION_SLACK:
        # Phase 2 — joint repair of the precision deficit.
        repaired = _joint_precision_repair(
            entries,
            target,
            margins.precision_margin,
            precision_headroom(model, constraints).total,
            alpha,
            retrieval_cost,
            evaluation_cost,
        )
        if repaired is None:  # pragma: no cover - numerical escape hatch
            return solve_perfect_selectivity_lp(model, constraints, cost_model, margins)
        allocation = repaired

    decisions = {}
    for group in groups:
        unevaluated, evaluated = allocation.get(group.key, (0.0, 0.0))
        retrieve = min(1.0, unevaluated + evaluated)
        decisions[group.key] = GroupDecision(
            retrieve=retrieve, evaluate=min(retrieve, evaluated)
        )
    plan = ExecutionPlan(decisions)
    if browsing:
        for _key, decision in plan:
            assert decision.evaluate == decision.retrieve, (
                "browsing-mode invariant violated: every retrieved tuple "
                f"(R_a={decision.retrieve}) must be evaluated (E_a={decision.evaluate})"
            )
    return LpSolution(
        plan=plan,
        expected_cost=plan.expected_cost(model, cost_model, include_sampling=False),
        margins=margins,
    )
