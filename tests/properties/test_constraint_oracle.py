"""The fused constraint oracle against the closures it replaced, bit for bit.

``closure_oracle.py`` keeps the four per-constraint closures, the Python-list
coupling rows and the three-constraint SLSQP call that ``core/estimated.py``
and ``solvers/convex.py`` used to be.  Everything here is exact equality:
the array form may be faster, it may not be different.
"""

import numpy as np
import pytest
from closure_oracle import closure_plan, closure_program
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import estimated
from repro.core.constraints import CostModel, QueryConstraints
from repro.core.groups import GroupStatistics, SelectivityModel
from repro.solvers.linear import InfeasibleProblemError

#: 0 drops the precision row; the last two are the browsing scenario
#: (coupling rows come in +/- pairs); 1 - 1e-11 is the largest "ordinary" one.
alphas = st.one_of(
    st.sampled_from([0.0, 1e-9, 0.5, 0.8, 1.0 - 1e-11, 1.0 - 1e-12, 1.0]),
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
)
betas = st.one_of(
    st.sampled_from([0.0, 0.5, 0.8, 1.0]), st.floats(min_value=0.0, max_value=1.0)
)
rhos = st.sampled_from([0.0, 0.5, 0.8, 0.95, 0.999])


@st.composite
def groups(draw, max_groups=24):
    """1..24 sampled groups, degenerate ones included."""
    result = []
    for key in range(draw(st.integers(min_value=1, max_value=max_groups))):
        size = draw(st.integers(min_value=0, max_value=4000))
        # 0 = never sampled, ``size`` = fully sampled (nothing remaining).
        sampled = draw(st.sampled_from([0, size, draw(st.integers(0, size))]))
        result.append(
            GroupStatistics(
                key=key,
                size=size,
                selectivity=draw(st.sampled_from([0.0, 1.0, draw(st.floats(0.0, 1.0))])),
                variance=draw(st.sampled_from([0.0, draw(st.floats(0.0, 0.25))])),
                sampled=sampled,
                sampled_positives=draw(st.integers(0, sampled)),
            )
        )
    return result


@st.composite
def points(draw, k):
    """An ``x`` for 2k variables: random, or one of the corners SLSQP visits."""
    kind = draw(st.sampled_from(["random", "zeros", "ones", "half", "top", "coupled", "outside"]))
    if kind == "zeros":
        return np.zeros(2 * k)
    if kind == "ones":
        return np.ones(2 * k)
    if kind == "half":
        return np.full(2 * k, 0.5)
    if kind == "top":
        return np.full(2 * k, 0.9)
    unit = st.floats(min_value=0.0, max_value=1.0)
    if kind == "coupled":  # R_a == E_a: every coupling row exactly tight
        retrieve = draw(st.lists(unit, min_size=k, max_size=k))
        return np.array(retrieve + retrieve)
    if kind == "outside":  # SLSQP steps a few ulp (or more) past a bound
        wide = st.floats(min_value=-0.25, max_value=1.25)
        return np.array(draw(st.lists(wide, min_size=2 * k, max_size=2 * k)))
    return np.array(draw(st.lists(unit, min_size=2 * k, max_size=2 * k)))


def _programs(group_list, alpha, beta, rho):
    constraints = QueryConstraints(alpha=alpha, beta=beta, rho=rho)
    cost_model = CostModel()
    fused = estimated._independent_program(group_list, constraints, cost_model)
    return fused, closure_program(group_list, constraints, cost_model)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), group_list=groups(), alpha=alphas, beta=betas, rho=rhos)
def test_values_and_jacobian_are_the_stacked_closures_bit_for_bit(
    data, group_list, alpha, beta, rho
):
    fused, closures = _programs(group_list, alpha, beta, rho)
    assert fused.objective.tobytes() == np.asarray(closures.objective).tobytes()
    values, jacobian = fused.oracle()
    for _ in range(3):
        x = data.draw(points(len(group_list)))
        # tobytes: equal floats is not enough, -0.0 and 0.0 must not swap.
        assert values(x).tobytes() == closures.stacked_values(x).tobytes()
        assert jacobian(x).tobytes() == closures.stacked_jacobian(x).tobytes()


@settings(max_examples=200, deadline=None)
@given(data=st.data(), group_list=groups(), alpha=alphas, beta=betas, rho=rhos)
def test_feasibility_verdicts_are_the_loops_verdicts(data, group_list, alpha, beta, rho):
    fused, closures = _programs(group_list, alpha, beta, rho)
    x = data.draw(points(len(group_list)))
    assert fused.violation(x) == closures.violation(x)
    for tolerance in (1e-5, 1e-6, 0.0):
        assert fused.is_feasible(x, tolerance) == closures.is_feasible(x, tolerance)


def test_row_order_is_precision_recall_then_coupling_with_interleaved_negations():
    group_list = [
        GroupStatistics(key=key, size=100, selectivity=0.5, variance=0.01, sampled=10,
                        sampled_positives=5)
        for key in range(2)
    ]
    ordinary, _ = _programs(group_list, 0.8, 0.8, 0.8)
    assert ordinary.oracle()[1](np.zeros(4))[2:].tolist() == [
        [1.0, 0.0, -1.0, 0.0],
        [0.0, 1.0, 0.0, -1.0],
    ]
    browsing, _ = _programs(group_list, 1.0, 0.8, 0.8)  # no precision row
    assert browsing.oracle()[1](np.zeros(4))[1:].tolist() == [
        [1.0, 0.0, -1.0, 0.0],
        [-1.0, -0.0, 1.0, -0.0],
        [0.0, 1.0, 0.0, -1.0],
        [-0.0, -1.0, -0.0, 1.0],
    ]
    assert len(_programs(group_list, 0.0, 0.8, 0.8)[0].oracle()[0](np.zeros(4))) == 1 + 2


def _plan_or_error(solve):
    try:
        return solve()
    except InfeasibleProblemError as error:
        return ("infeasible", str(error))


@settings(max_examples=120, deadline=None)
@given(group_list=groups(max_groups=12), alpha=alphas, beta=betas, rho=rhos)
def test_the_plan_is_the_closure_based_plan_bit_for_bit(group_list, alpha, beta, rho):
    model = SelectivityModel(group_list)
    constraints = QueryConstraints(alpha=alpha, beta=beta, rho=rho)

    def fused():
        solution = estimated.solve_estimated_selectivity(model, constraints, CostModel())
        decisions = [(key, d.retrieve, d.evaluate) for key, d in solution.plan]
        return decisions, solution.used_fallback

    new = _plan_or_error(fused)
    old = _plan_or_error(lambda: closure_plan(model, constraints, CostModel()))
    assert new == old  # float equality, or the same InfeasibleProblemError


@pytest.mark.parametrize("k", [13, 24])
def test_wide_programs_solve_to_the_closure_based_plan(k):
    rng = np.random.default_rng(k)
    group_list = [
        GroupStatistics(
            key=key,
            size=2000,
            selectivity=float(rng.uniform(0.05, 0.95)),
            variance=float(rng.uniform(0.0005, 0.003)),
            sampled=60,
            sampled_positives=int(rng.integers(0, 60)),
        )
        for key in range(k)
    ]
    model = SelectivityModel(group_list)
    constraints = QueryConstraints(alpha=0.8, beta=0.8, rho=0.8)
    solution = estimated.solve_estimated_selectivity(model, constraints, CostModel())
    decisions = [(key, d.retrieve, d.evaluate) for key, d in solution.plan]
    assert (decisions, solution.used_fallback) == closure_plan(model, constraints, CostModel())
    assert not solution.used_fallback


def test_a_hopeless_program_raises_the_same_error_both_ways():
    model = SelectivityModel(
        [GroupStatistics(key=0, size=50, selectivity=0.5, variance=0.25, sampled=1,
                         sampled_positives=1)]
    )
    constraints = QueryConstraints(alpha=0.9, beta=0.9, rho=0.999)
    with pytest.raises(InfeasibleProblemError) as new:
        estimated.solve_estimated_selectivity(model, constraints, CostModel())
    with pytest.raises(InfeasibleProblemError) as old:
        closure_plan(model, constraints, CostModel())
    assert str(new.value) == str(old.value)
