"""Warm starts are built only when the solver reaches them.

The independent-groups program offers SLSQP two warm starts: the BiGreedy
plan (cheap) and the unknown-correlations LP's plan (a HiGHS solve).  SLSQP
nearly always converges from the first, so the LP must not be built unless
the first start is missing or fails — and laziness must not change a single
bit of any plan, feasible or not.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import estimated
from repro.core.constraints import CostModel, QueryConstraints
from repro.core.groups import GroupStatistics, SelectivityModel
from repro.solvers import convex
from repro.solvers.convex import ConvexProblem, ConvexSolver
from repro.solvers.linear import InfeasibleProblemError

CONSTRAINTS = QueryConstraints(alpha=0.8, beta=0.8, rho=0.8)
_REAL_SLSQP = convex.slsqp


def _model():
    return SelectivityModel(
        [
            GroupStatistics(key=1, size=1000, selectivity=0.9, variance=0.001,
                            sampled=50, sampled_positives=45),
            GroupStatistics(key=2, size=1000, selectivity=0.5, variance=0.002,
                            sampled=50, sampled_positives=25),
            GroupStatistics(key=3, size=1000, selectivity=0.1, variance=0.001,
                            sampled=50, sampled_positives=5),
        ]
    )


def _count_calls(monkeypatch, module, name):
    """Replace ``module.name`` with a pass-through that counts its calls."""
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestLazyStartsInTheSolver:
    def _problem(self):
        # minimize x + y subject to x + y >= 1: any start converges.
        problem = ConvexProblem(objective=[1.0, 1.0])
        problem.linear_inequalities.append(([1.0, 1.0], 1.0))
        return problem

    def test_a_generator_is_advanced_only_past_starts_that_did_not_converge(self):
        produced = []

        def starts():
            for start in ([0.9, 0.9], [0.5, 0.5]):
                produced.append(start)
                yield start

        solution = ConvexSolver().solve(self._problem(), warm_starts=starts())
        assert solution.status == "optimal"
        assert produced == [[0.9, 0.9]]

    def test_lists_and_none_still_work(self):
        from_list = ConvexSolver().solve(self._problem(), warm_starts=[[0.9, 0.9]])
        from_none = ConvexSolver().solve(self._problem())
        assert from_list.objective_value == pytest.approx(1.0)
        assert from_none.objective_value == pytest.approx(1.0)

    def test_fallback_is_the_cheapest_feasible_start_actually_produced(
        self, monkeypatch
    ):
        # SLSQP "finds" an infeasible point every time: the solver falls back
        # to the starts themselves, every one of which it has produced by then.
        def never_feasible(*args):
            x, converged = _REAL_SLSQP(*args)
            return np.zeros_like(x), converged

        monkeypatch.setattr(convex, "slsqp", never_feasible)
        produced = []

        def starts():
            for start in ([0.9, 0.9], [0.6, 0.6]):
                produced.append(start)
                yield start

        solution = ConvexSolver().solve(self._problem(), warm_starts=starts())
        assert produced == [[0.9, 0.9], [0.6, 0.6]]
        assert solution.status == "fallback"
        assert solution.values.tolist() == [0.5, 0.5]  # the fixed mid-point start


class TestTheLpStartIsBuiltOnlyWhenReached:
    def test_zero_lp_builds_when_the_bigreedy_start_converges(self, monkeypatch):
        lp_calls = _count_calls(monkeypatch, estimated, "_solve_unknown_correlations")
        slsqp_calls = _count_calls(monkeypatch, convex, "slsqp")
        solution = estimated.solve_estimated_selectivity(_model(), CONSTRAINTS)
        assert not solution.used_fallback
        assert len(slsqp_calls) == 1
        assert lp_calls == []

    def test_lp_is_built_when_bigreedy_has_no_start(self, monkeypatch):
        monkeypatch.setattr(estimated, "_warm_start", lambda *args: None)
        lp_calls = _count_calls(monkeypatch, estimated, "_solve_unknown_correlations")
        estimated.solve_estimated_selectivity(_model(), CONSTRAINTS)
        assert len(lp_calls) == 1

    def test_lp_is_built_when_the_solve_from_the_bigreedy_start_fails(
        self, monkeypatch
    ):
        lp_calls = _count_calls(monkeypatch, estimated, "_solve_unknown_correlations")
        attempts = []

        def first_solve_fails(*args):
            x, converged = _REAL_SLSQP(*args)
            attempts.append(converged)
            return x, converged and len(attempts) > 1

        monkeypatch.setattr(convex, "slsqp", first_solve_fails)
        estimated.solve_estimated_selectivity(_model(), CONSTRAINTS)
        assert len(attempts) == 2  # the LP start was reached, and converged
        assert len(lp_calls) == 1

    def test_the_unknown_correlations_program_itself_is_untouched(self, monkeypatch):
        # independent=False *is* the LP; laziness applies to its use as a start.
        lp_calls = _count_calls(monkeypatch, estimated, "_solve_unknown_correlations")
        estimated.solve_estimated_selectivity(_model(), CONSTRAINTS, independent=False)
        assert len(lp_calls) == 1


@st.composite
def estimated_models(draw):
    """Sampled-selectivity models, from comfortable to hopeless."""
    groups = []
    for key in range(draw(st.integers(min_value=1, max_value=5))):
        size = draw(st.integers(min_value=1, max_value=3000))
        sampled = draw(st.integers(min_value=0, max_value=min(size, 60)))
        groups.append(
            GroupStatistics(
                key=key,
                size=size,
                selectivity=draw(st.floats(min_value=0.0, max_value=1.0)),
                # Sampling-sized variances, or up to that of a one-tuple
                # sample — the Chebyshev margin then makes programs infeasible.
                variance=draw(st.sampled_from([0.005, 0.25]).flatmap(
                    lambda top: st.floats(min_value=0.0, max_value=top)
                )),
                sampled=sampled,
                sampled_positives=draw(st.integers(min_value=0, max_value=sampled)),
            )
        )
    return SelectivityModel(groups)


def _plan_or_error(model, constraints):
    try:
        solution = estimated.solve_estimated_selectivity(model, constraints, CostModel())
    except InfeasibleProblemError:
        return "infeasible"
    return (
        [
            (
                key,
                solution.plan.decision(key).retrieve_probability,
                solution.plan.decision(key).evaluate_probability,
            )
            for key in model.keys
        ],
        solution.expected_cost,
        solution.used_fallback,
    )


@settings(max_examples=60, deadline=None)
@given(
    model=estimated_models(),
    alpha=st.sampled_from([0.5, 0.8, 0.95, 1.0]),
    beta=st.sampled_from([0.5, 0.8, 0.95]),
    rho=st.sampled_from([0.5, 0.8, 0.95]),
)
def test_lazy_starts_give_bitwise_the_eager_plan(model, alpha, beta, rho):
    constraints = QueryConstraints(alpha=alpha, beta=beta, rho=rho)
    lazy = _plan_or_error(model, constraints)

    lazy_solve = ConvexSolver.solve

    def eager_solve(self, problem, warm_starts=None):
        # The form this replaced: every start built before the first solve.
        return lazy_solve(self, problem, warm_starts=list(warm_starts or ()))

    ConvexSolver.solve = eager_solve
    try:
        eager = _plan_or_error(model, constraints)
    finally:
        ConvexSolver.solve = lazy_solve
    assert lazy == eager  # float equality: the same bits, not "close"
