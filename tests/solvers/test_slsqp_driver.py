"""The SLSQP driver against public ``scipy.optimize.minimize``, bit for bit.

:func:`repro.solvers.convex.slsqp` runs scipy's private SLSQP step
(``scipy.optimize._slsqplib``) itself instead of going through
``minimize``'s front door.  That is only safe while it stays the same
computation, so this file holds it to public ``minimize`` called exactly the
way :class:`~repro.solvers.convex.ConvexSolver` called it before:

* *parity* — equal ``x`` (``np.array_equal``) and equal ``success`` on the
  solver's own test problems, on programs built by
  ``core.estimated._independent_program`` (named cases plus Hypothesis
  draws: k = 1–12, α = 0, 0 < α < 1 and browsing, zero variances, sampled
  positives, infeasible programs), a non-``[0, 1]`` box, an infinite bound
  and a problem with no constraint rows, each from the starts the solver
  tries plus one outside the box;
* *mutations* — the named corpus must notice a driver that does not refresh
  the constraint values or the objective when SLSQP asks for them, or that
  hands it an infinite bound as ``inf`` instead of NaN.  (``tol = acc``
  instead of ``10 * acc`` is not one of them: neither this corpus nor 592
  runs over 150 more drawn programs moved by a bit under it, so no corpus
  here could tell the two apart);
* *work count* — a cold ``QueryService`` query and a refresh run with
  ``scipy.optimize.minimize`` made to raise, one driver run per solve.

CI runs this file as its own step ("SLSQP driver parity gate"): a scipy
release that changes the private step fails there by name.
"""

from __future__ import annotations

import inspect
import math
import textwrap

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import Bounds, minimize

from repro.core import estimated
from repro.core.constraints import CostModel, QueryConstraints
from repro.core.groups import GroupStatistics, SelectivityModel
from repro.db.catalog import Catalog
from repro.db.engine import Engine
from repro.db.predicate import UdfPredicate
from repro.db.query import SelectQuery
from repro.db.table import Table
from repro.db.udf import UserDefinedFunction
from repro.serving import QueryService
from repro.solvers import convex
from repro.solvers.convex import ConvexProblem, ConvexSolver, LinearBlock
from repro.solvers.linear import InfeasibleProblemError

SOLVER = ConvexSolver()


def reference(problem, start):
    """``(x, success)`` of public ``minimize``, called as the solver called it."""
    lows, highs = problem.bounds.T
    values, jacobian = problem.oracle()
    result = minimize(
        problem.cost,
        start,
        jac=lambda x: problem.objective,
        bounds=Bounds(lows, highs),
        constraints={"type": "ineq", "fun": values, "jac": jacobian},
        method="SLSQP",
        options={"maxiter": SOLVER.max_iterations, "ftol": SOLVER.tolerance},
    )
    return result.x, result.success


def driven(problem, start, driver=None):
    """``(x, success)`` of the driver (or a mutant of it)."""
    values, jacobian = problem.oracle()
    return (driver or convex.slsqp)(
        problem, start, values, jacobian, SOLVER.max_iterations, SOLVER.tolerance
    )


def solver_starts(problem, model=None, constraints=None):
    """The starts ``ConvexSolver.solve`` tries — BiGreedy's, then the fixed
    three — that are finite (an open side makes some of them inf or NaN)."""
    lows, highs = problem.bounds.T
    starts = []
    if model is not None:
        greedy = estimated._warm_start(model, constraints, CostModel())
        if greedy is not None:
            starts.append(np.clip(np.asarray(greedy, dtype=float), lows, highs))
    with np.errstate(invalid="ignore"):
        starts += [highs.copy(), (lows + highs) / 2.0, lows + 0.9 * (highs - lows)]
    return [start for start in starts if np.isfinite(start).all()]


def assert_parity(problem, start):
    expected_x, expected_success = reference(problem, start)
    x, success = driven(problem, start)
    assert np.array_equal(x, expected_x), (x, expected_x)
    assert success == expected_success


# -- the corpus ----------------------------------------------------------------
def _one_row(fun, gradient):
    return (
        lambda v: np.array([fun(v)]),
        lambda v: np.array([gradient(v)], dtype=float),
    )


def _socp():
    """x + y - sqrt((1-x)^2 + (1-y)^2) >= 0 (``test_convex``'s problem)."""

    def jacobian(v):
        norm = max(math.hypot(1 - v[0], 1 - v[1]), 1e-12)
        return [1.0 + (1 - v[0]) / norm, 1.0 + (1 - v[1]) / norm]

    return ConvexProblem(
        [1.0, 1.0],
        constraints=_one_row(lambda v: v[0] + v[1] - math.hypot(1 - v[0], 1 - v[1]), jacobian),
    )


def _coupled(objective, rows, offsets, bounds=None):
    return ConvexProblem(
        objective,
        linear_inequalities=LinearBlock(np.array(rows, dtype=float), np.array(offsets, dtype=float)),
        bounds=bounds,
    )


SOLVER_PROBLEMS = {
    "socp": _socp,
    "x >= y": lambda: _coupled([1.0, -1.0], [[1.0, -1.0]], [0.0]),
    "x + y >= 1": lambda: _coupled([1.0, 1.0], [[1.0, 1.0]], [1.0]),
    "infeasible row": lambda: ConvexProblem(
        [1.0], constraints=_one_row(lambda v: v[0] - 2.0, lambda v: [1.0])
    ),
    "step row": lambda: ConvexProblem(
        [1.0], constraints=_one_row(lambda v: 1.0 if v[0] > 0.95 else -1.0, lambda v: [0.0])
    ),
    "every kind of row": lambda: ConvexProblem(
        [1.0, 1.0],
        constraints=_one_row(lambda v: v[0] - 0.9, lambda v: [1.0, 0.0]),
        linear_inequalities=LinearBlock(np.array([[1.0, -1.0]]), np.array([0.0])),
        bounds=[(0.0, 1.0), (0.25, 0.5)],
    ),
    "box off [0, 1]": lambda: ConvexProblem([1.0, 1.0], bounds=[(2.0, 3.0), (-1.0, -0.5)]),
    "infinite bounds": lambda: _coupled(
        [1.0, -1.0, 1.0], [[1.0, -1.0, 0.0], [0.0, 1.0, 1.0]], [0.0, 0.5],
        bounds=[(0.0, np.inf), (-np.inf, 2.0), (-1.0, 1.0)],
    ),
    "no rows (m == 0)": lambda: ConvexProblem([1.0, 2.0, 0.5]),
}


def _group(key, size, selectivity, variance, sampled=0, positives=0):
    return GroupStatistics(
        key=key, size=size, selectivity=selectivity, variance=variance,
        sampled=sampled, sampled_positives=positives,
    )


_THREE = [
    _group(0, 1000, 0.9, 0.001, 50, 45),
    _group(1, 1000, 0.5, 0.002, 50, 25),
    _group(2, 1000, 0.1, 0.001, 50, 5),
]

#: ``name -> (groups, (alpha, beta, rho))``, one per kind of program.
PROGRAMS = {
    "k = 12": (
        [_group(i, 200 + 37 * i, (i + 1) / 13, 0.002, 20, (i + 1) * 20 // 13) for i in range(12)],
        (0.8, 0.8, 0.8),
    ),
    "k = 1": ([_group(0, 300, 0.6, 0.004, 30, 18)], (0.7, 0.7, 0.5)),
    "alpha = 0": (_THREE, (0.0, 0.8, 0.8)),
    "browsing": (_THREE, (1.0, 0.8, 0.8)),
    "zero variances": (
        [_group(0, 1000, 0.9, 0.0), _group(1, 500, 0.4, 0.0), _group(2, 800, 0.05, 0.003, 40, 2)],
        (0.8, 0.9, 0.95),
    ),
    "infeasible": ([_group(0, 3, 0.5, 0.25, 1, 0), _group(1, 2, 0.3, 0.25)], (0.95, 0.95, 0.95)),
}


def _program(groups, alpha, beta, rho):
    constraints = QueryConstraints(alpha=alpha, beta=beta, rho=rho)
    problem = estimated._independent_program(groups, constraints, CostModel())
    return problem, SelectivityModel(groups), constraints


def corpus():
    """``[(name, problem, start)]``: every named problem from every start."""
    cases = []
    for name, build in SOLVER_PROBLEMS.items():
        problem = build()
        outside = np.full(problem.num_variables, 5.0)
        for i, start in enumerate(solver_starts(problem) + [outside]):
            cases.append((f"{name} / start {i}", problem, start))
    for name, (groups, parameters) in PROGRAMS.items():
        problem, model, constraints = _program(groups, *parameters)
        outside = np.linspace(-0.5, 1.5, problem.num_variables)
        for i, start in enumerate(solver_starts(problem, model, constraints) + [outside]):
            cases.append((f"{name} / start {i}", problem, start))
    return cases


CORPUS = corpus()


@pytest.mark.parametrize("name, problem, start", CORPUS, ids=[case[0] for case in CORPUS])
def test_driver_equals_minimize_on_the_named_corpus(name, problem, start):
    assert_parity(problem, start)


def test_the_named_corpus_covers_what_it_claims():
    # Both verdicts occur, the infeasible program really is infeasible and
    # the row-free problem really has no rows.
    verdicts = {reference(problem, start)[1] for _, problem, start in CORPUS}
    assert verdicts == {True, False}
    groups, parameters = PROGRAMS["infeasible"]
    with pytest.raises(InfeasibleProblemError):
        SOLVER.solve(_program(groups, *parameters)[0])
    assert SOLVER_PROBLEMS["no rows (m == 0)"]().oracle()[0](np.zeros(3)).size == 0


@st.composite
def programs(draw):
    """An independent-groups program, from easy to hopeless, and its starts:
    the solver's plus one drawn around the box."""
    groups = []
    for key in range(draw(st.integers(min_value=1, max_value=12))):
        size = draw(st.integers(min_value=1, max_value=3000))
        sampled = draw(st.integers(min_value=0, max_value=min(size, 60)))
        groups.append(
            _group(
                key,
                size,
                draw(st.floats(min_value=0.0, max_value=1.0)),
                # Exact, sampling-sized, or up to a one-tuple sample's
                # variance — the Chebyshev margin then makes programs infeasible.
                draw(st.sampled_from([0.0, 0.005, 0.25]).flatmap(
                    lambda top: st.floats(min_value=0.0, max_value=top)
                )),
                sampled,
                draw(st.integers(min_value=0, max_value=sampled)),
            )
        )
    alpha = draw(st.one_of(
        st.just(0.0),
        st.floats(min_value=0.05, max_value=0.95),
        st.sampled_from([1.0 - 1e-12, 1.0]),   # browsing
    ))
    beta = draw(st.floats(min_value=0.05, max_value=0.95))
    rho = draw(st.sampled_from([0.5, 0.8, 0.95]))
    problem, model, constraints = _program(groups, alpha, beta, rho)
    starts = solver_starts(problem, model, constraints)
    n = problem.num_variables
    drawn = draw(st.lists(st.floats(min_value=-0.5, max_value=1.5), min_size=n, max_size=n))
    return problem, starts + [np.asarray(drawn)]


@settings(deadline=None)
@given(programs())
def test_driver_equals_minimize_on_drawn_programs(drawn):
    problem, starts = drawn
    for start in starts:
        assert_parity(problem, start)


# -- mutations -----------------------------------------------------------------
def mutant(original, replacement):
    """:func:`convex.slsqp` with one source line changed."""
    source = textwrap.dedent(inspect.getsource(convex.slsqp))
    assert source.count(original) == 1, original
    namespace = {}
    exec(compile(source.replace(original, replacement), convex.__file__, "exec"),
         dict(vars(convex)), namespace)
    return namespace["slsqp"]


@pytest.mark.parametrize(
    "original, replacement",
    [
        ("d[:m] = values(x)", "pass"),
        ("            fx = problem.cost(x)", "            pass"),
        ("xl = np.where(np.isfinite(lows), lows, np.nan)", "xl = lows.copy()"),
    ],
    ids=["d not refreshed on mode 1", "fx not refreshed on mode 1", "open lower bound as -inf"],
)
def test_the_corpus_catches_a_mutated_driver(original, replacement):
    broken = mutant(original, replacement)

    def differs(problem, start):
        expected_x, expected_success = reference(problem, start)
        x, success = driven(problem, start, broken)
        return not (np.array_equal(x, expected_x) and success == expected_success)

    assert any(differs(problem, start) for _, problem, start in CORPUS)


# -- work count ------------------------------------------------------------------
def _columns(rows, seed):
    rng = np.random.default_rng(seed)
    grades = [f"g{int(v)}" for v in rng.integers(0, 5, rows)]
    rates = {"g0": 0.15, "g1": 0.35, "g2": 0.5, "g3": 0.7, "g4": 0.9}
    return {"grade": grades, "is_good": [bool(rng.random() < rates[g]) for g in grades]}


def test_cold_queries_and_refreshes_solve_without_minimize(monkeypatch):
    real_driver, real_solve = convex.slsqp, ConvexSolver.solve
    refused, runs, solves = [], [], []

    def refuse(*args, **kwargs):
        refused.append(1)
        raise AssertionError("scipy.optimize.minimize was called")

    def counted_driver(*args):
        runs.append(1)
        return real_driver(*args)

    def counted_solve(self, *args, **kwargs):
        solves.append(1)
        return real_solve(self, *args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "minimize", refuse)
    monkeypatch.setattr(convex, "slsqp", counted_driver)
    monkeypatch.setattr(ConvexSolver, "solve", counted_solve)

    table = Table.from_columns("driven", _columns(3000, 8), hidden_columns=["is_good"])
    udf = UserDefinedFunction.from_label_column("driven_udf", "is_good")
    catalog = Catalog()
    catalog.register_table(table)
    catalog.register_udf(udf)
    service = QueryService(Engine(catalog))
    query = SelectQuery(
        table.name, UdfPredicate(udf), alpha=0.8, beta=0.8, rho=0.8, correlated_column="grade"
    )
    try:
        paths = []
        for seed, append in ((0, False), (1, True)):
            if append:
                table.append_columns(_columns(60, 5))
            del runs[:], solves[:]
            result = service.submit(query, seed=seed)
            paths.append(result.metadata["plan_cache"])
            assert "fallback_reason" not in result.metadata
            assert (len(solves), len(runs)) == (1, 1)
        assert paths == ["miss", "refresh"]
        assert refused == []
    finally:
        service.close()
