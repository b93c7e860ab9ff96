"""Convex-programming wrapper.

The estimated-selectivity programs of Sections 3.3 and 4.2 minimize a linear
cost subject to constraints of the form::

    linear(x)  -  e_rho * sqrt(convex quadratic(x))  >=  0

The left-hand side is concave, so the feasible set is convex and any local
solver finds the global optimum.  This module wraps :func:`scipy.optimize.minimize`
(SLSQP) with:

* multiple deterministic starting points (all-evaluate, all-retrieve,
  mid-point, plus caller-provided warm starts such as the BiGreedy solution),
* explicit feasibility checking of every candidate, and
* a typed error when no feasible point is found.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np
from scipy.optimize import minimize

from repro.solvers.linear import InfeasibleProblemError

ConstraintFn = Callable[[np.ndarray], float]
ConstraintJac = Callable[[np.ndarray], np.ndarray]
#: A constraint is a bare callable (numerically differentiated by SLSQP) or
#: a ``(fun, jac)`` pair with an analytic gradient — the analytic form turns
#: every jacobian evaluation from ``2k+1`` function calls into one.
Constraint = Union[ConstraintFn, Tuple[ConstraintFn, ConstraintJac]]


def _constraint_fn(constraint: Constraint) -> ConstraintFn:
    return constraint[0] if isinstance(constraint, tuple) else constraint


@dataclass
class ConvexProblem:
    """``minimize objective @ x`` subject to ``g_i(x) >= 0`` and box bounds.

    Attributes
    ----------
    objective:
        Linear cost vector.
    inequality_constraints:
        Callables ``g_i`` that must satisfy ``g_i(x) >= 0`` at a feasible
        point, optionally as ``(g_i, grad_g_i)`` pairs carrying an analytic
        jacobian.  Each must be concave for the solution to be globally
        optimal, which is the case for all programs in the paper.
    linear_inequalities:
        ``(row, bound)`` pairs meaning ``row @ x >= bound`` (used for the
        ``R_a >= E_a`` coupling constraints).
    bounds:
        Per-variable ``(low, high)``; defaults to ``[0, 1]``.
    """

    objective: Sequence[float]
    inequality_constraints: List[Constraint] = field(default_factory=list)
    linear_inequalities: List[Tuple[Sequence[float], float]] = field(default_factory=list)
    bounds: Optional[List[Tuple[float, float]]] = None

    @property
    def num_variables(self) -> int:
        """Number of decision variables."""
        return len(self.objective)

    def cost(self, x: np.ndarray) -> float:
        """Objective value at ``x``."""
        return float(np.dot(np.asarray(self.objective, dtype=float), x))

    def violation(self, x: np.ndarray, tolerance: float = 1e-7) -> float:
        """Maximum constraint violation at ``x`` (0 when feasible)."""
        worst = 0.0
        for constraint in self.inequality_constraints:
            worst = max(worst, -float(_constraint_fn(constraint)(x)))
        for row, bound in self.linear_inequalities:
            worst = max(worst, bound - float(np.dot(row, x)))
        bounds = self.bounds or [(0.0, 1.0)] * self.num_variables
        for value, (low, high) in zip(x, bounds):
            worst = max(worst, low - value, value - high)
        return max(0.0, worst - tolerance if worst > tolerance else worst)

    def is_feasible(self, x: np.ndarray, tolerance: float = 1e-6) -> bool:
        """Whether ``x`` satisfies every constraint within ``tolerance``."""
        return self.violation(x) <= tolerance


@dataclass(frozen=True)
class ConvexSolution:
    """Solution of a :class:`ConvexProblem`."""

    values: np.ndarray
    objective_value: float
    feasible: bool
    status: str

    def __iter__(self):
        return iter(self.values)


class ConvexSolver:
    """SLSQP-based solver with warm starts and feasibility verification."""

    def __init__(
        self,
        max_iterations: int = 300,
        tolerance: float = 1e-9,
        feasibility_tolerance: float = 1e-5,
    ):
        self.max_iterations = max_iterations
        self.tolerance = tolerance
        self.feasibility_tolerance = feasibility_tolerance

    def solve(
        self,
        problem: ConvexProblem,
        warm_starts: Optional[Iterable[Sequence[float]]] = None,
    ) -> ConvexSolution:
        """Solve ``problem``, trying several starting points.

        ``warm_starts`` come first, in order, then three fixed starts.  They
        are consumed lazily — a generator's next start is built only if no
        earlier one converged, so an expensive start can sit behind a cheap
        one and usually cost nothing.

        Returns the best feasible candidate found.  Raises
        :class:`InfeasibleProblemError` when every attempt fails the
        feasibility check.
        """
        n = problem.num_variables
        bounds = problem.bounds or [(0.0, 1.0)] * n
        highs = np.asarray([b[1] for b in bounds], dtype=float)
        lows = np.asarray([b[0] for b in bounds], dtype=float)

        def starts() -> Iterator[np.ndarray]:
            for warm in warm_starts or ():
                yield np.clip(np.asarray(warm, dtype=float), 0.0, 1.0)
            yield highs.copy()                  # all retrieve + evaluate
            yield (lows + highs) / 2.0          # mid point
            yield lows + 0.9 * (highs - lows)   # near the top

        objective_vector = np.asarray(problem.objective, dtype=float)

        def objective(x: np.ndarray) -> float:
            return float(np.dot(objective_vector, x))

        def objective_grad(x: np.ndarray) -> np.ndarray:
            return objective_vector

        scipy_constraints = []
        for constraint in problem.inequality_constraints:
            if isinstance(constraint, tuple):
                fun, jac = constraint
                scipy_constraints.append({"type": "ineq", "fun": fun, "jac": jac})
            else:
                scipy_constraints.append({"type": "ineq", "fun": constraint})
        if problem.linear_inequalities:
            # One vector-valued constraint for every linear row: SLSQP calls
            # a single callback with an exact jacobian instead of one python
            # closure (numerically differentiated) per coupling row.
            matrix = np.asarray(
                [row for row, _ in problem.linear_inequalities], dtype=float
            )
            offsets = np.asarray(
                [bound for _, bound in problem.linear_inequalities], dtype=float
            )
            scipy_constraints.append(
                {
                    "type": "ineq",
                    "fun": (lambda x, m=matrix, b=offsets: m @ x - b),
                    "jac": (lambda x, m=matrix: m),
                }
            )

        best: Optional[ConvexSolution] = None
        tried: List[np.ndarray] = []
        for start in starts():
            tried.append(start)
            result = minimize(
                objective,
                start,
                jac=objective_grad,
                bounds=bounds,
                constraints=scipy_constraints,
                method="SLSQP",
                options={"maxiter": self.max_iterations, "ftol": self.tolerance},
            )
            candidate = np.clip(np.asarray(result.x, dtype=float), lows, highs)
            feasible = problem.is_feasible(candidate, self.feasibility_tolerance)
            if not feasible:
                continue
            cost = problem.cost(candidate)
            if best is None or cost < best.objective_value:
                best = ConvexSolution(
                    values=candidate,
                    objective_value=cost,
                    feasible=True,
                    status="optimal" if result.success else "feasible",
                )
            if result.success:
                # The program is convex (linear objective over a convex
                # feasible set), so any converged feasible solve is already
                # the global optimum — the remaining starts exist only to
                # rescue a failed solve, not to improve a successful one.
                break
        if best is not None:
            return best

        # Final fall-back: check whether the starting points themselves are
        # feasible (e.g. the all-evaluate plan); use the cheapest feasible one.
        # No solve converged, so every start was produced and is in ``tried``.
        feasible_starts = [
            s for s in tried if problem.is_feasible(s, self.feasibility_tolerance)
        ]
        if feasible_starts:
            cheapest = min(feasible_starts, key=problem.cost)
            return ConvexSolution(
                values=np.asarray(cheapest, dtype=float),
                objective_value=problem.cost(cheapest),
                feasible=True,
                status="fallback",
            )
        raise InfeasibleProblemError(
            "convex program has no feasible point among solver attempts"
        )
