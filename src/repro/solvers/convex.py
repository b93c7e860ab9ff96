"""Convex-programming wrapper.

The estimated-selectivity programs of Sections 3.3 and 4.2 minimize a linear
cost subject to constraints of the form::

    linear(x)  -  e_rho * sqrt(convex quadratic(x))  >=  0

The left-hand side is concave, so the feasible set is convex and any local
solver finds the global optimum.  A :class:`ConvexProblem` states its
constraints as arrays, not as lists of Python objects: the nonlinear rows are
**one** vector-valued ``(fun, jac)`` pair and the linear rows are one
``(matrix, offsets)`` block.  :meth:`ConvexProblem.oracle` stacks the two into
the single constraint :func:`scipy.optimize.minimize` (SLSQP) is given — one
values callback and one jacobian callback per iteration, both returning
preallocated arrays, the jacobian's linear rows written once.  Around that
solve this module adds:

* multiple deterministic starting points (all-evaluate, mid-point, near the
  top, after caller-provided warm starts such as the BiGreedy solution),
* explicit feasibility checking of every candidate, and
* a typed error when no feasible point is found.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.solvers.linear import InfeasibleProblemError


def minimize(fun, x0, **kwargs):
    """:func:`scipy.optimize.minimize`, imported by the first solve.

    scipy is half of ``import repro``'s time and resident memory, and a
    process that never solves — every spawned pool worker — should pay
    neither.  The name stays a module attribute: it is the seam tests
    interpose on.
    """
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(fun, x0, **kwargs)

#: ``fun(x)`` returns the nonlinear constraint values ``g(x)`` as a vector,
#: ``jac(x)`` their jacobian, one row per value.  Either may return the same
#: buffer on every call: the caller copies what it keeps.
ConstraintFn = Callable[[np.ndarray], np.ndarray]


@dataclass
class LinearBlock:
    """Linear rows ``matrix @ x >= offsets``."""

    matrix: np.ndarray
    offsets: np.ndarray

    def append(self, inequality: Tuple[Sequence[float], float]) -> None:
        """Add one ``(row, bound)`` meaning ``row @ x >= bound``."""
        row, bound = inequality
        self.matrix = np.vstack([self.matrix, np.asarray(row, dtype=float)])
        self.offsets = np.append(self.offsets, float(bound))


@dataclass
class ConvexProblem:
    """``minimize objective @ x`` subject to ``g(x) >= 0`` and box bounds.

    Attributes
    ----------
    objective:
        Linear cost vector.
    constraints:
        The nonlinear rows as one ``(fun, jac)`` pair: ``fun(x)`` is a vector
        that must be ``>= 0`` at a feasible point and ``jac(x)`` its analytic
        jacobian.  Every component must be concave for the solution to be
        globally optimal, which is the case for all programs in the paper.
        Defaults to no rows.
    linear_inequalities:
        The linear rows (used for the ``R_a >= E_a`` coupling constraints);
        starts empty unless given.
    bounds:
        Per-variable ``(low, high)``; defaults to ``[0, 1]``.  Held as one
        ``(n, 2)`` array.
    """

    objective: Sequence[float]
    constraints: Optional[Tuple[ConstraintFn, ConstraintFn]] = None
    linear_inequalities: Optional[LinearBlock] = None
    bounds: Optional[Sequence[Tuple[float, float]]] = None

    def __post_init__(self) -> None:
        self.objective = np.asarray(self.objective, dtype=float)
        n = self.num_variables
        if self.constraints is None:
            self.constraints = (lambda x: np.empty(0), lambda x: np.empty((0, n)))
        if self.linear_inequalities is None:
            self.linear_inequalities = LinearBlock(np.empty((0, n)), np.empty(0))
        self.bounds = np.asarray(self.bounds or [(0.0, 1.0)] * n, dtype=float).reshape(n, 2)

    @property
    def num_variables(self) -> int:
        """Number of decision variables."""
        return len(self.objective)

    def cost(self, x: np.ndarray) -> float:
        """Objective value at ``x``."""
        return float(np.dot(self.objective, x))

    def oracle(self) -> Tuple[ConstraintFn, ConstraintFn]:
        """Every constraint row as one ``(values, jacobian)`` pair for SLSQP.

        Rows are the nonlinear ones, then the linear block.  Both callbacks
        write into arrays allocated here; the jacobian's linear rows never
        change, so they are filled once.
        """
        fun, jac = self.constraints
        matrix, offsets = self.linear_inequalities.matrix, self.linear_inequalities.offsets
        head = np.size(fun(self.bounds[:, 0]))
        out = np.empty(head + offsets.size)
        normals = np.empty((out.size, self.num_variables))
        normals[head:] = matrix

        def values(x: np.ndarray) -> np.ndarray:
            out[:head] = fun(x)
            np.subtract(matrix @ x, offsets, out=out[head:])
            return out

        def jacobian(x: np.ndarray) -> np.ndarray:
            normals[:head] = jac(x)
            return normals

        return values, jacobian

    def violation(self, x: np.ndarray, tolerance: float = 1e-7) -> float:
        """Maximum constraint violation at ``x`` (0 when feasible).

        A quirk kept on purpose, because feasibility verdicts hang off it:
        the worst shortfall comes back *as is* up to ``tolerance`` and
        ``worst - tolerance`` above it, so the result jumps down by
        ``tolerance`` just past that point.  NaN rows are ignored.
        """
        x = np.asarray(x, dtype=float)
        block = self.linear_inequalities
        shortfalls = np.concatenate(
            [
                -np.ravel(self.constraints[0](x)),
                block.offsets - block.matrix @ x,
                self.bounds[:, 0] - x,
                x - self.bounds[:, 1],
            ]
        )
        worst = float(np.fmax.reduce(shortfalls, initial=0.0))
        return max(0.0, worst - tolerance if worst > tolerance else worst)

    def is_feasible(self, x: np.ndarray, tolerance: float = 1e-6) -> bool:
        """Whether ``x`` satisfies every constraint within ``tolerance``.

        ``tolerance`` bounds :meth:`violation`'s result, which is computed at
        that method's own default (``1e-7``) — the two do not share one.
        """
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
        from scipy.optimize import Bounds

        lows, highs = problem.bounds.T
        bounds = Bounds(lows, highs)

        def starts() -> Iterator[np.ndarray]:
            for warm in warm_starts or ():
                yield np.clip(np.asarray(warm, dtype=float), lows, highs)
            yield highs.copy()                  # all retrieve + evaluate
            yield (lows + highs) / 2.0          # mid point
            yield lows + 0.9 * (highs - lows)   # near the top

        values, jacobian = problem.oracle()
        constraint = {"type": "ineq", "fun": values, "jac": jacobian}

        best: Optional[ConvexSolution] = None
        tried: List[np.ndarray] = []
        for start in starts():
            tried.append(start)
            result = minimize(
                problem.cost,
                start,
                jac=lambda x: problem.objective,
                bounds=bounds,
                constraints=constraint,
                method="SLSQP",
                options={"maxiter": self.max_iterations, "ftol": self.tolerance},
            )
            candidate = np.clip(np.asarray(result.x, dtype=float), lows, highs)
            if not problem.is_feasible(candidate, self.feasibility_tolerance):
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
