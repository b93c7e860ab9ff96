"""Convex-programming wrapper.

The estimated-selectivity programs of Sections 3.3 and 4.2 minimize a linear
cost subject to constraints of the form::

    linear(x)  -  e_rho * sqrt(convex quadratic(x))  >=  0

The left-hand side is concave, so the feasible set is convex and any local
solver finds the global optimum.  A :class:`ConvexProblem` states its
constraints as arrays, not as lists of Python objects: the nonlinear rows are
**one** vector-valued ``(fun, jac)`` pair and the linear rows are one
``(matrix, offsets)`` block.  :meth:`ConvexProblem.oracle` stacks the two into
the single constraint SLSQP is given — one values callback and one jacobian
callback per iteration, both returning preallocated arrays, the jacobian's
linear rows written once.

SLSQP runs through :func:`slsqp`, which drives scipy's step routine
(``scipy.optimize._slsqplib.slsqp``, shipped since scipy 1.16) exactly as
:func:`scipy.optimize.minimize` with ``method="SLSQP"`` drives it, and
nothing else.  Why not ``minimize`` itself: on a six-group planner program
(2-core x86 box, scipy 1.17) a solve took 1.19 ms through it and takes
0.82 ms driven directly, of which 0.44 ms is SLSQP's own steps; the
difference was ``minimize``'s per-call validation, ``ScalarFunction``
wrapper, bound conversions and result object, paid on every cold plan and
every refresh.  The driver keeps every iterate bit for bit, so plans and
answers do not move.  It leans on a private scipy routine, so
``tests/solvers/test_slsqp_driver.py`` holds it to public ``minimize`` and
is the gate a scipy release that changes the step fails by name.  Around
that solve this module adds:

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
        Per-variable ``(low, high)`` — a sequence of pairs or the ``(n, 2)``
        array it is held as; defaults to ``[0, 1]``.  An infinite bound
        leaves that side open.  A high below its low raises
        :class:`ValueError` here, not at solve time.
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
        if self.bounds is None:
            self.bounds = np.tile([0.0, 1.0], (n, 1))
        self.bounds = np.asarray(self.bounds, dtype=float)
        if self.bounds.shape != (n, 2):
            raise ValueError(
                f"bounds must be {n} (low, high) pairs, got shape {self.bounds.shape}"
            )
        if np.any(self.bounds[:, 1] < self.bounds[:, 0]):
            raise ValueError("An upper bound is less than the corresponding lower bound.")

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


def slsqp(
    problem: ConvexProblem,
    start: np.ndarray,
    values: ConstraintFn,
    jacobian: ConstraintFn,
    max_iterations: int,
    tolerance: float,
) -> Tuple[np.ndarray, bool]:
    """One SLSQP run on ``problem`` from ``start``: ``(x, converged)``.

    ``values`` / ``jacobian`` are the problem's :meth:`~ConvexProblem.oracle`
    (every row an inequality).  This is the reverse-communication loop
    :func:`scipy.optimize.minimize` runs for ``method="SLSQP"`` with
    ``options={"maxiter": max_iterations, "ftol": tolerance}``, stated once
    for a linear objective with an analytic jacobian: the same clipped start,
    state, buffer sizes and callback values, so every iterate is the same to
    the bit.  What is left out is work whose result this program never reads
    — argument validation, the ``ScalarFunction`` cache, per-call bound
    conversions, the result object.  scipy (≥ 1.16, which ships the step as
    ``scipy.optimize._slsqplib``) is imported by the first solve.
    """
    from scipy.optimize._slsqplib import slsqp as step

    lows, highs = problem.bounds.T
    # A NaN bound is an open side, as scipy's bound conversion makes it; the
    # step itself reads every non-finite bound as NaN.
    x = np.clip(
        np.asarray(start, dtype=float),
        np.where(lows > -np.inf, lows, -np.inf),
        np.where(highs < np.inf, highs, np.inf),
    )
    xl = np.where(np.isfinite(lows), lows, np.nan)
    xu = np.where(np.isfinite(highs), highs, np.nan)

    n = x.size
    fx = problem.cost(x)
    gradient = problem.objective
    constraint_values = values(x)
    m = constraint_values.size
    d = np.zeros(max(1, m))
    d[:m] = constraint_values
    normals = np.zeros((max(1, m), n), order="F")
    normals[:m] = jacobian(x)
    state = {
        "acc": tolerance, "alpha": 0.0, "f0": 0.0, "gs": 0.0, "h1": 0.0,
        "h2": 0.0, "h3": 0.0, "h4": 0.0, "t": 0.0, "t0": 0.0,
        "tol": 10.0 * tolerance, "exact": 0, "inconsistent": 0, "reset": 0,
        "iter": 0, "itermax": int(max_iterations), "line": 0, "m": m, "meq": 0,
        "mode": 0, "n": n,
    }
    # scipy's worst-case workspace with no equality rows, topped up when
    # there are no inequality rows either.
    size = n * (n + 1) // 2 + 3 * m * n + 9 * m + 8 * n * n + 35 * n + 28
    if m == 0:
        size += 2 * n * (n + 1)
    buffer = np.zeros(size)
    indices = np.zeros(m + 2 * n + 2, dtype=np.int32)
    multipliers = np.zeros(m + 2 * n + 2)
    while True:
        step(state, fx, gradient, normals, d, x, multipliers, xl, xu, buffer, indices)
        mode = state["mode"]
        if mode == 1:           # objective and constraint values at the new x
            fx = problem.cost(x)
            d[:m] = values(x)
        elif mode == -1:        # jacobian at the new x (the gradient is constant)
            normals[:m] = jacobian(x)
        else:
            return x, mode == 0


class ConvexSolver:
    """SLSQP-based solver with warm starts and feasibility verification.

    Each start is one :func:`slsqp` run — scipy's SLSQP step driven directly,
    not through ``scipy.optimize.minimize``, with the same iterates bit for
    bit (see the module docstring for why and what guards it).
    """

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
        lows, highs = problem.bounds.T

        def starts() -> Iterator[np.ndarray]:
            for warm in warm_starts or ():
                yield np.clip(np.asarray(warm, dtype=float), lows, highs)
            yield highs.copy()                  # all retrieve + evaluate
            yield (lows + highs) / 2.0          # mid point
            yield lows + 0.9 * (highs - lows)   # near the top

        values, jacobian = problem.oracle()

        best: Optional[ConvexSolution] = None
        tried: List[np.ndarray] = []
        for start in starts():
            tried.append(start)
            x, converged = slsqp(
                problem, start, values, jacobian, self.max_iterations, self.tolerance
            )
            candidate = np.clip(x, lows, highs)
            if not problem.is_feasible(candidate, self.feasibility_tolerance):
                continue
            cost = problem.cost(candidate)
            if best is None or cost < best.objective_value:
                best = ConvexSolution(
                    values=candidate,
                    objective_value=cost,
                    feasible=True,
                    status="optimal" if converged else "feasible",
                )
            if converged:
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
