"""Linear-programming wrapper.

A light abstraction over :func:`scipy.optimize.linprog` so that the core
optimizers can state problems in "maximize/minimize subject to >= constraints"
form without worrying about scipy's sign conventions, and so that solver
failures surface as typed exceptions with diagnostic context.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np


class InfeasibleProblemError(RuntimeError):
    """The LP (or convex program) has no feasible point."""

    def __init__(self, message: str, status: Optional[int] = None):
        super().__init__(message)
        self.status = status


@dataclass
class LinearProgram:
    """``minimize c @ x`` subject to ``A_ge @ x >= b_ge`` and bounds.

    Attributes
    ----------
    objective:
        Cost vector ``c``.
    constraints_ge:
        List of ``(row, bound)`` pairs encoding ``row @ x >= bound``.
    constraints_eq:
        List of ``(row, value)`` pairs encoding ``row @ x == value``.
    bounds:
        Per-variable ``(low, high)`` bounds; defaults to ``[0, 1]``.
    """

    objective: Sequence[float]
    constraints_ge: List[Tuple[Sequence[float], float]] = field(default_factory=list)
    constraints_eq: List[Tuple[Sequence[float], float]] = field(default_factory=list)
    bounds: Optional[List[Tuple[float, float]]] = None

    @property
    def num_variables(self) -> int:
        """Number of decision variables."""
        return len(self.objective)

    def add_ge(self, row: Sequence[float], bound: float) -> None:
        """Append a ``row @ x >= bound`` constraint."""
        if len(row) != self.num_variables:
            raise ValueError(
                f"constraint has {len(row)} coefficients for {self.num_variables} variables"
            )
        self.constraints_ge.append((list(row), float(bound)))

    def add_eq(self, row: Sequence[float], value: float) -> None:
        """Append a ``row @ x == value`` constraint."""
        if len(row) != self.num_variables:
            raise ValueError(
                f"constraint has {len(row)} coefficients for {self.num_variables} variables"
            )
        self.constraints_eq.append((list(row), float(value)))


@dataclass(frozen=True)
class LinearSolution:
    """Solution of a :class:`LinearProgram`."""

    values: np.ndarray
    objective_value: float
    status: str

    def __iter__(self):
        return iter(self.values)


def linprog(c, **kwargs):
    """:func:`scipy.optimize.linprog`, imported by the first solve.

    scipy is half of ``import repro``'s time and resident memory, and a
    process that never solves — every spawned pool worker — should pay
    neither (:func:`repro.solvers.convex.slsqp` imports it the same way).
    The name stays a module attribute: it is the seam tests interpose on.
    """
    from scipy.optimize import linprog as scipy_linprog

    return scipy_linprog(c, **kwargs)


def solve_linear_program(program: LinearProgram) -> LinearSolution:
    """Solve ``program`` with scipy's HiGHS backend.

    Raises
    ------
    InfeasibleProblemError
        If no feasible point exists (or the solver reports failure).
    """
    c = np.asarray(program.objective, dtype=float)
    a_ub = None
    b_ub = None
    if program.constraints_ge:
        # scipy wants A_ub @ x <= b_ub, so negate the >= constraints.
        a_ub = -np.asarray([row for row, _ in program.constraints_ge], dtype=float)
        b_ub = -np.asarray([bound for _, bound in program.constraints_ge], dtype=float)
    a_eq = None
    b_eq = None
    if program.constraints_eq:
        a_eq = np.asarray([row for row, _ in program.constraints_eq], dtype=float)
        b_eq = np.asarray([value for _, value in program.constraints_eq], dtype=float)
    bounds = program.bounds or [(0.0, 1.0)] * program.num_variables

    result = linprog(
        c,
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=bounds,
        method="highs",
    )
    if not result.success:
        raise InfeasibleProblemError(
            f"linear program could not be solved: {result.message}",
            status=result.status,
        )
    return LinearSolution(
        values=np.asarray(result.x, dtype=float),
        objective_value=float(result.fun),
        status="optimal",
    )
