"""LP sensitivity: dual values and reduced costs.

Post-optimality analysis for the planning models — e.g. the marginal cost
of one more GB of demand in slot t (the dual of that slot's inventory
balance row once the rental pattern is fixed).  Duals come from the HiGHS
backend's marginals; the report is backend-agnostic data.

Sign conventions follow ``scipy.optimize.linprog``: for a minimization,
``duals_eq[i]`` is ∂objective/∂b_eq[i], ``duals_ub[i]`` ≤ 0 is
∂objective/∂b_ub[i], and ``reduced_costs[j]`` is the objective change per
unit increase of variable j away from its active bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import CompiledProblem

__all__ = ["SensitivityReport", "lp_sensitivity"]


@dataclass(frozen=True)
class SensitivityReport:
    """Primal/dual optimum of an LP.

    Attributes
    ----------
    x / objective:
        The primal solution.
    duals_eq / duals_ub:
        Marginals of the equality / inequality rows.
    reduced_costs:
        Combined bound marginals per variable (lower + upper).
    """

    x: np.ndarray
    objective: float
    duals_eq: np.ndarray
    duals_ub: np.ndarray
    reduced_costs: np.ndarray

    def binding_ub_rows(self, tol: float = 1e-9) -> np.ndarray:
        """Indices of inequality rows with nonzero shadow price."""
        return np.nonzero(np.abs(self.duals_ub) > tol)[0]


def lp_sensitivity(problem: CompiledProblem) -> SensitivityReport:
    """Solve the LP (integrality ignored) and return primal+dual information.

    Raises
    ------
    RuntimeError
        If the LP is not solved to optimality (duals undefined).
    ImportError
        If scipy is not installed (duals come from HiGHS marginals).
    """
    from .scipy_backend import _require_scipy

    optimize = _require_scipy("lp_sensitivity")
    res = optimize.linprog(
        c=problem.c,
        A_ub=problem.A_ub if problem.A_ub.size else None,
        b_ub=problem.b_ub if problem.b_ub.size else None,
        A_eq=problem.A_eq if problem.A_eq.size else None,
        b_eq=problem.b_eq if problem.b_eq.size else None,
        bounds=[
            (lb if np.isfinite(lb) else None, ub if np.isfinite(ub) else None)
            for lb, ub in zip(problem.lb, problem.ub)
        ],
        method="highs",
    )
    if res.status != 0:
        raise RuntimeError(f"LP not optimal (status {res.status}): {res.message}")
    duals_eq = np.asarray(res.eqlin.marginals, dtype=float) if problem.A_eq.size else np.zeros(0)
    duals_ub = np.asarray(res.ineqlin.marginals, dtype=float) if problem.A_ub.size else np.zeros(0)
    reduced = np.asarray(res.lower.marginals, dtype=float) + np.asarray(
        res.upper.marginals, dtype=float
    )
    x = np.asarray(res.x, dtype=float)
    objective = problem.objective_value(x)
    if problem.maximize:
        duals_eq, duals_ub, reduced = -duals_eq, -duals_ub, -reduced
    return SensitivityReport(
        x=x, objective=objective,
        duals_eq=duals_eq, duals_ub=duals_ub, reduced_costs=reduced,
    )
