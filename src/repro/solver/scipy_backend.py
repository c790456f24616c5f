"""HiGHS-backed LP/MILP solving via :mod:`scipy.optimize`.

The pure-Python simplex (:mod:`repro.solver.simplex`) is the from-scratch
reference implementation; this module provides the fast path used by default
for large scenario-tree MILPs.  Both speak the same
:class:`~repro.solver.model.CompiledProblem` / :class:`~repro.solver.result.SolverResult`
interface, and the test suite cross-checks them against each other.

SciPy is an *optional* dependency of the solver stack: this module imports
without it, :func:`scipy_available` reports whether the fast path exists,
and ``backend="auto"`` (see :mod:`repro.solver.interface`) degrades to the
pure-Python stack when it does not.  Calling either solve function without
SciPy raises a descriptive :class:`ImportError`.

:mod:`scipy.optimize` is imported on the first :func:`scipy_available` or
HiGHS call, not with this module: a process that only runs the exact DPs
and the pure-Python stack never pays for it.
"""

from __future__ import annotations

import math

import numpy as np

from .model import CompiledProblem
from .result import SolverResult, SolverStatus
from .telemetry import Deadline, Telemetry

_UNLOADED = object()
#: :mod:`scipy.optimize` once loaded, ``None`` when it cannot be imported
#: (tests also set ``None`` to simulate that), ``_UNLOADED`` before the
#: first use.
sciopt = _UNLOADED
_SCIPY_IMPORT_ERROR: Exception | None = None

__all__ = ["scipy_available", "solve_lp_scipy", "solve_milp_scipy"]

_STATUS_FROM_LINPROG = {
    0: SolverStatus.OPTIMAL,
    1: SolverStatus.ITERATION_LIMIT,
    2: SolverStatus.INFEASIBLE,
    3: SolverStatus.UNBOUNDED,
    4: SolverStatus.ERROR,
}


def _load_scipy():
    """:mod:`scipy.optimize`, imported on first use, or ``None``."""
    global sciopt, _SCIPY_IMPORT_ERROR
    if sciopt is _UNLOADED:
        try:
            from scipy import optimize
        except ImportError as exc:  # pragma: no cover - exercised by the scipy-less CI job
            sciopt, _SCIPY_IMPORT_ERROR = None, exc
        else:
            sciopt = optimize
    return sciopt


def scipy_available() -> bool:
    """True when :mod:`scipy.optimize` imports (loading it on the first call)."""
    return _load_scipy() is not None


def _require_scipy(caller: str):
    """:mod:`scipy.optimize`, or a descriptive :class:`ImportError`."""
    module = _load_scipy()
    if module is None:
        raise ImportError(
            f"{caller} requires scipy, which is not installed; use "
            "backend='auto' (falls back to the pure-Python simplex stack) "
            "or backend='simplex'"
        ) from _SCIPY_IMPORT_ERROR
    return module


def _bounds(problem: CompiledProblem) -> list[tuple[float | None, float | None]]:
    return [
        (lb if np.isfinite(lb) else None, ub if np.isfinite(ub) else None)
        for lb, ub in zip(problem.lb, problem.ub)
    ]


def _finish(problem: CompiledProblem, status: SolverStatus, x, iterations: int = 0, nodes: int = 0, bound=None, extra=None) -> SolverResult:
    if status.has_solution and x is not None:
        x = np.asarray(x, dtype=float)
        obj = problem.objective_value(x)
        b = obj if bound is None else (-bound if problem.maximize else bound)
        return SolverResult(
            status=status, x=x, objective=obj, bound=b,
            iterations=iterations, nodes=nodes, extra=extra or {},
        )
    return SolverResult(status=status, iterations=iterations, nodes=nodes, extra=extra or {})


def _dual_certificate_from_linprog(problem: CompiledProblem, res) -> dict[str, np.ndarray] | None:
    """Map HiGHS marginals to the checker's dual convention.

    ``linprog`` marginals are the sensitivities d(opt)/d(rhs); for a
    minimization with ``A_ub x <= b_ub`` they are nonpositive and relate to
    the checker's nonnegative multipliers by a sign flip (``y = -marginal``).
    Bound multipliers are re-derived by the checker from the reduced costs.
    """
    ineq = getattr(res, "ineqlin", None)
    eq = getattr(res, "eqlin", None)
    m_ub, m_eq = problem.A_ub.shape[0], problem.A_eq.shape[0]
    y_ub = np.zeros(m_ub)
    y_eq = np.zeros(m_eq)
    if m_ub:
        marg = getattr(ineq, "marginals", None)
        if marg is None or len(marg) != m_ub:
            return None
        y_ub = -np.asarray(marg, dtype=float)
    if m_eq:
        marg = getattr(eq, "marginals", None)
        if marg is None or len(marg) != m_eq:
            return None
        y_eq = -np.asarray(marg, dtype=float)
    return {"y_ub": y_ub, "y_eq": y_eq}


def solve_lp_scipy(
    problem: CompiledProblem,
    deadline: Deadline | None = None,
    telemetry: Telemetry | None = None,
    **kwargs,
) -> SolverResult:
    """Solve the LP relaxation with ``scipy.optimize.linprog(method='highs')``.

    A :class:`~repro.solver.telemetry.Deadline` maps onto HiGHS's own
    ``time_limit`` option so even a single LP respects the shared budget.
    """
    optimize = _require_scipy("solve_lp_scipy")
    options = dict(kwargs.pop("options", {}) or {})
    if deadline is not None and math.isfinite(deadline.remaining()):
        if deadline.expired():
            if telemetry:
                telemetry.emit("deadline_exceeded", where="solve_lp_scipy")
            return SolverResult(status=SolverStatus.TIME_LIMIT)
        options.setdefault("time_limit", max(deadline.remaining(), 1e-3))
    def run():
        return optimize.linprog(
            c=problem.c,
            A_ub=problem.A_ub if problem.A_ub.size else None,
            b_ub=problem.b_ub if problem.b_ub.size else None,
            A_eq=problem.A_eq if problem.A_eq.size else None,
            b_eq=problem.b_eq if problem.b_eq.size else None,
            bounds=_bounds(problem),
            method="highs",
            options=options or None,
            **kwargs,
        )

    if telemetry:
        with telemetry.phase(
            "highs_lp", rows=problem.num_constraints, cols=problem.num_vars
        ) as info:
            res = run()
            info["pivots"] = int(getattr(res, "nit", 0) or 0)
    else:
        res = run()
    status = _STATUS_FROM_LINPROG.get(res.status, SolverStatus.ERROR)
    iters = int(getattr(res, "nit", 0) or 0)
    if status is SolverStatus.ITERATION_LIMIT and deadline is not None and deadline.expired():
        status = SolverStatus.TIME_LIMIT  # HiGHS reports its time limit as status 1
    extra = None
    if status is SolverStatus.OPTIMAL and res.success:
        cert = _dual_certificate_from_linprog(problem, res)
        if cert is not None:
            extra = {"dual_certificate": cert}
    return _finish(problem, status, res.x if res.success else None, iterations=iters, extra=extra)


def solve_milp_scipy(
    problem: CompiledProblem,
    time_limit: float | None = None,
    mip_rel_gap: float | None = None,
    deadline: Deadline | None = None,
    telemetry: Telemetry | None = None,
) -> SolverResult:
    """Solve the MILP with ``scipy.optimize.milp`` (HiGHS branch-and-cut)."""
    optimize = _require_scipy("solve_milp_scipy")
    if deadline is not None and math.isfinite(deadline.remaining()):
        if deadline.expired():
            if telemetry:
                telemetry.emit("deadline_exceeded", where="solve_milp_scipy")
            return SolverResult(status=SolverStatus.TIME_LIMIT)
        remaining = max(deadline.remaining(), 1e-3)
        time_limit = remaining if time_limit is None else min(time_limit, remaining)
    constraints = []
    if problem.A_ub.size:
        constraints.append(
            optimize.LinearConstraint(problem.A_ub, -np.inf, problem.b_ub)
        )
    if problem.A_eq.size:
        constraints.append(
            optimize.LinearConstraint(problem.A_eq, problem.b_eq, problem.b_eq)
        )
    options = {}
    if time_limit is not None:
        options["time_limit"] = time_limit
    if mip_rel_gap is not None:
        options["mip_rel_gap"] = mip_rel_gap
    def run():
        return optimize.milp(
            c=problem.c,
            constraints=constraints or None,
            integrality=problem.integrality,
            bounds=optimize.Bounds(problem.lb, problem.ub),
            options=options or None,
        )

    if telemetry:
        with telemetry.phase(
            "highs_milp", rows=problem.num_constraints, cols=problem.num_vars
        ) as info:
            res = run()
            info["nodes"] = int(getattr(res, "mip_node_count", 0) or 0)
    else:
        res = run()
    if res.status == 0:
        status = SolverStatus.OPTIMAL
    elif res.status == 2:
        status = SolverStatus.INFEASIBLE
    elif res.status == 3:
        status = SolverStatus.UNBOUNDED
    elif res.status == 1 and res.x is not None:
        status = SolverStatus.FEASIBLE  # stopped at a limit with incumbent
    elif res.status == 1:
        status = SolverStatus.TIME_LIMIT
    else:
        status = SolverStatus.ERROR
    bound = getattr(res, "mip_dual_bound", None)
    nodes = int(getattr(res, "mip_node_count", 0) or 0)
    if telemetry and status.has_solution:
        telemetry.emit(
            "incumbent",
            objective=problem.objective_value(np.asarray(res.x, dtype=float)),
            source="highs",
        )
    return _finish(problem, status, res.x, nodes=nodes, bound=bound)
