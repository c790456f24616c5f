"""Unified solve entry points dispatching across backends.

Callers build a :class:`~repro.solver.model.Model` and call :func:`solve`;
the backend string picks the engine:

``"auto"``
    HiGHS (`scipy`) when available for the problem class, otherwise the
    pure-Python stack.  This is the default everywhere in the library.
    The fallback chain is HiGHS -> pure simplex; each hop emits a
    ``backend_degraded`` telemetry event and a :class:`RuntimeWarning`.
``"simplex"``
    Pure-Python two-phase revised simplex (LP) / simplex-based
    branch-and-bound (MILP).  The from-scratch reference implementation;
    an LP whose basis refuses to factorize ends with status ``ERROR``
    (``extra["reason"]``, plus a ``numerical_trouble`` event when it is
    solved with a listener), with no fallback to HiGHS.
``"simplex+cuts"``
    Same, with Gomory mixed-integer cuts at the root.
``"scipy"``
    ``scipy.optimize.linprog`` / ``scipy.optimize.milp`` (HiGHS).

Every entry point additionally accepts

``listener``
    A telemetry callback (callable or object with ``on_event``; see
    :mod:`repro.solver.telemetry`) receiving structured solve events:
    phase timers, simplex pivot counts, B&B node lifecycle, incumbent
    updates, degradation notices.
``deadline`` / ``time_limit``
    One wall-clock budget for the *whole* solve, threaded through branch
    and bound, cut rounds, simplex pivot loops, and the HiGHS options.
    On expiry the best incumbent is returned with status ``FEASIBLE``
    (or ``TIME_LIMIT`` when nothing feasible was found) — never a hang,
    never an exception.
"""

from __future__ import annotations

import warnings

from .branch_bound import BranchAndBoundOptions, branch_and_bound
from .model import CompiledProblem, Model
from .presolve import presolve
from .result import SolverResult, SolverStatus
from .scipy_backend import scipy_available, solve_lp_scipy, solve_milp_scipy
from .simplex import solve_lp_simplex
from .telemetry import Deadline, Telemetry

__all__ = ["solve", "solve_compiled", "BACKENDS"]

BACKENDS = ("auto", "simplex", "simplex+cuts", "scipy")


def _degrade(telemetry: Telemetry | None, from_backend: str, to_backend: str, reason: str) -> None:
    warnings.warn(
        f"backend {from_backend!r} unavailable ({reason}); falling back to "
        f"{to_backend!r}",
        RuntimeWarning,
        stacklevel=3,
    )
    if telemetry:
        telemetry.emit(
            "backend_degraded",
            from_backend=from_backend,
            to_backend=to_backend,
            reason=reason,
        )


def resolve_auto(backend: str, telemetry: Telemetry | None = None) -> str:
    """``backend``, with ``"auto"`` turned into ``"simplex"`` when SciPy is
    not importable (one ``backend_degraded`` event and warning).

    A loop of solves (the Benders master) calls this once up front, so it
    degrades once rather than on every solve.  ``"auto"`` stays ``"auto"``
    while HiGHS is there, keeping its runtime fallback to the simplex.
    """
    if backend == "auto" and not scipy_available():
        _degrade(telemetry, "scipy", "simplex", "scipy is not importable")
        return "simplex"
    return backend


def _dispatch(
    problem: CompiledProblem,
    backend: str,
    bb_options: BranchAndBoundOptions | None,
    deadline: Deadline | None,
    telemetry: Telemetry | None,
    backend_kwargs: dict,
) -> SolverResult:
    is_mip = bool(problem.integrality.any())

    if backend == "scipy":
        if is_mip:
            return solve_milp_scipy(problem, deadline=deadline, telemetry=telemetry, **backend_kwargs)
        return solve_lp_scipy(problem, deadline=deadline, telemetry=telemetry, **backend_kwargs)

    # pure-python stack
    if not is_mip:
        return solve_lp_simplex(problem, deadline=deadline, telemetry=telemetry, **backend_kwargs)
    opts = bb_options or BranchAndBoundOptions()
    if backend == "simplex+cuts":
        opts = BranchAndBoundOptions(**{**opts.__dict__, "use_root_cuts": True})
    return branch_and_bound(
        problem,
        lambda p, warm_start=None: solve_lp_simplex(p, deadline=deadline, warm_start=warm_start),
        options=opts,
        deadline=deadline,
        telemetry=telemetry,
    )


def solve_compiled(
    problem: CompiledProblem,
    backend: str = "auto",
    use_presolve: bool = True,
    bb_options: BranchAndBoundOptions | None = None,
    listener=None,
    deadline: Deadline | float | None = None,
    time_limit: float | None = None,
    **backend_kwargs,
) -> SolverResult:
    """Solve a compiled problem; see module docstring for backend names."""
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; expected one of {BACKENDS}")

    telemetry = Telemetry.from_listener(listener)
    deadline = Deadline.from_budget(deadline, time_limit)

    if telemetry:
        solve_t0 = telemetry.now()
        telemetry.emit(
            "solve_start",
            backend=backend,
            num_vars=problem.num_vars,
            num_constraints=problem.num_constraints,
            is_mip=bool(problem.integrality.any()),
            budget=deadline.remaining() if deadline is not None else None,
        )

    def done(res: SolverResult) -> SolverResult:
        if deadline is not None:
            res.extra.setdefault("wall_time", deadline.elapsed())
        if telemetry:
            telemetry.emit(
                "solve_end",
                status=res.status.value,
                objective=res.objective,
                nodes=res.nodes,
                iterations=res.iterations,
                duration=telemetry.now() - solve_t0,
            )
        return res

    if use_presolve:
        if telemetry:
            with telemetry.phase("presolve") as info:
                pre = presolve(problem)
                info["rows_removed"] = pre.rows_removed
                info["bounds_tightened"] = pre.bounds_tightened
        else:
            pre = presolve(problem)
        if pre.infeasible:
            return done(SolverResult(status=SolverStatus.INFEASIBLE, extra={"presolve": pre}))
        problem = pre.problem

    backend = resolve_auto(backend, telemetry)
    if backend == "auto":
        # The auto chain also absorbs runtime failures of the fast path:
        # an ERROR status or unexpected exception from HiGHS retries on the
        # pure-Python stack instead of surfacing a crash to the planner.
        try:
            res = _dispatch(problem, "scipy", bb_options, deadline, telemetry, backend_kwargs)
        except Exception as exc:  # pragma: no cover - defensive path
            _degrade(telemetry, "scipy", "simplex", f"runtime failure: {exc}")
            res = None
        if res is not None and res.status is not SolverStatus.ERROR:
            return done(res)
        if res is not None:
            _degrade(telemetry, "scipy", "simplex", "backend returned ERROR status")
        backend = "simplex"

    return done(_dispatch(problem, backend, bb_options, deadline, telemetry, backend_kwargs))


def solve(model: Model, backend: str = "auto", **kwargs) -> SolverResult:
    """Compile and solve a :class:`Model`.

    Returns a :class:`SolverResult`; read variable values back with
    ``result.value_of(var)``.  Accepts ``listener=`` (telemetry events),
    ``deadline=``/``time_limit=`` (wall-clock budget) and forwards any
    other keyword to :func:`solve_compiled`.
    """
    return solve_compiled(model.compile(), backend=backend, **kwargs)
