"""Optimization substrate: modeling layer, LP/MILP solvers, decomposition.

Public surface:

* :class:`Model`, :class:`Variable`, :func:`lin_sum` — build linear models.
* :func:`solve` / :func:`solve_compiled` — solve with a chosen backend.
* :class:`SolverResult`, :class:`SolverStatus` — uniform outcomes.
* :func:`branch_and_bound`, :class:`BranchAndBoundOptions` — the MILP engine.
* :class:`Deadline`, :class:`Telemetry`, :class:`EventRecorder` — wall-clock
  budgets and structured solve events (see :mod:`repro.solver.telemetry`).
* :mod:`repro.solver.benders` — L-shaped decomposition for two-stage
  stochastic programs.
"""

from .expr import Constraint, ConstraintSense, LinExpr, Variable, VarType, lin_sum
from .model import (
    CompiledProblem,
    Model,
    ObjectiveSense,
    compile_cache_stats,
    reset_compile_cache,
    reset_compile_cache_stats,
)
from .result import SolverResult, SolverStatus
from .telemetry import Deadline, EventRecorder, SolveEvent, Telemetry
from .interface import BACKENDS, solve, solve_compiled
from .branch_bound import BranchAndBoundOptions, branch_and_bound
from .presolve import PresolveResult, presolve
from .simplex import solve_lp_simplex
from .scipy_backend import scipy_available, solve_lp_scipy, solve_milp_scipy
from .cuts import generate_gmi_cuts, strengthen_with_gomory_cuts
from .sensitivity import SensitivityReport, lp_sensitivity

__all__ = [
    "Constraint",
    "ConstraintSense",
    "LinExpr",
    "Variable",
    "VarType",
    "lin_sum",
    "CompiledProblem",
    "Model",
    "ObjectiveSense",
    "compile_cache_stats",
    "reset_compile_cache",
    "reset_compile_cache_stats",
    "SolverResult",
    "SolverStatus",
    "Deadline",
    "EventRecorder",
    "SolveEvent",
    "Telemetry",
    "BACKENDS",
    "scipy_available",
    "solve",
    "solve_compiled",
    "BranchAndBoundOptions",
    "branch_and_bound",
    "PresolveResult",
    "presolve",
    "solve_lp_simplex",
    "solve_lp_scipy",
    "solve_milp_scipy",
    "generate_gmi_cuts",
    "strengthen_with_gomory_cuts",
    "SensitivityReport",
    "lp_sensitivity",
]
