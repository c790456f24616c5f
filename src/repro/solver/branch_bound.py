"""Branch-and-bound MILP solver over pluggable LP relaxation backends.

The paper notes that DRRP "can be solved using the branch-and-bound (B&B)
method in most optimization software packages"; this module is that method,
built from scratch:

* best-first search on the LP relaxation bound (a heap of open nodes);
* branching on the most-fractional integer variable (ties broken by largest
  objective coefficient, which empirically tightens lot-sizing instances
  quickly because the setup binaries carry the fixed rental cost);
* a rounding heuristic at every node to find incumbents early;
* optional Gomory fractional cuts at the root (see :mod:`repro.solver.cuts`);
* relative-gap, node-count and wall-clock termination criteria;
* LP warm starts: each open node carries its parent's optimal basis (a
  :class:`~repro.solver.simplex.SimplexBasis` — three small index arrays,
  not a tableau), and child relaxations restart simplex phase 2 from it,
  repairing primal feasibility with the bounded dual simplex when the
  branching bound cut the parent vertex off.  Every LP solve emits an
  ``lp_warm`` or ``lp_cold`` telemetry event so the obs layer can report
  the warm-hit rate.  The bases also carry the parent's basis-inverse
  hint (see :mod:`repro.solver.revised`), so a child re-solve skips the
  factorization entirely, and a child cut off by its branching bound is
  proven infeasible by the dual repair itself (an ``lp_warm`` with
  ``mode="dual"``) rather than by a cold two-phase solve.

Node relaxations are built directly on the arrays of the working problem
(only the bounds differ, one shared zero integrality mask), so the simplex
recognizes its parent's standard-form layout and re-runs only the bound
step.  Nodes store bound vectors plus the parent basis (small index arrays
sharing the layout's), so memory stays linear in the number of open nodes.
"""

from __future__ import annotations

import heapq
import inspect
import itertools
import math
import time
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .model import CompiledProblem
from .result import SolverResult, SolverStatus
from .telemetry import Deadline, Telemetry

__all__ = ["BranchAndBoundOptions", "branch_and_bound"]

_INT_TOL = 1e-6


@dataclass
class BranchAndBoundOptions:
    """Tuning knobs for :func:`branch_and_bound`.

    Attributes
    ----------
    rel_gap:
        Stop when ``(incumbent - bound)/max(1, |incumbent|)`` falls below.
    node_limit:
        Hard work limit; the best incumbent (if any) is returned with
        status ``FEASIBLE``.  The wall-clock limit is the ``deadline``
        argument of :func:`branch_and_bound`.
    use_root_cuts:
        Add Gomory fractional cuts at the root node (requires the pure
        simplex backend, which exposes its final tableau).
    warm_start_lps:
        Re-solve child LP relaxations from the parent node's optimal basis
        when the LP backend supports it (``lp_solver`` accepts a
        ``warm_start`` keyword, as :func:`repro.solver.simplex.solve_lp_simplex`
        does).  Disable to force every node through a cold two-phase solve
        — the benchmark baseline uses this to measure the warm-start win.
    initial_incumbent:
        A known-feasible solution vector used to prune from the first node
        (warm start) — e.g. the Wagner-Whitin plan for a DRRP instance.
        A wrong-shaped vector raises :class:`ValueError`; a vector that
        fails the feasibility check is dropped with a warning and a
        ``warm_start_rejected`` telemetry event (never silently).
    """

    rel_gap: float = 1e-7
    node_limit: int = 200_000
    use_root_cuts: bool = False
    warm_start_lps: bool = True
    initial_incumbent: np.ndarray | None = None


def _fractional_candidates(x: np.ndarray, int_mask: np.ndarray) -> np.ndarray:
    """Indices of integer variables whose LP value is fractional."""
    frac = np.abs(x - np.round(x))
    return np.nonzero(int_mask & (frac > _INT_TOL))[0]


def _select_branch_var(x: np.ndarray, candidates: np.ndarray, c: np.ndarray) -> int:
    """Most-fractional branching with objective-coefficient tie-break."""
    frac = np.abs(x[candidates] - np.round(x[candidates]))
    dist = np.abs(frac - 0.5)
    best = dist.min()
    ties = candidates[dist <= best + 1e-12]
    return int(ties[np.argmax(np.abs(c[ties]))])


def _try_rounding(problem: CompiledProblem, x: np.ndarray, int_mask: np.ndarray) -> np.ndarray | None:
    """Round integer variables and re-check feasibility (cheap incumbent probe)."""
    x_round = x.copy()
    x_round[int_mask] = np.round(x_round[int_mask])
    np.clip(x_round, problem.lb, problem.ub, out=x_round)
    if problem.is_feasible(x_round, tol=1e-6):
        return x_round
    return None


def branch_and_bound(
    problem: CompiledProblem,
    lp_solver: Callable[[CompiledProblem], SolverResult],
    options: BranchAndBoundOptions | None = None,
    deadline: Deadline | None = None,
    telemetry: Telemetry | None = None,
) -> SolverResult:
    """Solve a compiled MILP by LP-based branch and bound.

    Parameters
    ----------
    problem:
        Compiled model (its ``integrality`` mask drives branching; if the
        mask is empty this reduces to a single LP solve).
    lp_solver:
        Function solving the LP relaxation of a compiled problem, e.g.
        :func:`repro.solver.scipy_backend.solve_lp_scipy` or
        :func:`repro.solver.simplex.solve_lp_simplex`.
    deadline:
        Shared wall-clock budget.  Checked at the top of the node loop
        *and between child LP solves*, so two slow child relaxations can
        overrun the budget by at most one LP solve, not a whole node.
    telemetry:
        Optional event hub receiving node open/close/prune, incumbent,
        and deadline events.
    """
    opts = options or BranchAndBoundOptions()
    int_mask = problem.integrality.astype(bool)

    dl = Deadline.never() if deadline is None else deadline

    work = problem
    if opts.use_root_cuts:
        from .cuts import strengthen_with_gomory_cuts

        work = strengthen_with_gomory_cuts(work, deadline=dl, telemetry=telemetry)

    # Relaxation template: integrality cleared, bounds replaced per node.
    counter = itertools.count()  # heap tie-breaker
    incumbent_x: np.ndarray | None = None
    incumbent_obj = math.inf
    best_bound = -math.inf  # tightened to the root relaxation below
    total_lp_iters = 0
    nodes_explored = 0
    nodes_pruned = 0
    lp_warm_hits = 0
    lp_cold_solves = 0
    # A child LP that ended without an answer (ERROR, ITERATION_LIMIT):
    # its subtree is unexplored, so its parent's bound stays in the global
    # bound and the run cannot finish OPTIMAL unless the incumbent reaches it.
    unsolved_status: SolverStatus | None = None
    unsolved_bound = math.inf

    try:
        supports_warm = "warm_start" in inspect.signature(lp_solver).parameters
    except (TypeError, ValueError):  # builtins / C callables
        supports_warm = False
    use_warm = opts.warm_start_lps and supports_warm

    # Node relaxations share every array of ``work`` but the bounds, so the
    # LP backend sees the same constraint-data objects at every node (the
    # simplex reuses its standard-form layout on that identity).
    relaxed = np.zeros_like(work.integrality)

    def lp_at(lb: np.ndarray, ub: np.ndarray, warm=None) -> SolverResult:
        nonlocal total_lp_iters, lp_warm_hits, lp_cold_solves
        node_problem = CompiledProblem(
            c=work.c, c0=work.c0, A_ub=work.A_ub, b_ub=work.b_ub,
            A_eq=work.A_eq, b_eq=work.b_eq, lb=lb, ub=ub,
            integrality=relaxed, maximize=work.maximize, variables=work.variables,
        )
        lp_t0 = time.perf_counter() if telemetry else 0.0
        if use_warm:
            res = lp_solver(node_problem, warm_start=warm)
        else:
            res = lp_solver(node_problem)
        total_lp_iters += res.iterations
        extra = res.extra if isinstance(res.extra, dict) else {}
        if res.status is SolverStatus.ERROR and telemetry and "reason" in extra:
            # The node LP solver runs without the hub (it would double
            # every lp_warm/lp_cold), so its typed failure is relayed here.
            telemetry.emit(
                "numerical_trouble", where="simplex", node=nodes_explored,
                reason=extra["reason"],
            )
        winfo = extra.get("warm")
        warm_used = bool(winfo and winfo.get("used"))
        if warm_used:
            lp_warm_hits += 1
        else:
            lp_cold_solves += 1
        if telemetry:
            lp_elapsed = time.perf_counter() - lp_t0
            if warm_used:
                telemetry.emit(
                    "lp_warm", node=nodes_explored, pivots=res.iterations,
                    mode=winfo.get("mode"), duration=lp_elapsed,
                )
            else:
                reason = (
                    winfo.get("reason", "?") if winfo
                    else ("no_warm_start" if warm is None else "backend")
                )
                telemetry.emit(
                    "lp_cold", node=nodes_explored, pivots=res.iterations,
                    reason=reason, duration=lp_elapsed,
                )
        return res

    def set_incumbent(obj: float, x: np.ndarray, source: str) -> None:
        nonlocal incumbent_obj, incumbent_x
        incumbent_obj, incumbent_x = obj, x
        if telemetry:
            # Relative gap against the global dual bound, so listeners can
            # chart incumbent-gap-over-time without re-deriving B&B state.
            gap = (
                (incumbent_obj - best_bound) / max(1.0, abs(incumbent_obj))
                if math.isfinite(best_bound)
                else math.inf
            )
            telemetry.emit(
                "incumbent",
                objective=problem.objective_value(x[: problem.num_vars]),
                source=source,
                node=nodes_explored,
                bound=best_bound,
                gap=gap,
            )

    if opts.initial_incumbent is not None:
        x0 = np.asarray(opts.initial_incumbent, dtype=float)
        if x0.shape != (work.num_vars,):
            raise ValueError(
                f"initial_incumbent has shape {x0.shape}, expected "
                f"({work.num_vars},); warm starts must be given in the "
                "variable order of the (presolved) compiled problem"
            )
        # Clip into the working bounds first: presolve tightens bounds
        # (integer rounding, singleton rows), and a warm start that was
        # feasible for the original model can land a hair outside them.
        # Feasibility is then checked against `problem` — before Gomory
        # cuts — so valid incumbents are never lost to cut-row noise.
        x0 = np.clip(x0, work.lb, work.ub)
        if problem.is_feasible(x0, tol=1e-6):
            set_incumbent(float(work.c @ x0) + work.c0, x0.copy(), "warm_start")
        else:
            warnings.warn(
                "branch_and_bound: initial_incumbent failed the feasibility "
                "check and is ignored",
                stacklevel=2,
            )
            if telemetry:
                telemetry.emit("warm_start_rejected", reason="infeasible")

    root = lp_at(work.lb.copy(), work.ub.copy())
    if root.status is SolverStatus.INFEASIBLE:
        return SolverResult(status=SolverStatus.INFEASIBLE, nodes=1, iterations=total_lp_iters)
    if root.status is SolverStatus.UNBOUNDED:
        return SolverResult(status=SolverStatus.UNBOUNDED, nodes=1, iterations=total_lp_iters)
    if not root.status.has_solution:
        if root.status is SolverStatus.TIME_LIMIT and incumbent_x is not None:
            # Deadline tripped inside the root LP but the warm start stands.
            root_fail = SolverStatus.FEASIBLE
            x_out = incumbent_x[: problem.num_vars]
            return SolverResult(
                status=root_fail, x=x_out, objective=problem.objective_value(x_out),
                nodes=1, iterations=total_lp_iters,
            )
        reason = root.extra.get("reason") if isinstance(root.extra, dict) else None
        return SolverResult(
            status=root.status, nodes=1, iterations=total_lp_iters,
            extra={} if reason is None else {"reason": reason},
        )

    # Minimization internally: CompiledProblem.objective_value undoes max flips,
    # so compare on the internal (minimize) scale c@x + c0.
    def internal_obj(x: np.ndarray) -> float:
        return float(work.c @ x) + work.c0

    # Heap entries: (bound, tie-break id, lb, ub, x_lp, parent_basis).  The
    # basis rides along so each child LP can restart phase 2 from the vertex
    # its parent ended on instead of re-running phase 1 from scratch.
    root_basis = root.extra.get("basis") if isinstance(root.extra, dict) else None
    heap: list[tuple] = []
    heapq.heappush(
        heap,
        (internal_obj(root.x), next(counter), work.lb.copy(), work.ub.copy(), root.x, root_basis),
    )
    if telemetry:
        telemetry.emit("node_open", node=0, bound=internal_obj(root.x), depth=0)

    best_bound = internal_obj(root.x)

    def lp_stats() -> dict:
        return {"lp_warm": lp_warm_hits, "lp_cold": lp_cold_solves}

    def finish(status: SolverStatus) -> SolverResult:
        if incumbent_x is not None:
            x_out = incumbent_x[: problem.num_vars]
            obj = problem.objective_value(x_out)
            bound_internal = min(best_bound, incumbent_obj, unsolved_bound)
            bound = -bound_internal if problem.maximize else bound_internal
            return SolverResult(
                status=status, x=x_out, objective=obj, bound=bound,
                nodes=nodes_explored, iterations=total_lp_iters, extra=lp_stats(),
            )
        return SolverResult(
            status=status, nodes=nodes_explored, iterations=total_lp_iters, extra=lp_stats()
        )

    def out_of_time() -> SolverResult:
        if telemetry:
            telemetry.emit(
                "deadline_exceeded", where="branch_and_bound",
                nodes=nodes_explored, open_nodes=len(heap),
            )
        return finish(SolverStatus.FEASIBLE if incumbent_x is not None else SolverStatus.TIME_LIMIT)

    while heap:
        if dl.expired():
            return out_of_time()
        if nodes_explored >= opts.node_limit:
            return finish(SolverStatus.FEASIBLE if incumbent_x is not None else SolverStatus.NODE_LIMIT)

        bound, node_id, lb, ub, x_lp, node_basis = heapq.heappop(heap)
        best_bound = bound
        if bound >= incumbent_obj - opts.rel_gap * max(1.0, abs(incumbent_obj)):
            # Heap is bound-ordered: everything left is dominated.
            if telemetry:
                telemetry.emit(
                    "node_prune", node=node_id, bound=bound,
                    incumbent=incumbent_obj, remaining=len(heap),
                )
            nodes_pruned += 1 + len(heap)
            best_bound = incumbent_obj
            break
        nodes_explored += 1
        if telemetry:
            telemetry.emit("node_close", node=node_id, bound=bound, explored=nodes_explored)

        candidates = _fractional_candidates(x_lp, int_mask)
        if candidates.size == 0:
            if bound < incumbent_obj:
                set_incumbent(bound, x_lp, "lp_integral")
            continue

        rounded = _try_rounding(work, x_lp, int_mask)
        if rounded is not None:
            obj_r = internal_obj(rounded)
            if obj_r < incumbent_obj:
                set_incumbent(obj_r, rounded, "rounding")

        j = _select_branch_var(x_lp, candidates, work.c)
        floor_val = math.floor(x_lp[j] + _INT_TOL)

        for lo, hi in (
            (lb[j], float(floor_val)),       # down child: x_j <= floor
            (float(floor_val) + 1.0, ub[j]),  # up child:   x_j >= floor+1
        ):
            # A node spawns two LP solves; re-check the budget between them
            # so one slow child cannot drag the other past the deadline.
            if dl.expired():
                return out_of_time()
            if lo > hi:
                continue
            lb2, ub2 = lb.copy(), ub.copy()
            lb2[j], ub2[j] = lo, hi
            res = lp_at(lb2, ub2, warm=node_basis)
            if not res.status.has_solution:
                if res.status is SolverStatus.TIME_LIMIT:
                    return out_of_time()
                if res.status is not SolverStatus.INFEASIBLE:
                    unsolved_status = unsolved_status or res.status
                    unsolved_bound = min(unsolved_bound, bound)
                continue
            child_bound = internal_obj(res.x)
            if child_bound < incumbent_obj - 1e-12:
                child_id = next(counter)
                child_basis = res.extra.get("basis") if isinstance(res.extra, dict) else None
                heapq.heappush(heap, (child_bound, child_id, lb2, ub2, res.x, child_basis))
                if telemetry:
                    telemetry.emit("node_open", node=child_id, bound=child_bound, branch_var=j)
            else:
                nodes_pruned += 1
                if telemetry:
                    telemetry.emit("node_prune", node=-1, bound=child_bound, incumbent=incumbent_obj)

    if incumbent_x is not None:
        closed = unsolved_bound >= incumbent_obj - opts.rel_gap * max(1.0, abs(incumbent_obj))
        return finish(SolverStatus.OPTIMAL if closed else SolverStatus.FEASIBLE)
    return SolverResult(
        status=unsolved_status or SolverStatus.INFEASIBLE, nodes=nodes_explored,
        iterations=total_lp_iters, extra=lp_stats(),
    )
