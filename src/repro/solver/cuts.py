"""Gomory mixed-integer (GMI) cutting planes.

Generates valid inequalities from fractional rows of the optimal simplex
tableau of the LP relaxation and maps them back into original-variable space
so they can be appended to a :class:`~repro.solver.model.CompiledProblem` as
ordinary ``<=`` rows.  Used as an optional root-node strengthening step by
:func:`repro.solver.branch_bound.branch_and_bound` and exercised directly by
the solver ablation benchmark.

The GMI cut for a tableau row ``x_B(i) + sum_j a_ij x_j = b_i`` with basic
integer variable at fractional value (``f0 = frac(b_i)``) is::

    sum_{j integer}    g(f_j) x_j  +  sum_{j continuous} h(a_ij) x_j  >=  f0

with ``f_j = frac(a_ij)``, ``g(f) = f`` if ``f <= f0`` else
``f0 (1-f) / (1-f0)``, and ``h(a) = a`` if ``a >= 0`` else
``f0 a / (f0 - 1)``.

Cuts read the optimal tableau through the solver result's ``extra
["tableau"]`` object, a :class:`~repro.solver.revised.RevisedTableau`
that materializes the dense rows lazily on first access, so the cost is
only paid when cutting is on.

Because the simplex works in shifted/slacked standard form, every
standard-form column is an affine function of the original variables; the
cut is translated through those affine maps.  Problems containing free
(split) variables are left untouched — the affine map does not exist for a
split pair — which is fine here: every DRRP/SRRP variable is nonnegative.
"""

from __future__ import annotations

import math
from dataclasses import replace as dc_replace

import numpy as np

from .model import CompiledProblem
from .revised import RevisedTableau
from .simplex import StandardForm, solve_lp_simplex
from .result import SolverStatus
from .telemetry import Deadline, Telemetry

__all__ = ["generate_gmi_cuts", "strengthen_with_gomory_cuts"]

_FRACTION_TOL = 1e-6


def _frac(v: np.ndarray | float):
    return v - np.floor(v)


def _column_affine_maps(problem: CompiledProblem, sf: StandardForm) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Affine map ``x_std[q] = W[q] @ x + d[q]`` for every standard column.

    Returns ``(W, d, is_int)`` where ``is_int[q]`` marks columns that are
    integral for every feasible integer point, or ``None`` when a free
    variable was split (no affine map exists).
    """
    n = problem.num_vars
    if np.any(sf.neg >= 0):
        return None

    m_ub = problem.A_ub.shape[0]
    n_total = sf.A.shape[1]
    W = np.zeros((n_total, n))
    d = np.zeros(n_total)
    is_int = np.zeros(n_total, dtype=bool)
    int_mask = problem.integrality.astype(bool)

    def is_integer_scalar(v: float) -> bool:
        return math.isfinite(v) and abs(v - round(v)) < 1e-9

    # structural columns: x_std = sign_j * (x_j - shift_j), where shift is
    # lb (sign +1) or ub (mirrored, sign -1)
    for j in range(n):
        q = sf.pos[j]
        W[q, j] = sf.sign[j]
        d[q] = -sf.sign[j] * sf.shift[j]
        is_int[q] = bool(int_mask[j]) and is_integer_scalar(sf.shift[j])

    # inequality slacks: s_i = b_ub[i] - A_ub[i] @ x
    for i in range(m_ub):
        q = sf.n_structural + i
        W[q] = -problem.A_ub[i]
        d[q] = problem.b_ub[i]
        row = problem.A_ub[i]
        nz = np.nonzero(row)[0]
        is_int[q] = (
            is_integer_scalar(problem.b_ub[i])
            and all(is_integer_scalar(row[j]) and int_mask[j] for j in nz)
        )

    return W, d, is_int


def generate_gmi_cuts(
    problem: CompiledProblem,
    tableau: RevisedTableau,
    sf: StandardForm,
    max_cuts: int = 10,
) -> list[tuple[np.ndarray, float]]:
    """Derive up to ``max_cuts`` GMI cuts as ``(row, rhs)`` meaning ``row @ x <= rhs``.

    Rows are selected by decreasing fractionality of the basic value, the
    standard measure of expected cut strength.
    """
    maps = _column_affine_maps(problem, sf)
    if maps is None:
        return []
    W, d, col_is_int = maps

    T, basis = tableau.T, tableau.basis
    m = T.shape[0] - 1
    int_mask = problem.integrality.astype(bool)

    # Nonbasic columns at their upper bound are complemented (z = u - x_std)
    # so every nonbasic variable in the GMI derivation is zero at the vertex:
    # the tableau coefficient negates, the affine map reflects through u, and
    # integrality additionally requires an integral bound.
    at_upper = (
        tableau.at_upper[: tableau.n]
        if tableau.at_upper is not None
        else np.zeros(tableau.n, dtype=bool)
    )
    if at_upper.any():
        W = W.copy()
        d = d.copy()
        col_is_int = col_is_int.copy()
        u_std = sf.u[: tableau.n]
        up = np.nonzero(at_upper)[0]
        W[up] = -W[up]
        d[up] = u_std[up] - d[up]
        col_is_int[up] &= np.abs(u_std[up] - np.round(u_std[up])) < 1e-9

    # Which basic rows correspond to integral standard columns at fractional value?
    rows = []
    for i in range(m):
        q = basis[i]
        if q >= W.shape[0] or not col_is_int[q]:
            continue
        # The basic column must map to an integer-constrained original var or
        # integral slack; fractional basic value then yields a cut.
        f0 = _frac(T[i, -1])
        if _FRACTION_TOL < f0 < 1 - _FRACTION_TOL:
            rows.append((abs(f0 - 0.5), i, f0))
    rows.sort()

    cuts: list[tuple[np.ndarray, float]] = []
    nonbasic = np.ones(tableau.n, dtype=bool)
    nonbasic[basis] = False
    for _, i, f0 in rows[:max_cuts]:
        coeffs = np.zeros(tableau.n)
        arow = np.where(at_upper, -T[i, :-1], T[i, :-1])
        for q in np.nonzero(nonbasic & (np.abs(arow) > 1e-12))[0]:
            a = arow[q]
            if col_is_int[q]:
                f = _frac(a)
                coeffs[q] = f if f <= f0 + 1e-12 else f0 * (1.0 - f) / (1.0 - f0)
            else:
                coeffs[q] = a if a >= 0 else f0 * a / (f0 - 1.0)
        # Cut in standard space: coeffs @ x_std >= f0.  Map to original space.
        w = coeffs @ W           # length n
        const = float(coeffs @ d)
        # coeffs@x_std = w@x + const >= f0  ->  -w@x <= const - f0
        cuts.append((-w, const - f0))
    return cuts


def strengthen_with_gomory_cuts(
    problem: CompiledProblem,
    max_rounds: int = 5,
    cuts_per_round: int = 10,
    deadline: Deadline | None = None,
    telemetry: Telemetry | None = None,
) -> CompiledProblem:
    """Iteratively append GMI cuts at the root LP until none apply.

    Returns a new problem with extra ``<=`` rows; the feasible integer set is
    unchanged (cuts are valid), only the LP relaxation tightens.  Falls back
    to returning the input unchanged when the simplex cannot produce a
    tableau (e.g. degenerate terminations).  The shared ``deadline`` is
    polled before every round (and inside each round's LP solve), so cut
    generation never eats the whole solve budget.
    """
    current = problem
    int_mask = problem.integrality.astype(bool)
    if not int_mask.any():
        return problem
    total = 0
    for round_no in range(max_rounds):
        if deadline is not None and deadline.expired():
            if telemetry:
                telemetry.emit("deadline_exceeded", where="gomory_cuts", rounds=round_no)
            break
        res = solve_lp_simplex(current, deadline=deadline, telemetry=telemetry)
        if res.status is not SolverStatus.OPTIMAL:
            break
        frac = np.abs(res.x - np.round(res.x))
        if not np.any(int_mask & (frac > _FRACTION_TOL)):
            break  # LP optimum already integral
        tableau = res.extra.get("tableau")
        sf = res.extra.get("standard_form")
        if tableau is None or sf is None:
            break
        cuts = generate_gmi_cuts(current, tableau, sf, max_cuts=cuts_per_round)
        # Keep only cuts actually violated by the LP point (guards numerics).
        violated = [(w, r) for (w, r) in cuts if float(w @ res.x) > r + 1e-7]
        if telemetry:
            telemetry.emit(
                "cut_round", round=round_no, generated=len(cuts),
                added=len(violated), lp_objective=res.objective,
            )
        if not violated:
            break
        rows = np.array([w for w, _ in violated])
        rhs = np.array([r for _, r in violated])
        current = dc_replace(
            current,
            A_ub=np.vstack([current.A_ub, rows]) if current.A_ub.size else rows,
            b_ub=np.concatenate([current.b_ub, rhs]) if current.b_ub.size else rhs,
        )
        total += len(violated)
    if total:
        current = dc_replace(current)
    return current
