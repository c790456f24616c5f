"""Revised simplex engine: factored basis, Devex pricing, blocked kernels.

This is the LP engine behind :func:`repro.solver.simplex.solve_lp_simplex`.
Instead of carrying the full ``(m+1, n+1)`` tableau and doing an O(m*n)
rank-1 elimination per pivot, the engine keeps

* the constraint matrix ``A`` untouched (read-only, shared across phases),
* an LU-factored basis inverse (:class:`BasisFactor`) updated per pivot by a
  product-form eta transform collapsed into one rank-1 blocked numpy kernel
  (O(m^2) per pivot, pure BLAS),
* the basic values ``x_B`` and reduced costs ``red`` as maintained vectors,
  updated incrementally with one BTRAN row and one O(n) GEMV per pivot.

Per-pivot cost is O(m^2 + n) vector updates rather than O(m*n)
*tableau-wide* elimination, and warm re-solves never materialize the dense
``solve(B, A)`` body.  ``repro bench solver`` times a warm re-solve chain
on a 768-var tier against HiGHS solving the same LPs.

Refactorization policy
----------------------

The factored inverse drifts as eta updates accumulate.  Three triggers force
a fresh LU factorization (LAPACK ``getrf``/``getri`` via ``np.linalg.inv``):

* an update-count cap (default 48 collapsed etas),
* a periodic residual stability check every 32 iterations
  (``||B x_B - b_eff||_inf > 1e-6 * (1 + ||b_eff||_inf)``),
* a tiny pivot element on a stale factor (the iteration is retried on exact
  data rather than pivoting on noise).

Optimality is only ever declared on a *fresh* factorization: when pricing
finds no violation on drifted vectors, the engine refactorizes, recomputes
``x_B``/``red`` exactly, and re-prices.  This is what keeps the exported
dual/Farkas certificates exact enough for :mod:`repro.verify`, and what
makes a re-solve from a solve's own basis report 0 iterations.

Pricing
-------

Devex pricing with a reference-framework weight per column (Forrest &
Goldfarb's approximate steepest edge): the entering column maximizes
``violation^2 / w`` where ``w`` approximates the squared norm of the column
in the current basis frame.  Weights update as a byproduct of the pivot row
already computed for the reduced-cost update, so Devex costs one extra O(n)
vector op per pivot.  The framework resets when weights overflow their
trust range.  Anti-cycling: after ``2m + 10`` consecutive degenerate
steps the engine switches to Bland's rule (smallest eligible index,
smallest basis-index ratio tie-break) until progress resumes.

Bounded variables are native: a nonbasic column sits at its lower or upper
bound (at-upper statuses), and the three-way ratio test lets a basic
variable leave at zero, leave at its upper bound, or the entering column
flip to its opposite bound with no basis change.

Warm re-solves
--------------

:func:`warm_solve_revised` restarts phase 2 from a parent basis.  When the
bounded dual repair meets a violated row with no eligible entering column,
that row of ``B^-1`` is a Farkas ray (:meth:`_Core.farkas_ray`); once it
passes a float check, the child is reported infeasible with the ray as its
certificate, in the same convention as the cold phase-1 rays.  This is
how a branch-and-bound child cut off by its branching bound is proven
empty in one warm pass instead of a cold two-phase solve.  Only a ray that
fails the check falls back cold.
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np

from .telemetry import Deadline, Telemetry

__all__ = [
    "BasisFactor",
    "RevisedTableau",
    "NumericalTrouble",
    "revised_solve",
    "warm_solve_revised",
]

_EPS = 1e-9
#: Primal feasibility tolerance.
_FEAS_TOL = 1e-7
#: Relative residual that triggers an out-of-schedule refactorization.
_RESID_TOL = 1e-6
#: Collapsed eta updates absorbed before a scheduled refactorization.
_MAX_UPDATES = 48
#: Iteration period of the residual stability check.
_CHECK_EVERY = 32
#: Devex weight ceiling before the reference framework resets.
_DEVEX_RESET = 1e7
#: Relative pivot magnitude below which a stale factor refuses to pivot.
_PIVOT_TOL = 1e-7


class NumericalTrouble(RuntimeError):
    """The factored path lost the basis (singular refactorization mid-solve).

    Cold solves catch this in :func:`repro.solver.simplex.solve_lp_simplex`,
    which returns ``SolverStatus.ERROR`` and emits a ``numerical_trouble``
    event; warm solves return ``None`` (fall back cold) instead.
    """


class BasisFactor:
    """LU-factored basis inverse with collapsed product-form eta updates.

    :meth:`refactor` runs a dense LU factorization of the current basis
    matrix (LAPACK ``getrf``/``getri`` via ``np.linalg.inv``).  Each pivot
    then applies one eta transform ``E_k^-1 = I + (e_r - d/d_r) e_r'`` to
    the stored inverse as a rank-1 blocked numpy kernel — O(m^2) with no
    Python-level loops — rather than keeping an eta file that would cost a
    Python-loop pass per FTRAN/BTRAN.  FTRAN/BTRAN are then single GEMVs
    against the maintained inverse, and ``BTRAN(e_r)`` is a free row read.
    """

    __slots__ = ("A", "m", "updates", "refactorizations", "_inv")

    def __init__(self, A: np.ndarray) -> None:
        self.A = A
        self.m = A.shape[0]
        self.updates = 0
        self.refactorizations = 0
        self._inv: np.ndarray | None = None

    def refactor(self, basis: np.ndarray) -> bool:
        """Factorize ``A[:, basis]`` from scratch; ``False`` if singular."""
        try:
            inv = np.linalg.inv(self.A[:, basis])
        except np.linalg.LinAlgError:
            return False
        if not np.isfinite(inv).all():
            return False
        self._inv = np.ascontiguousarray(inv)
        self.updates = 0
        self.refactorizations += 1
        return True

    def adopt(self, inv: np.ndarray) -> None:
        """Install a previously computed inverse of the current basis.

        Used by warm re-solves whose parent exported its final factor: the
        basis matrix is unchanged by bound modifications, so the LU can be
        skipped entirely.  The array is copied because eta updates mutate
        the inverse in place and the hint is shared across sibling solves.
        Callers must validate the hint (residual check) before trusting it.
        """
        self._inv = inv.copy()
        self.updates = 0
        self.refactorizations += 1

    def ftran(self, col: np.ndarray) -> np.ndarray:
        """``B^-1 col`` (forward transformation) as one GEMV."""
        return self._inv @ col

    def btran(self, vec: np.ndarray) -> np.ndarray:
        """``B^-T vec`` (backward transformation) as one GEMV."""
        return self._inv.T @ vec

    def row(self, r: int) -> np.ndarray:
        """``BTRAN(e_r)`` — row ``r`` of the maintained inverse, read-only."""
        return self._inv[r]

    def update(self, r: int, d: np.ndarray) -> None:
        """Absorb the eta transform of a pivot into the inverse.

        ``d = B^-1 a_q`` is the entering spike and ``r`` the pivot row; the
        update is the rank-1 blocked kernel ``inv -= outer(d_masked, t)``
        with ``t = inv[r] / d[r]``.
        """
        inv = self._inv
        t = inv[r] / d[r]
        spike = d.copy()
        spike[r] = 0.0
        inv -= np.outer(spike, t)
        inv[r] = t
        self.updates += 1

    @property
    def stale(self) -> bool:
        return self.updates >= _MAX_UPDATES


class RevisedTableau:
    """Final simplex state of :func:`~repro.solver.simplex.solve_lp_simplex`.

    Carries the final revised-simplex state (basis, at-upper flags, kept
    rows, basic values, reduced costs, Farkas vector).  The dense tableau
    body ``T`` — the O(m^2 n) product ``B^-1 [A | b]`` that the Gomory cut
    generator reads fractional rows from — is materialized lazily on first
    access and cached, so plain LP solves and warm B&B re-solves never pay
    for it.
    """

    def __init__(
        self,
        A: np.ndarray,
        basis: np.ndarray,
        rows: np.ndarray | None = None,
        at_upper: np.ndarray | None = None,
        u: np.ndarray | None = None,
        x_B: np.ndarray | None = None,
        red: np.ndarray | None = None,
        obj: float | None = None,
        farkas: np.ndarray | None = None,
        y: np.ndarray | None = None,
        factor_inv: np.ndarray | None = None,
    ) -> None:
        self._A = A
        self.basis = basis
        self.rows = rows
        self.at_upper = at_upper
        self.u = u
        self.x_B = x_B
        self.red = red
        self.obj = obj
        self.farkas = farkas
        #: Row duals ``B^-T c_B`` of the final fresh basis (kept rows only);
        #: lets the dual-certificate export skip a LAPACK solve.
        self.y = y
        #: Final basis inverse — exported as a warm-start factor hint so
        #: child re-solves can skip their LU refactorization.
        self.factor_inv = factor_inv
        self._T: np.ndarray | None = None

    @property
    def m(self) -> int:
        return self._A.shape[0]

    @property
    def n(self) -> int:
        return self._A.shape[1]

    def solution(self) -> np.ndarray:
        x = np.zeros(self.n)
        if self.at_upper is not None and self.at_upper.any():
            up = self.at_upper[: self.n] & np.isfinite(self.u[: self.n])
            x[up] = self.u[: self.n][up]
        x[self.basis] = self.x_B
        return x

    @property
    def T(self) -> np.ndarray:
        """Dense tableau body, computed on demand (Gomory cuts only)."""
        if self._T is None:
            m, n = self._A.shape
            T = np.zeros((m + 1, n + 1))
            if m:
                T[:-1, :n] = np.linalg.solve(self._A[:, self.basis], self._A)
                T[:-1, -1] = self.x_B
            if self.red is not None:
                T[-1, :n] = self.red[:n]
            if self.obj is not None:
                T[-1, -1] = -self.obj
            self._T = T
        return self._T


class _Core:
    """Bounded-variable revised simplex state over the kept rows.

    Pivots on the maintained ``(x_B, red, basis, at_upper)`` vectors: a
    bound-aware violation for pricing, the three-way ratio test, bound
    flips applied before the pivot, and the Devex-to-Bland stall switch.
    ``breakdown``
    (telemetry-enabled call sites only) accumulates wall seconds under
    ``"pricing"``, ``"ratio_test"``, ``"basis_update"`` and
    ``"refactorization"``; ``None`` keeps the hot loop timer-free.
    """

    def __init__(
        self,
        A: np.ndarray,
        b: np.ndarray,
        c: np.ndarray,
        u: np.ndarray,
        basis: np.ndarray,
        at_upper: np.ndarray,
        deadline: Deadline | None = None,
        breakdown: dict | None = None,
    ) -> None:
        self.A = np.ascontiguousarray(A)
        self.b = b
        self.c = c
        self.u = u
        self.m, self.ncols = self.A.shape
        self.basis = basis
        self.at_upper = at_upper
        self.in_basis = np.zeros(self.ncols, dtype=bool)
        self.in_basis[basis] = True
        self.deadline = deadline
        self.breakdown = breakdown
        self.factor = BasisFactor(self.A)
        self.x_B = np.zeros(self.m)
        self.red = np.zeros(self.ncols)
        self.y: np.ndarray | None = None
        self.w = np.ones(self.ncols)  # Devex reference weights
        #: Farkas ray over the kept rows, set when :meth:`dual` proves the
        #: bounded system empty (see :meth:`farkas_ray`).
        self.farkas: np.ndarray | None = None
        # True when x_B/red were just recomputed from a fresh factorization;
        # optimality is only declared while this holds.
        self.fresh = False

    @property
    def track(self) -> bool:
        return self.breakdown is not None

    def _acc(self, key: str, t0: float) -> float:
        now = perf_counter()
        bd = self.breakdown
        bd[key] = bd.get(key, 0.0) + now - t0
        return now

    # -- state maintenance -------------------------------------------------

    def b_eff(self) -> np.ndarray:
        """RHS seen by the basis: ``b`` minus at-upper nonbasic columns."""
        up = self.at_upper
        if up.any():
            return self.b - self.A[:, up] @ self.u[up]
        return self.b.copy()

    def recompute_red(self) -> None:
        y = self.factor.btran(self.c[self.basis])
        self.red = self.c - y @ self.A
        self.red[self.basis] = 0.0
        self.y = y  # row duals of the current (fresh) basis

    def refresh(self, recompute_red: bool = True, hint: np.ndarray | None = None) -> bool:
        """Refactorize and rebuild ``x_B`` (and optionally ``red``) exactly.

        ``hint`` is an optional precomputed inverse of the current basis
        matrix (a parent solve's exported factor).  It is adopted only when
        the rebuilt ``x_B`` passes the residual stability check against the
        actual basis columns — a stale or mismatched hint silently falls
        through to a real LU factorization, never to a wrong basis.
        """
        t0 = perf_counter() if self.track else 0.0
        ok = False
        if hint is not None and hint.shape == (self.m, self.m):
            self.factor.adopt(hint)
            self.x_B = self.factor.ftran(self.b_eff())
            ok = bool(np.isfinite(self.x_B).all()) and self.residual_ok()
        if not ok:
            ok = self.factor.refactor(self.basis)
            if ok:
                self.x_B = self.factor.ftran(self.b_eff())
                ok = bool(np.isfinite(self.x_B).all())
        if ok:
            if recompute_red:
                self.recompute_red()
            self.fresh = True
        if self.track:
            self._acc("refactorization", t0)
        return ok

    def residual_ok(self) -> bool:
        b_eff = self.b_eff()
        resid = self.A[:, self.basis] @ self.x_B - b_eff
        scale = 1.0 + float(np.abs(b_eff).max(initial=0.0))
        return float(np.abs(resid).max(initial=0.0)) <= _RESID_TOL * scale

    def _maintenance(self, it: int) -> None:
        """Scheduled + stability-triggered refactorization after a pivot."""
        if self.factor.stale:
            if not self.refresh():
                raise NumericalTrouble("singular basis on scheduled refactorization")
            return
        if it % _CHECK_EVERY == 0:
            t0 = perf_counter() if self.track else 0.0
            drifted = not self.residual_ok()
            if self.track:
                self._acc("refactorization", t0)
            if drifted and not self.refresh():
                raise NumericalTrouble("singular basis on stability refactorization")

    # -- pivot application -------------------------------------------------

    def flip_to_lower(self, q: int, d: np.ndarray) -> None:
        """Re-express an at-upper nonbasic column at its lower bound."""
        self.x_B += self.u[q] * d
        self.at_upper[q] = False

    def flip_to_upper(self, q: int, d: np.ndarray) -> None:
        """Re-express a nonbasic column at its (finite) upper bound."""
        self.x_B -= self.u[q] * d
        self.at_upper[q] = True

    def apply_pivot(
        self, row: int, q: int, d: np.ndarray, arow: np.ndarray | None = None,
        update_red: bool = True,
    ) -> int:
        """Basis change at ``(row, q)`` with entering spike ``d = B^-1 a_q``.

        Applies the tableau pivot's rank-1 updates to the maintained
        vectors only: O(m) on ``x_B``, one BTRAN row + one O(n)
        GEMV on ``red``, one O(m^2) eta collapse on the factor.  Returns the
        leaving column.
        """
        leave = int(self.basis[row])
        xq = self.x_B[row] / d[row]
        self.x_B -= xq * d
        self.x_B[row] = xq
        if update_red:
            if arow is None:
                arow = self.factor.row(row) @ self.A
            theta = self.red[q] / d[row]
            if theta != 0.0:
                self.red -= theta * arow
            # Devex weight propagation on the normalized pivot row (Forrest-
            # Goldfarb reference framework), a byproduct of ``arow``.
            ref = max(float(self.w[q]), 1.0)
            alpha = arow / d[row]
            np.maximum(self.w, alpha * alpha * ref, out=self.w)
            self.w[leave] = max(ref / (d[row] * d[row]), 1.0)
            if float(self.w.max()) > _DEVEX_RESET:
                self.w[:] = 1.0
        self.basis[row] = q
        self.in_basis[leave] = False
        self.in_basis[q] = True
        self.factor.update(row, d)
        self.fresh = False
        if update_red:
            self.red[self.basis] = 0.0
        return leave

    def solution(self) -> np.ndarray:
        x = np.zeros(self.ncols)
        up = self.at_upper & np.isfinite(self.u)
        x[up] = self.u[up]
        x[self.basis] = self.x_B
        return x

    # -- primal loop -------------------------------------------------------

    def primal(self, max_iter: int) -> tuple[str, int]:
        """Bounded primal simplex to a terminal state.

        Status in ``{"optimal", "unbounded", "limit", "deadline"}``; bound
        flips count as iterations.
        """
        m = self.m
        track = self.track
        stall = 0
        bland = False
        it = 0
        while it < max_iter:
            if self.deadline is not None and self.deadline.expired():
                return "deadline", it
            t0 = perf_counter() if track else 0.0
            # Bound-aware violation: at-lower columns improve when red < 0,
            # at-upper when red > 0; basic columns masked out.
            viol = np.where(self.at_upper, self.red, -self.red)
            viol[self.in_basis] = -np.inf
            if bland:
                cand = np.nonzero(viol > _EPS)[0]
                q = int(cand[0]) if cand.size else -1
            else:
                score = np.where(viol > _EPS, viol * viol / self.w, -np.inf)
                q = int(np.argmax(score))
                if viol[q] <= _EPS:
                    q = -1
            if q < 0:
                if track:
                    _ = self._acc("pricing", t0)
                if self.fresh:
                    return "optimal", it
                # Apparent optimum on drifted vectors: confirm on exact data.
                if not self.refresh():
                    raise NumericalTrouble("singular basis at optimality confirmation")
                continue
            from_upper = bool(self.at_upper[q])
            if track:
                t0 = self._acc("pricing", t0)

            d = self.factor.ftran(self.A[:, q])
            x_B = self.x_B
            ub_basis = self.u[self.basis]
            # Three-way ratio test on the entering step length t >= 0.
            if from_upper:
                dec = d < -_EPS
                inc = d > _EPS
            else:
                dec = d > _EPS
                inc = d < -_EPS
            ratios = np.full(m, np.inf)
            ratios[dec] = np.maximum(x_B[dec], 0.0) / np.abs(d[dec])
            fin_inc = inc & np.isfinite(ub_basis)
            ratios[fin_inc] = (
                np.maximum(ub_basis[fin_inc] - x_B[fin_inc], 0.0) / np.abs(d[fin_inc])
            )
            t_own = self.u[q]
            if m:
                row = int(np.argmin(ratios))
                t_row = float(ratios[row])
            else:
                row, t_row = -1, math.inf
            if not math.isfinite(t_own) and not math.isfinite(t_row):
                if track:
                    self._acc("ratio_test", t0)
                return "unbounded", it
            if t_own <= t_row:
                if track:
                    t0 = self._acc("ratio_test", t0)
                # Bound flip: no basis change, O(m) update of x_B only.
                if from_upper:
                    self.flip_to_lower(q, d)
                else:
                    self.flip_to_upper(q, d)
                if track:
                    self._acc("basis_update", t0)
                if t_own <= _EPS:
                    stall += 1
                    if stall > 2 * m + 10:
                        bland = True
                else:
                    stall = 0
                    bland = False
                it += 1
                continue
            if bland:
                ties = np.nonzero(np.abs(ratios - t_row) <= _EPS * (1 + abs(t_row)))[0]
                row = int(min(ties, key=lambda i: self.basis[i]))
            if not self.fresh and abs(d[row]) < _PIVOT_TOL * (1.0 + float(np.abs(d).max())):
                # Tiny pivot on a stale factor: refactorize and retry the
                # iteration on exact data instead of pivoting on noise.
                if track:
                    self._acc("ratio_test", t0)
                if not self.refresh():
                    raise NumericalTrouble("singular basis on tiny-pivot refactorization")
                continue
            leave_to_upper = (d[row] > 0.0) if from_upper else (d[row] < 0.0)
            degenerate = t_row <= _EPS
            if track:
                t0 = self._acc("ratio_test", t0)
            if from_upper:
                self.flip_to_lower(q, d)
            leave = self.apply_pivot(row, q, d)
            if leave_to_upper:
                # Post-pivot column of the leaving variable, in closed form.
                col_new = -d / d[row]
                col_new[row] = 1.0 / d[row]
                self.flip_to_upper(leave, col_new)
            if track:
                self._acc("basis_update", t0)
            it += 1
            if degenerate:
                stall += 1
                if stall > 2 * m + 10:
                    bland = True
            else:
                stall = 0
                bland = False
            self._maintenance(it)
        return "limit", max_iter

    # -- dual repair loop --------------------------------------------------

    def farkas_ray(self, row: int, over: bool, arow: np.ndarray) -> np.ndarray | None:
        """Row ``row`` of ``B^-1`` as a Farkas ray, or ``None`` if unproven.

        When the dual simplex finds basic row ``row`` out of its bounds
        with no eligible entering column, ``rho = e_row' B^-1`` (whose
        product with ``A`` is ``arow``) certifies that ``A x = b,
        0 <= x <= u`` is empty: every point of the box keeps the basic
        variable on the wrong side.  The ray is ``y = rho`` for a row above
        its upper bound and ``y = -rho`` for a row below zero, oriented as
        the phase-1 rays of :func:`revised_solve` (``y'b`` exceeds the
        maximum of ``y'A x`` over the box).

        The eligibility test skipped coefficients below ``_EPS``, so the
        claim is re-checked here in floats on ``y`` itself: no column
        without a finite upper bound may have a positive coefficient in
        ``y'A`` (it could carry the row anywhere), and ``y'b`` must clear
        the box maximum by ``_FEAS_TOL`` times the magnitude of the terms
        summed.  Basic columns take their exact coefficients (``rho B =
        e_row``) instead of the rounding noise of the product, which the
        exact certificate checker absorbs in its reduced-cost tolerance.
        """
        sgn = 1.0 if over else -1.0
        y = sgn * self.factor.row(row)
        g = sgn * arow
        g[self.in_basis] = 0.0
        g[self.basis[row]] = sgn
        rising = g > 0.0
        if not np.isfinite(self.u[rising]).all():
            return None
        lift = g[rising] * self.u[rising]
        yb = y * self.b
        slack = float(yb.sum()) - float(lift.sum())
        scale = 1.0 + float(np.abs(yb).sum()) + float(lift.sum())
        if slack <= _FEAS_TOL * scale:
            return None
        return y

    def dual(self, max_iter: int) -> tuple[str, int]:
        """Bounded dual simplex: restore primal feasibility (warm repair).

        The most-violated basic leaves and the smallest reduced-cost ratio
        enters (smallest-index tie-break).  Status in ``{"feasible", "infeasible",
        "limit", "deadline"}``; on ``"infeasible"`` :attr:`farkas` holds the
        checked ray, or ``None`` when the check failed.
        """
        m = self.m
        it = 0
        while it < max_iter:
            if self.deadline is not None and self.deadline.expired():
                return "deadline", it
            if m == 0:
                return "feasible", it
            x_B = self.x_B
            ub_basis = self.u[self.basis]
            below = -x_B
            over = np.where(np.isfinite(ub_basis), x_B - ub_basis, -np.inf)
            viol = np.maximum(below, over)
            row = int(np.argmax(viol))
            if viol[row] <= _FEAS_TOL:
                return "feasible", it
            leave_to_upper = over[row] > below[row]
            arow = self.factor.row(row) @ self.A
            nonbasic = ~self.in_basis
            at_up = self.at_upper
            if leave_to_upper:
                elig = nonbasic & ((~at_up & (arow > _EPS)) | (at_up & (arow < -_EPS)))
            else:
                elig = nonbasic & ((~at_up & (arow < -_EPS)) | (at_up & (arow > _EPS)))
            idx = np.nonzero(elig)[0]
            if idx.size == 0:
                self.farkas = self.farkas_ray(row, leave_to_upper, arow)
                return "infeasible", it
            ratios = np.abs(self.red[idx]) / np.abs(arow[idx])
            best = float(ratios.min())
            q = int(idx[ratios <= best + _EPS * (1.0 + best)][0])
            d = self.factor.ftran(self.A[:, q])
            if abs(d[row]) <= _EPS:
                # The FTRAN disagrees with the BTRAN row on a near-zero
                # pivot: the factor has drifted too far to trust.
                if not self.refresh():
                    raise NumericalTrouble("singular basis in dual repair")
                continue
            if self.at_upper[q]:
                self.flip_to_lower(q, d)
            leave = self.apply_pivot(row, q, d, arow=arow)
            if leave_to_upper:
                col_new = -d / d[row]
                col_new[row] = 1.0 / d[row]
                self.flip_to_upper(leave, col_new)
            it += 1
            self._maintenance(it)
        return "limit", max_iter


def revised_solve(
    sf,
    max_iter: int = 50_000,
    deadline: Deadline | None = None,
    telemetry: Telemetry | None = None,
) -> tuple[str, np.ndarray | None, float, int, RevisedTableau | None]:
    """Two-phase revised simplex on a :class:`StandardForm`.

    Returns ``(status, x, objective, iterations, tableau)`` with status in
    ``{"optimal", "infeasible", "unbounded", "limit", "deadline"}`` and
    emits ``simplex_phase1``/``simplex_phase2`` phases with ``pivots``,
    ``breakdown`` and ``refactorizations`` payloads.  On an infeasible exit
    the tableau's ``farkas`` is the phase-1 dual ray.  Raises
    :class:`NumericalTrouble` when a basis refuses to factorize — the
    caller reports ``SolverStatus.ERROR``.
    """
    A, b, c, u = sf.A, sf.b, sf.c, sf.u
    m, n = A.shape

    # Phase 1: artificial identity basis, artificial costs 1.
    A1 = np.hstack([A, np.eye(m)])
    c1 = np.concatenate([np.zeros(n), np.ones(m)])
    u1 = np.concatenate([u, np.full(m, np.inf)])
    basis = np.arange(n, n + m)
    at_upper = np.zeros(n + m, dtype=bool)
    core = _Core(A1, b, c1, u1, basis, at_upper, deadline=deadline)
    if not core.refresh():
        raise NumericalTrouble("phase-1 identity basis refused to factorize")

    def _run(core: _Core, phase: str) -> tuple[str, int]:
        if telemetry:
            with telemetry.phase(phase, rows=core.m, cols=n) as info:
                core.breakdown = {}
                status, its = core.primal(max_iter)
                info["pivots"] = its
                info["breakdown"] = core.breakdown
                info["refactorizations"] = core.factor.refactorizations
                core.breakdown = None
            return status, its
        return core.primal(max_iter)

    status, it1 = _run(core, "simplex_phase1")
    if status in ("limit", "deadline"):
        return status, None, math.nan, it1, None
    art_basic = core.basis >= n
    z1 = float(np.maximum(core.x_B[art_basic], 0.0).sum()) if art_basic.any() else 0.0
    if z1 > 1e-7:
        # Farkas vector: the phase-1 duals y = B^-T c1_B on the final
        # (fresh) basis, i.e. 1 - red(artificials).
        farkas = core.factor.btran(c1[core.basis])
        tab = RevisedTableau(
            A, core.basis.copy(), rows=np.arange(m),
            at_upper=core.at_upper.copy(), u=u1, farkas=farkas,
        )
        return "infeasible", None, math.nan, it1, tab

    # Drive remaining zero-valued artificials out of the basis.
    for i in np.nonzero(core.basis >= n)[0]:
        arow = core.factor.row(int(i)) @ A1[:, :n]
        candidates = np.nonzero(np.abs(arow) > _EPS)[0]
        if candidates.size:
            q = int(candidates[0])
            d = core.factor.ftran(A1[:, q])
            if core.at_upper[q]:
                core.flip_to_lower(q, d)
            core.apply_pivot(int(i), q, d, update_red=False)
    # Rows still basic in an artificial are redundant: drop them.
    keep = core.basis < n
    row_ids = np.nonzero(keep)[0]
    basis2 = core.basis[keep].copy()
    at_upper2 = core.at_upper[:n].copy()
    A2 = A[row_ids]
    b2 = b[row_ids]

    core2 = _Core(A2, b2, c, u, basis2, at_upper2, deadline=deadline)
    if not core2.refresh():
        raise NumericalTrouble("phase-2 basis singular after redundant-row drop")
    status, it2 = _run(core2, "simplex_phase2")
    if status == "optimal":
        x = core2.solution()
        obj = float(c @ x)
        tableau = RevisedTableau(
            A2, core2.basis, rows=row_ids, at_upper=core2.at_upper,
            u=u.copy(), x_B=core2.x_B, red=core2.red, obj=obj,
            y=core2.y, factor_inv=core2.factor._inv,
        )
        return "optimal", x, obj, it1 + it2, tableau
    if status == "unbounded":
        return "unbounded", None, -math.inf, it1 + it2, None
    return status, None, math.nan, it1 + it2, None


def warm_solve_revised(
    sf,
    warm,
    max_iter: int,
    deadline: Deadline | None,
    breakdown: dict | None = None,
) -> tuple[str, np.ndarray | None, float, int, RevisedTableau | None, str] | None:
    """Phase-2-only re-solve from a previous basis on the factored engine.

    ``None`` requests a cold solve; otherwise the returned tuple is
    :func:`revised_solve`'s plus the repair ``mode`` (``"primal"`` when the
    refactorized point was already feasible, ``"dual"`` when the bounded
    dual simplex repaired it first).  ``breakdown`` adds ``"dual_repair"``
    seconds alongside the pivot-loop sections.

    A dual repair that proves the problem empty returns ``"infeasible"``
    (mode ``"dual"``) with a tableau whose ``farkas`` is the ray over all
    rows of ``sf``; a ray that fails its float check returns ``None``.
    """
    m_all, n = sf.A.shape
    rows = np.asarray(warm.rows, dtype=int)
    basis = warm.basis.astype(int).copy()
    if rows.size != basis.size or (rows.size == 0 and m_all > 0):
        return None
    if rows.size and (rows.max() >= m_all or basis.max() >= n):
        return None
    u = sf.u
    at_upper = warm.at_upper.copy()
    at_upper &= np.isfinite(u)
    at_upper[basis] = False

    core = _Core(
        sf.A[rows], sf.b[rows], sf.c, u, basis, at_upper,
        deadline=deadline, breakdown=breakdown,
    )
    # A parent solve's exported factor skips the LU when the basis matrix
    # is unchanged (the bound-modified re-solve case); refresh() validates
    # it with the residual check before trusting it.
    if not core.refresh(hint=getattr(warm, "factor_hint", None)):
        return None

    scale = 1.0 + float(np.abs(core.x_B).max(initial=0.0))
    ub_basis = u[basis]
    primal_ok = bool(
        np.all(core.x_B >= -_FEAS_TOL * scale)
        and np.all((core.x_B <= ub_basis + _FEAS_TOL * scale) | ~np.isfinite(ub_basis))
    )
    cscale = 1.0 + float(np.abs(sf.c).max(initial=0.0))
    dual_viol = np.where(core.at_upper, core.red, -core.red)
    dual_viol[core.in_basis] = -np.inf
    dual_ok = bool(np.all(dual_viol <= _FEAS_TOL * cscale))

    iters = 0
    mode = "primal"
    if not primal_ok:
        if not dual_ok:
            return None
        mode = "dual"
        cap = min(max_iter, 4 * (rows.size + n) + 100)
        repair_t0 = perf_counter() if breakdown is not None else 0.0
        # Suspend the per-section breakdown during repair so dual seconds
        # land only in "dual_repair" (the profiler partitions the phase).
        saved, core.breakdown = core.breakdown, None
        try:
            dstat, dit = core.dual(cap)
        except NumericalTrouble:
            return None
        finally:
            core.breakdown = saved
            if breakdown is not None:
                breakdown["dual_repair"] = (
                    breakdown.get("dual_repair", 0.0) + perf_counter() - repair_t0
                )
        iters += dit
        if dstat == "deadline":
            return "deadline", None, math.nan, iters, None, mode
        if dstat == "infeasible" and core.farkas is not None:
            # The repair proved the child empty: export the ray over all
            # rows (rows the parent dropped as redundant get 0).
            farkas = np.zeros(m_all)
            farkas[rows] = core.farkas
            tab = RevisedTableau(
                core.A, core.basis, rows=rows, at_upper=core.at_upper,
                u=u, farkas=farkas,
            )
            return "infeasible", None, math.nan, iters, tab, mode
        if dstat != "feasible":
            return None
    try:
        status, pit = core.primal(max_iter)
    except NumericalTrouble:
        return None
    iters += pit
    if status == "optimal":
        x = core.solution()
        if rows.size < m_all:
            dropped = np.setdiff1d(np.arange(m_all), rows, assume_unique=False)
            resid = sf.A[dropped] @ x - sf.b[dropped]
            if np.abs(resid).max(initial=0.0) > 1e-6 * scale:
                return None
        obj = float(sf.c @ x)
        tableau = RevisedTableau(
            core.A, core.basis, rows=rows, at_upper=core.at_upper,
            u=u.copy(), x_B=core.x_B, red=core.red, obj=obj,
            y=core.y, factor_inv=core.factor._inv,
        )
        return "optimal", x, obj, iters, tableau, mode
    if status == "unbounded":
        return "unbounded", None, -math.inf, iters, None, mode
    if status == "deadline":
        return "deadline", None, math.nan, iters, None, mode
    return None  # "limit" on the warm path: retry cold
