"""Two-phase dense tableau simplex with native variable bounds.

This is the from-scratch LP engine standing in for the commercial solver the
paper used.  It works on the :class:`~repro.solver.model.CompiledProblem`
matrix form, converting general bounds and inequality rows to the
computational *bounded* standard form

    min c' x   s.t.  A x = b,  0 <= x <= u

via lower-bound shifting, upper-bound mirroring (``lb = -inf`` with finite
``ub``), free-variable splitting, and slack columns.  Finite upper bounds are
handled **natively in the pivot rules** (bounded-variable simplex): a
nonbasic variable may sit at either of its bounds, and the ratio test allows
three outcomes — a basic variable drops to zero, a basic variable hits its
own upper bound, or the entering variable flips to its opposite bound without
any basis change.  Compared to the earlier formulation that emitted one
``ROW_BOUND`` row plus a slack column per bounded variable, this roughly
halves the tableau in both dimensions on DRRP instances (every setup binary
used to cost a row and a column).

Dantzig pricing is used by default with a switch to Bland's rule after a
stall is detected, which guarantees termination on degenerate problems.

The tableau is kept as one contiguous ``(m+1, n+1)`` numpy array and pivots
are rank-1 updates (vectorized row elimination) — the profiling-first idiom
from the HPC guides: the hot loop does O(m·n) numpy work per pivot and no
Python-level iteration over matrix entries.

Warm starts
-----------

An ``OPTIMAL`` :func:`solve_lp_simplex` result exports its final basis as a
:class:`SimplexBasis` (``result.extra["basis"]``): the basic column set, the
at-upper flags of the nonbasic columns, and the surviving row set, plus the
layout fingerprint needed to check that a later problem standardizes into
the same column space.  Passing it back via ``warm_start=`` re-solves a
*bound-modified* problem (the branch-and-bound child case, the Benders
next-iteration case) without phase 1:

* refactorize the basis on the new right-hand side;
* if the basic point is primal feasible, run primal phase 2 directly;
* if it is primal infeasible but dual feasible (the common case after a
  bound tightening), repair with the bounded **dual simplex** and polish
  with a primal pass;
* if the repair proves the problem empty, return ``INFEASIBLE`` with the
  repair's Farkas ray (revised engine; see :mod:`repro.solver.revised`);
* anything else — singular basis, layout change, dual infeasibility, a
  stalled repair, a ray that fails its check — falls back to a cold
  two-phase solve, never to a wrong answer.  ``result.extra["warm"]``
  records which path ran.

Standardization runs in two steps (:class:`StandardLayout`): the
bound-independent layout is built once per constraint matrix and rides on
the exported basis, so a re-solve of the same constraint data with new
bounds repeats only the bound step.

The final tableau and basis are exposed (:class:`SimplexTableau`) because the
Gomory cut generator in :mod:`repro.solver.cuts` reads fractional rows off
the optimal tableau.

Engines
-------

Two pivot engines share this module's public contract:

``"revised"`` (default)
    The factored revised simplex in :mod:`repro.solver.revised` — LU basis
    with collapsed product-form eta updates, Devex pricing, O(m^2 + n)
    pivots, lazy tableau materialization.  This is the production engine.
``"tableau"``
    The dense full-tableau loop kept in this module — O(m*n) pivots.  Kept
    for one release as the differential oracle and escape hatch.

Selection: the ``engine=`` keyword of :func:`solve_lp_simplex` wins,
otherwise the ``REPRO_SIMPLEX`` environment variable (``revised`` |
``tableau``), otherwise ``revised``.  Both engines produce and accept the
same :class:`SimplexBasis` warm starts and export identical certificate
conventions; ``result.extra["engine"]`` records which one ran.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from .model import CompiledProblem
from .result import SolverResult, SolverStatus
from .revised import NumericalTrouble, revised_solve, warm_solve_revised
from .telemetry import Deadline, Telemetry

__all__ = [
    "StandardForm",
    "SimplexTableau",
    "SimplexBasis",
    "StandardLayout",
    "SIMPLEX_ENGINES",
    "resolve_engine",
    "standardize",
    "simplex_solve",
    "solve_lp_simplex",
]

_EPS = 1e-9
#: Primal feasibility tolerance used when accepting a warm basis.
_FEAS_TOL = 1e-7


ROW_UB, ROW_EQ = 0, 1

#: Pivot engines sharing the :func:`solve_lp_simplex` contract.
SIMPLEX_ENGINES = ("revised", "tableau")


def resolve_engine(engine: str | None = None) -> str:
    """Resolve the pivot engine: explicit arg > ``REPRO_SIMPLEX`` > revised.

    Unknown names warn (``RuntimeWarning``) and fall back to the default
    rather than erroring, so a stale environment variable cannot take the
    solver down.
    """
    if engine is None:
        engine = os.environ.get("REPRO_SIMPLEX", "").strip().lower() or "revised"
    else:
        engine = engine.strip().lower()
    if engine not in SIMPLEX_ENGINES:
        warnings.warn(
            f"unknown simplex engine {engine!r} (check REPRO_SIMPLEX); "
            f"expected one of {SIMPLEX_ENGINES}, using 'revised'",
            RuntimeWarning,
            stacklevel=3,
        )
        engine = "revised"
    return engine


@dataclass
class StandardForm:
    """Standard-form data plus the bookkeeping to map solutions back.

    ``x_original[j] = shift[j] + sign[j] * x_std[pos[j]] - (x_std[neg[j]] if
    split)`` where ``pos``/``neg`` give the standard-form columns of each
    original variable (``neg[j] < 0`` when the variable was not split) and
    ``sign[j] = -1`` marks mirrored variables (``lb = -inf`` with finite
    ``ub``, substituted as ``x = ub - x'``).

    ``u`` holds the native upper bound of every standard-form column
    (``inf`` where unbounded); there are no bound rows.

    ``row_kind``/``row_ref``/``row_sign`` record, for every standard-form
    row, which original constraint it came from (``ROW_UB``/``ROW_EQ`` with
    the original row index) and whether the row was negated for phase 1.
    This is what lets dual vectors computed on the standard form be mapped
    back to multipliers of the *original* ``A_ub``/``A_eq`` rows for
    certificate checking.

    ``layout`` is the bound-independent :class:`StandardLayout` the form
    was derived from; ``A``, ``c``, ``pos``, ``neg``, ``sign``,
    ``row_kind`` and ``row_ref`` are its read-only arrays (``A`` is a
    private copy only when some row had to be negated).
    """

    A: np.ndarray
    b: np.ndarray
    c: np.ndarray
    u: np.ndarray
    shift: np.ndarray
    pos: np.ndarray
    neg: np.ndarray
    sign: np.ndarray
    n_structural: int  # columns that correspond to original variables
    row_kind: np.ndarray | None = None
    row_ref: np.ndarray | None = None
    row_sign: np.ndarray | None = None
    layout: "StandardLayout | None" = None

    def recover(self, x_std: np.ndarray) -> np.ndarray:
        x = self.shift + self.sign * x_std[self.pos]
        split = self.neg >= 0
        if split.any():
            x[split] -= x_std[self.neg[split]]
        return x

    def map_row_duals(self, y_std: np.ndarray, m_ub: int, m_eq: int) -> dict[str, np.ndarray]:
        """Translate standard-form row multipliers to original-row ones.

        For a standard row built as ``sign * (original equation)``, the
        multiplier on the original equation is ``sign * y_std``; the
        original-space convention used by :mod:`repro.verify.certify`
        (``y_ub >= 0`` entering the reduced costs as ``c + A_ub' y_ub``)
        flips the sign once more.  Column upper-bound multipliers are never
        exported — the checker re-derives optimal bound multipliers from
        the reduced costs, which can only improve the certified bound.
        """
        y_row = -self.row_sign * y_std
        y_ub = np.zeros(m_ub)
        y_eq = np.zeros(m_eq)
        ub_rows = self.row_kind == ROW_UB
        eq_rows = self.row_kind == ROW_EQ
        # Every original row maps to exactly one standard row, so plain
        # fancy assignment (no accumulation) is correct here.
        y_ub[self.row_ref[ub_rows]] = y_row[ub_rows]
        y_eq[self.row_ref[eq_rows]] = y_row[eq_rows]
        return {"y_ub": y_ub, "y_eq": y_eq}


def _column_classes(problem: CompiledProblem):
    """``(lb, ub, fin_lb, fin_ub, mirrored, free)`` of a problem's columns.

    Mirrored columns have ``lb = -inf`` and a finite ``ub``; free columns
    have neither bound.  These two masks are all the layout depends on.
    """
    lb = np.asarray(problem.lb, dtype=float)
    ub = np.asarray(problem.ub, dtype=float)
    fin_lb = np.isfinite(lb)
    fin_ub = np.isfinite(ub)
    return lb, ub, fin_lb, fin_ub, ~fin_lb & fin_ub, ~fin_lb & ~fin_ub


@dataclass(frozen=True, eq=False)
class StandardLayout:
    """The bound-independent half of :func:`standardize`.

    Built once per constraint matrix: the coefficient matrix with slack
    columns (rows not yet negated), the concatenated original rows and
    right-hand side, the cost vector, the column maps ``pos``/``neg``/
    ``sign`` and the row bookkeeping ``row_kind``/``row_ref``.  None of it
    depends on the values of the variable bounds — only on which variables
    are mirrored or split — so a branch-and-bound child, which differs from
    its parent in one bound, re-runs only :meth:`bounded`.  Every array the
    layout owns is read-only, because standard forms share them.

    ``source`` holds the ``(A_ub, A_eq, b_ub, b_eq, c)`` objects the
    layout was built from; :meth:`fits` accepts a problem by identity of
    those objects, never by comparing their values.
    """

    source: tuple
    mirrored: np.ndarray
    free: np.ndarray
    A: np.ndarray
    A_orig: np.ndarray | None  # [A_ub; A_eq], shifts b by the lower bounds
    b: np.ndarray
    c: np.ndarray
    pos: np.ndarray
    neg: np.ndarray
    sign: np.ndarray
    n_structural: int
    row_kind: np.ndarray
    row_ref: np.ndarray

    @classmethod
    def build(
        cls, problem: CompiledProblem, mirrored: np.ndarray, free: np.ndarray
    ) -> "StandardLayout":
        """Assemble the layout with vectorized column scatters.

        Column positions come from a cumulative-width scan (free variables
        take two columns), and the coefficient matrix lands in one fancy
        assignment per variable class — no Python loop over matrix entries.
        """
        n = problem.num_vars
        sign = np.ones(n)
        sign[mirrored] = -1.0

        width = np.where(free, 2, 1) if n else np.zeros(0, dtype=int)
        offsets = np.concatenate([np.zeros(1, dtype=int), np.cumsum(width, dtype=int)])
        pos = offsets[:-1]
        neg = np.where(free, pos + 1, -1)
        n_structural = int(offsets[-1])

        m_ub = problem.A_ub.shape[0]
        m_eq = problem.A_eq.shape[0]
        m = m_ub + m_eq
        n_total = n_structural + m_ub

        A = np.zeros((m, n_total))
        A_orig = None
        b = np.zeros(m)
        c = np.zeros(n_total)
        remapped = bool(mirrored.any() or free.any())
        if m:
            b = np.concatenate(
                [np.asarray(problem.b_ub, dtype=float), np.asarray(problem.b_eq, dtype=float)]
            )
            if n:
                if m_eq == 0:
                    A_orig = problem.A_ub
                elif m_ub == 0:
                    A_orig = problem.A_eq
                else:
                    A_orig = np.concatenate([problem.A_ub, problem.A_eq], axis=0)
                if remapped:
                    A[:, pos] = A_orig * sign
                    if free.any():
                        A[:, neg[free]] = -A_orig[:, free]
                else:
                    # All variables lb-shifted: pos is the identity map, so
                    # the coefficients land in one contiguous block copy.
                    A[:, :n] = A_orig
            if m_ub:
                A[np.arange(m_ub), n_structural + np.arange(m_ub)] = 1.0  # slacks
        if n:
            if remapped:
                c[pos] = problem.c * sign
                if free.any():
                    c[neg[free]] = -problem.c[free]
            else:
                c[:n] = problem.c

        row_kind = np.concatenate(
            [np.full(m_ub, ROW_UB, dtype=np.int8), np.full(m_eq, ROW_EQ, dtype=np.int8)]
        )
        row_ref = np.concatenate([np.arange(m_ub), np.arange(m_eq)]).astype(int)
        for arr in (mirrored, free, A, b, c, pos, neg, sign, row_kind, row_ref):
            arr.flags.writeable = False
        return cls(
            source=(problem.A_ub, problem.A_eq, problem.b_ub, problem.b_eq, problem.c),
            mirrored=mirrored, free=free, A=A, A_orig=A_orig, b=b, c=c,
            pos=pos, neg=neg, sign=sign, n_structural=n_structural,
            row_kind=row_kind, row_ref=row_ref,
        )

    def fits(self, problem: CompiledProblem, mirrored: np.ndarray, free: np.ndarray) -> bool:
        """True when ``problem`` has this layout's constraint data objects
        and the same mirrored/free columns.

        Identity stands in for equality because the caller that reuses a
        layout (branch and bound) hands every node the same arrays; editing
        those arrays in place between a solve and a warm re-solve from its
        basis is not detected.
        """
        src = self.source
        return (
            problem.A_ub is src[0] and problem.A_eq is src[1]
            and problem.b_ub is src[2] and problem.b_eq is src[3]
            and problem.c is src[4]
            and np.array_equal(mirrored, self.mirrored)
            and np.array_equal(free, self.free)
        )

    def bounded(
        self, lb: np.ndarray, ub: np.ndarray, fin_lb: np.ndarray, fin_ub: np.ndarray
    ) -> StandardForm:
        """The bound step: shifts, native upper bounds, ``b`` and row flips.

        ``x = lb + x'`` shifts finite lower bounds and ``x = ub - x'``
        mirrors; ``u = ub - lb`` where both are finite.  The right-hand
        side becomes ``b - A_orig @ shift``, and rows with negative rhs are
        negated so phase 1 can start from ``b >= 0``.  ``A`` is shared with
        the layout unless a row is negated.
        """
        n = lb.shape[0]
        shift = np.zeros(n)
        shift[fin_lb] = lb[fin_lb]
        shift[self.mirrored] = ub[self.mirrored]
        u = np.full(self.A.shape[1], np.inf)
        both = fin_lb & fin_ub
        u[self.pos[both]] = ub[both] - lb[both]

        if self.A_orig is not None and shift.any():
            b = self.b - self.A_orig @ shift
        else:
            b = self.b.copy()
        # normalize to b >= 0 for phase 1
        flip = b < 0
        A = self.A
        if flip.any():
            A = A.copy()
            A[flip] *= -1.0
            b[flip] *= -1.0
        row_sign = np.where(flip, -1.0, 1.0)

        return StandardForm(
            A=A, b=b, c=self.c, u=u, shift=shift,
            pos=self.pos, neg=self.neg, sign=self.sign,
            n_structural=self.n_structural,
            row_kind=self.row_kind, row_ref=self.row_ref, row_sign=row_sign,
            layout=self,
        )


def standardize(
    problem: CompiledProblem, layout: StandardLayout | None = None
) -> StandardForm:
    """Convert a compiled problem to bounded standard form ``0 <= x <= u``.

    Handling per variable:

    * finite lb: substitute ``x = lb + x'`` (shift); ``u = ub - lb``.
    * ``lb = -inf``, finite ub: mirror ``x = ub - x'`` (``sign = -1``).
    * free both ways: split ``x = x+ - x-``.

    Inequality rows gain slack columns.  Rows with negative rhs are negated
    so phase 1 can start from ``b >= 0``.  Finite upper bounds become native
    column bounds — no extra rows.

    The conversion runs in two steps: :meth:`StandardLayout.build` (the
    bound-independent matrix assembly) and :meth:`StandardLayout.bounded`
    (the bound step).  A ``layout`` that :meth:`~StandardLayout.fits` the
    problem — the warm-start case, where a child LP reuses its parent's —
    skips the first step.
    """
    lb, ub, fin_lb, fin_ub, mirrored, free = _column_classes(problem)
    if layout is None or not layout.fits(problem, mirrored, free):
        layout = StandardLayout.build(problem, mirrored, free)
    return layout.bounded(lb, ub, fin_lb, fin_ub)


@dataclass
class SimplexTableau:
    """Final simplex state: ``T`` is the (m+1, n+1) tableau whose last row is
    reduced costs and last column the basic solution; ``basis[i]`` is the
    column basic in row ``i``.

    ``at_upper``/``u`` carry the bounded-variable state: ``at_upper[q]``
    marks nonbasic columns sitting at their (finite) upper bound ``u[q]``
    rather than at zero.  ``rows[i]`` is the index of tableau row ``i`` in
    the *input* constraint matrix (redundant rows are dropped after phase 1,
    so the tableau may have fewer rows than the standard form).  ``farkas``
    is populated only on infeasible exits: the phase-1 dual vector ``y``
    (one entry per input row) certifying that ``Ax = b, 0 <= x <= u`` has
    no solution.
    """

    T: np.ndarray
    basis: np.ndarray
    rows: np.ndarray | None = None
    farkas: np.ndarray | None = None
    at_upper: np.ndarray | None = None
    u: np.ndarray | None = None

    @property
    def m(self) -> int:
        return self.T.shape[0] - 1

    @property
    def n(self) -> int:
        return self.T.shape[1] - 1

    def solution(self) -> np.ndarray:
        x = np.zeros(self.n)
        if self.at_upper is not None and self.at_upper.any():
            up = self.at_upper[: self.n]
            x[up] = self.u[: self.n][up]
        x[self.basis] = self.T[:-1, -1]
        return x


@dataclass
class SimplexBasis:
    """A reusable warm-start object: the optimal basis of a previous solve.

    Holds everything needed to restart phase 2 on a *bound-modified*
    re-solve: the basic column per surviving row, the at-upper flags of the
    nonbasic columns, the surviving row indices, and the standardization
    fingerprint (``pos``/``neg``/``sign`` plus shape) that must match for
    the basis to be meaningful in the new problem's column space.

    ``layout`` is the :class:`StandardLayout` of the solve that produced
    the basis (``pos``/``neg``/``sign`` are its shared read-only arrays).
    A re-solve whose problem the layout :meth:`~StandardLayout.fits` runs
    only the bound step of standardization and needs no :meth:`matches`.
    """

    basis: np.ndarray
    at_upper: np.ndarray
    rows: np.ndarray
    n_cols: int
    m_rows: int
    pos: np.ndarray
    neg: np.ndarray
    sign: np.ndarray
    layout: StandardLayout | None = None

    def __getstate__(self) -> dict:
        # A layout fits only the very arrays it was built from, which no
        # unpickled copy holds; dropping it keeps bases that cross process
        # boundaries (Benders workers) as small as before.
        state = self.__dict__.copy()
        state["layout"] = None
        return state

    def matches(self, sf: StandardForm) -> bool:
        """True when ``sf`` shares this basis's standard-form layout."""
        return (
            self.n_cols == sf.A.shape[1]
            and self.m_rows == sf.A.shape[0]
            and np.array_equal(self.pos, sf.pos)
            and np.array_equal(self.neg, sf.neg)
            and np.array_equal(self.sign, sf.sign)
        )


def _basis_from_tableau(tableau: SimplexTableau, sf: StandardForm) -> SimplexBasis:
    n = sf.A.shape[1]
    at_upper = (
        tableau.at_upper[:n].copy()
        if tableau.at_upper is not None
        else np.zeros(n, dtype=bool)
    )
    rows = tableau.rows if tableau.rows is not None else np.arange(tableau.m)
    sb = SimplexBasis(
        basis=tableau.basis.copy(), at_upper=at_upper, rows=rows.copy(),
        n_cols=n, m_rows=sf.A.shape[0],
        pos=sf.pos, neg=sf.neg, sign=sf.sign, layout=sf.layout,
    )
    # The revised engine exports its final basis inverse; children warm-
    # starting from this basis adopt it (after a residual check) instead of
    # re-running the LU.  The tableau engine has no factor to export.
    inv = getattr(tableau, "factor_inv", None)
    if inv is not None:
        sb.factor_hint = inv
    return sb


def _pivot(T: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    """Pivot the tableau on (row, col) with vectorized elimination."""
    T[row] /= T[row, col]
    colvals = T[:, col].copy()
    colvals[row] = 0.0
    # rank-1 update: T -= outer(colvals, pivot_row)
    T -= np.outer(colvals, T[row])
    T[:, col] = 0.0
    T[row, col] = 1.0
    basis[row] = col


def _flip_to_lower(T: np.ndarray, at_upper: np.ndarray, u: np.ndarray, col: int) -> None:
    """Re-express an at-upper nonbasic column relative to its lower bound."""
    T[:-1, -1] += u[col] * T[:-1, col]
    T[-1, -1] += u[col] * T[-1, col]
    at_upper[col] = False


def _flip_to_upper(T: np.ndarray, at_upper: np.ndarray, u: np.ndarray, col: int) -> None:
    """Re-express a nonbasic column relative to its (finite) upper bound."""
    T[:-1, -1] -= u[col] * T[:-1, col]
    T[-1, -1] -= u[col] * T[-1, col]
    at_upper[col] = True


def _iterate(
    T: np.ndarray,
    basis: np.ndarray,
    at_upper: np.ndarray,
    u: np.ndarray,
    max_iter: int,
    deadline: Deadline | None = None,
    breakdown: dict | None = None,
) -> tuple[str, int]:
    """Run bounded primal simplex iterations until a terminal state.

    Returns (status, iterations): status in {"optimal", "unbounded", "limit",
    "deadline"}.  Uses Dantzig pricing over the bound-aware violation (a
    nonbasic at lower wants a negative reduced cost, one at upper a positive
    one); after 2*m consecutive degenerate steps switches to Bland's rule to
    escape cycling.  Each step is either a pivot or a *bound flip* (the
    entering variable travels to its opposite bound without a basis change —
    an O(m) rhs update instead of an O(m·n) pivot).  The deadline is polled
    every step so a single large LP cannot blow through the shared
    wall-clock budget.

    ``breakdown`` (optional, telemetry-enabled call sites only) accumulates
    per-section wall seconds under ``"pricing"``, ``"ratio_test"``, and
    ``"basis_update"``; ``None`` keeps the hot loop timer-free.
    """
    m = T.shape[0] - 1
    n_cols = T.shape[1] - 1
    in_basis = np.zeros(n_cols, dtype=bool)
    in_basis[basis] = True
    stall = 0
    bland = False
    track = breakdown is not None

    def _acc(key: str, t0: float) -> float:
        now = perf_counter()
        breakdown[key] = breakdown.get(key, 0.0) + now - t0
        return now

    for it in range(max_iter):
        if deadline is not None and deadline.expired():
            return "deadline", it
        t0 = perf_counter() if track else 0.0
        red = T[-1, :-1]
        # Violation: at-lower columns improve when red < 0, at-upper when
        # red > 0.  Basic columns are masked out.
        viol = np.where(at_upper[:n_cols], red, -red)
        viol[in_basis] = -np.inf
        if bland:
            cand = np.nonzero(viol > _EPS)[0]
            if cand.size == 0:
                if track:
                    _acc("pricing", t0)
                return "optimal", it
            col = int(cand[0])
        else:
            col = int(np.argmax(viol))
            if viol[col] <= _EPS:
                if track:
                    _acc("pricing", t0)
                return "optimal", it
        from_upper = bool(at_upper[col])
        if track:
            t0 = _acc("pricing", t0)
        alpha = T[:-1, col]
        rhs = T[:-1, -1]
        ub_basis = u[basis]
        # Three-way ratio test on the entering step length t >= 0:
        # a basic drops to zero, a basic hits its own upper bound, or the
        # entering variable reaches its opposite bound (t = u[col]).
        if from_upper:
            dec = alpha < -_EPS
            inc = alpha > _EPS
        else:
            dec = alpha > _EPS
            inc = alpha < -_EPS
        ratios = np.full(m, np.inf)
        ratios[dec] = np.maximum(rhs[dec], 0.0) / np.abs(alpha[dec])
        fin_inc = inc & np.isfinite(ub_basis)
        ratios[fin_inc] = np.maximum(ub_basis[fin_inc] - rhs[fin_inc], 0.0) / np.abs(alpha[fin_inc])
        t_own = u[col]
        if m:
            row = int(np.argmin(ratios))
            t_row = float(ratios[row])
        else:
            row, t_row = -1, math.inf
        if not math.isfinite(t_own) and not math.isfinite(t_row):
            if track:
                _acc("ratio_test", t0)
            return "unbounded", it
        if t_own <= t_row:
            if track:
                t0 = _acc("ratio_test", t0)
            # Bound flip: no pivot, the entering column swaps bounds.
            if from_upper:
                _flip_to_lower(T, at_upper, u, col)
            else:
                _flip_to_upper(T, at_upper, u, col)
            if track:
                _acc("basis_update", t0)
            if t_own <= _EPS:
                stall += 1
                if stall > 2 * m + 10:
                    bland = True
            else:
                stall = 0
                bland = False
            continue
        if bland:
            # tie-break by smallest basis index for anti-cycling
            ties = np.nonzero(np.abs(ratios - t_row) <= _EPS * (1 + abs(t_row)))[0]
            row = int(min(ties, key=lambda i: basis[i]))
        leave = int(basis[row])
        leave_to_upper = (alpha[row] > 0.0) if from_upper else (alpha[row] < 0.0)
        degenerate = t_row <= _EPS
        if track:
            t0 = _acc("ratio_test", t0)
        if from_upper:
            _flip_to_lower(T, at_upper, u, col)
        _pivot(T, basis, row, col)
        in_basis[leave] = False
        in_basis[col] = True
        if leave_to_upper:
            _flip_to_upper(T, at_upper, u, leave)
        if track:
            _acc("basis_update", t0)
        if degenerate:
            stall += 1
            if stall > 2 * m + 10:
                bland = True
        else:
            stall = 0
            bland = False
    return "limit", max_iter


def _iterate_dual(
    T: np.ndarray,
    basis: np.ndarray,
    at_upper: np.ndarray,
    u: np.ndarray,
    max_iter: int,
    deadline: Deadline | None = None,
) -> tuple[str, int]:
    """Bounded dual simplex: restore primal feasibility from a dual-feasible basis.

    Picks the most-violated basic variable (below zero, or above its own
    upper bound), then the entering column by the smallest reduced-cost
    ratio among sign-eligible nonbasics.  Returns ``("feasible", it)`` once
    every basic value is within its bounds, ``("infeasible", it)`` when a
    violated row admits no entering column (the problem has no feasible
    point — callers fall back to a cold solve so the phase-1 Farkas
    certificate is produced), or ``"limit"``/``"deadline"``.
    """
    m = T.shape[0] - 1
    n_cols = T.shape[1] - 1
    in_basis = np.zeros(n_cols, dtype=bool)
    in_basis[basis] = True
    for it in range(max_iter):
        if deadline is not None and deadline.expired():
            return "deadline", it
        rhs = T[:-1, -1]
        ub_basis = u[basis]
        below = -rhs
        over = np.where(np.isfinite(ub_basis), rhs - ub_basis, -np.inf)
        viol = np.maximum(below, over)
        if m == 0:
            return "feasible", it
        row = int(np.argmax(viol))
        if viol[row] <= _FEAS_TOL:
            return "feasible", it
        leave_to_upper = over[row] > below[row]
        alpha = T[row, :-1]
        red = T[-1, :-1]
        nonbasic = ~in_basis
        at_up = at_upper[:n_cols]
        if leave_to_upper:
            elig = nonbasic & ((~at_up & (alpha > _EPS)) | (at_up & (alpha < -_EPS)))
        else:
            elig = nonbasic & ((~at_up & (alpha < -_EPS)) | (at_up & (alpha > _EPS)))
        idx = np.nonzero(elig)[0]
        if idx.size == 0:
            return "infeasible", it
        ratios = np.abs(red[idx]) / np.abs(alpha[idx])
        best = float(ratios.min())
        # smallest column index among (near-)ties: Bland-flavoured tie-break
        col = int(idx[ratios <= best + _EPS * (1.0 + best)][0])
        leave = int(basis[row])
        if at_upper[col]:
            _flip_to_lower(T, at_upper, u, col)
        _pivot(T, basis, row, col)
        in_basis[leave] = False
        in_basis[col] = True
        if leave_to_upper:
            _flip_to_upper(T, at_upper, u, leave)
    return "limit", max_iter


def _install_objective(
    T: np.ndarray, basis: np.ndarray, at_upper: np.ndarray, u: np.ndarray, c: np.ndarray
) -> None:
    """Write objective ``c`` into the last row, priced out over the basis."""
    n = c.shape[0]
    T[-1, :] = 0.0
    T[-1, :n] = c
    for i in range(T.shape[0] - 1):
        coef = T[-1, basis[i]]
        if coef != 0.0:
            T[-1] -= coef * T[i]
    # The elimination above fixed the reduced costs; set the objective cell
    # directly from the represented point (basics at rhs, nonbasics at their
    # active bound) so flips keep -T[-1,-1] equal to the true objective.
    x_now = np.zeros(n)
    up = at_upper[:n]
    if up.any():
        x_now[up] = u[:n][up]
    x_now[basis] = T[:-1, -1]
    T[-1, -1] = -float(c @ x_now)


def simplex_solve(
    A: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    max_iter: int = 50_000,
    deadline: Deadline | None = None,
    telemetry: Telemetry | None = None,
    u: np.ndarray | None = None,
) -> tuple[str, np.ndarray | None, float, int, SimplexTableau | None]:
    """Two-phase bounded simplex on ``min c'x s.t. Ax=b (b>=0), 0<=x<=u``.

    ``u`` defaults to all-infinite (the classic ``x >= 0`` form).  Returns
    ``(status, x, objective, iterations, tableau)`` with status in
    ``{"optimal", "infeasible", "unbounded", "limit", "deadline"}``.
    """
    m, n = A.shape
    if u is None:
        u = np.full(n, np.inf)
    if m == 0:
        # No rows: 0 <= x <= u only.  A negative cost direction with no
        # finite bound is unbounded; otherwise bounded costs sit at u.
        neg_c = c < -_EPS
        if np.any(neg_c & ~np.isfinite(u)):
            return "unbounded", None, -math.inf, 0, None
        at_upper = neg_c & np.isfinite(u)
        tab = SimplexTableau(
            np.zeros((1, n + 1)), np.zeros(0, dtype=int),
            rows=np.zeros(0, dtype=int), at_upper=at_upper, u=u.copy(),
        )
        x = tab.solution()
        return "optimal", x, float(c @ x), 0, tab

    # Phase 1: artificial basis, all structural columns at their lower bound.
    T = np.zeros((m + 1, n + m + 1))
    T[:-1, :n] = A
    T[:-1, n : n + m] = np.eye(m)
    T[:-1, -1] = b
    basis = np.arange(n, n + m)
    u_ext = np.concatenate([u, np.full(m, np.inf)])
    at_upper = np.zeros(n + m, dtype=bool)
    # phase-1 objective: sum of artificials -> reduced costs = -(row sums)
    T[-1, :n] = -A.sum(axis=0)
    T[-1, -1] = -b.sum()

    if telemetry:
        with telemetry.phase("simplex_phase1", rows=m, cols=n) as info:
            breakdown: dict = {}
            status, it1 = _iterate(
                T, basis, at_upper, u_ext, max_iter, deadline, breakdown=breakdown
            )
            info["pivots"] = it1
            info["breakdown"] = breakdown
    else:
        status, it1 = _iterate(T, basis, at_upper, u_ext, max_iter, deadline)
    if status in ("limit", "deadline"):
        return status, None, math.nan, it1, None
    if T[-1, -1] < -1e-7:
        # Phase-1 optimum is positive: read the Farkas vector off the
        # artificial columns (c_a = 1, so y_i = 1 - reduced_cost(a_i)).
        farkas = 1.0 - T[-1, n : n + m]
        tab = SimplexTableau(
            T, basis, rows=np.arange(m), farkas=farkas,
            at_upper=at_upper, u=u_ext,
        )
        return "infeasible", None, math.nan, it1, tab

    # Drive remaining artificials out of the basis where possible.
    for i in range(m):
        if basis[i] >= n:
            row_vals = T[i, :n]
            candidates = np.nonzero(np.abs(row_vals) > _EPS)[0]
            if candidates.size:
                col = int(candidates[0])
                if at_upper[col]:
                    _flip_to_lower(T, at_upper, u_ext, col)
                _pivot(T, basis, i, col)
    # Rows still basic in an artificial are redundant (zero rows); drop them
    # and delete the artificial columns so they can never re-enter.
    keep_rows = basis < n
    T = np.concatenate([T[:-1][keep_rows], T[-1:]], axis=0)
    basis = basis[keep_rows]
    row_ids = np.nonzero(keep_rows)[0]
    T = np.delete(T, np.s_[n : n + m], axis=1)
    at_upper = at_upper[:n]
    m2 = T.shape[0] - 1

    # Phase 2: install the real objective.
    _install_objective(T, basis, at_upper, u, c)

    if telemetry:
        with telemetry.phase("simplex_phase2", rows=m2, cols=n) as info:
            breakdown = {}
            status, it2 = _iterate(
                T, basis, at_upper, u, max_iter, deadline, breakdown=breakdown
            )
            info["pivots"] = it2
            info["breakdown"] = breakdown
    else:
        status, it2 = _iterate(T, basis, at_upper, u, max_iter, deadline)
    tableau = SimplexTableau(T, basis, rows=row_ids, at_upper=at_upper, u=u.copy())
    if status == "optimal":
        x = tableau.solution()
        return "optimal", x, float(c @ x), it1 + it2, tableau
    if status == "unbounded":
        return "unbounded", None, -math.inf, it1 + it2, None
    return status, None, math.nan, it1 + it2, None


def _dual_certificate(
    problem: CompiledProblem, sf: StandardForm, tableau: SimplexTableau
) -> dict[str, np.ndarray] | None:
    """Recover original-space dual multipliers from the optimal basis.

    Solves ``B' y = c_B`` on the standard form restricted to the rows that
    survived phase 1 (dropped redundant rows get multiplier 0), then maps
    the row duals back through the ub/eq bookkeeping.  Column upper-bound
    multipliers need not be exported: the exact checker re-prices reduced
    costs over the original box, which reproduces them.  Returns ``None``
    when the basis matrix is numerically singular — the solve is then
    simply uncertified rather than wrongly certified.
    """
    if tableau.rows is None or sf.row_kind is None:
        return None
    kept = tableau.rows
    y_kept = getattr(tableau, "y", None)
    if y_kept is None or y_kept.shape != kept.shape:
        B = sf.A[kept][:, tableau.basis]
        c_B = sf.c[tableau.basis]
        try:
            y_kept = np.linalg.solve(B.T, c_B)
        except np.linalg.LinAlgError:
            return None
    y_std = np.zeros(sf.A.shape[0])
    y_std[kept] = y_kept
    return sf.map_row_duals(y_std, problem.A_ub.shape[0], problem.A_eq.shape[0])


def _warm_solve(
    sf: StandardForm,
    warm: SimplexBasis,
    max_iter: int,
    deadline: Deadline | None,
    breakdown: dict | None = None,
) -> tuple[str, np.ndarray | None, float, int, SimplexTableau | None, str] | None:
    """Phase-2-only re-solve from a previous basis; ``None`` requests a cold solve.

    The returned tuple matches :func:`simplex_solve` plus a trailing mode
    string (``"primal"`` when the refactorized point was already feasible,
    ``"dual"`` when the bounded dual simplex repaired it first).
    ``breakdown`` adds ``"refactorization"`` (the dense basis re-solve) and
    ``"dual_repair"`` seconds alongside the pivot-loop sections.
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
    # Sanitize statuses against the new bounds: a column whose upper bound
    # became infinite cannot sit at it, and basic columns are never flagged.
    at_upper &= np.isfinite(u)
    at_upper[basis] = False

    A = sf.A[rows]
    b = sf.b[rows]
    refac_t0 = perf_counter() if breakdown is not None else 0.0
    try:
        B = A[:, basis]
        body = np.linalg.solve(B, A)
        rhs = np.linalg.solve(B, b)
    except np.linalg.LinAlgError:
        return None
    finally:
        if breakdown is not None:
            breakdown["refactorization"] = (
                breakdown.get("refactorization", 0.0) + perf_counter() - refac_t0
            )
    if not (np.isfinite(body).all() and np.isfinite(rhs).all()):
        return None
    if at_upper.any():
        rhs = rhs - body[:, at_upper] @ u[at_upper]

    mcur = rows.size
    T = np.zeros((mcur + 1, n + 1))
    T[:-1, :n] = body
    T[:-1, -1] = rhs
    _install_objective(T, basis, at_upper, u, sf.c)
    T[-1, basis] = 0.0  # clean exact zeros on the basic reduced costs

    scale = 1.0 + float(np.abs(rhs).max(initial=0.0))
    ub_basis = u[basis]
    primal_ok = bool(
        np.all(rhs >= -_FEAS_TOL * scale)
        and np.all((rhs <= ub_basis + _FEAS_TOL * scale) | ~np.isfinite(ub_basis))
    )
    red = T[-1, :-1]
    in_basis = np.zeros(n, dtype=bool)
    in_basis[basis] = True
    cscale = 1.0 + float(np.abs(sf.c).max(initial=0.0))
    dual_viol = np.where(at_upper, red, -red)
    dual_viol[in_basis] = -np.inf
    dual_ok = bool(np.all(dual_viol <= _FEAS_TOL * cscale))

    iters = 0
    mode = "primal"
    if not primal_ok:
        if not dual_ok:
            return None
        mode = "dual"
        # Cap the repair: a stalled dual loop falls back to a cold solve
        # rather than burning the whole pivot budget.
        cap = min(max_iter, 4 * (mcur + n) + 100)
        repair_t0 = perf_counter() if breakdown is not None else 0.0
        dstat, dit = _iterate_dual(T, basis, at_upper, u, cap, deadline)
        if breakdown is not None:
            breakdown["dual_repair"] = (
                breakdown.get("dual_repair", 0.0) + perf_counter() - repair_t0
            )
        iters += dit
        if dstat == "deadline":
            return "deadline", None, math.nan, iters, None, mode
        if dstat != "feasible":
            # "infeasible" → cold solve produces the Farkas certificate;
            # "limit" → cold solve from scratch.
            return None
    status, pit = _iterate(T, basis, at_upper, u, max_iter, deadline, breakdown=breakdown)
    iters += pit
    tableau = SimplexTableau(T, basis, rows=rows, at_upper=at_upper, u=u.copy())
    if status == "optimal":
        x = tableau.solution()
        if rows.size < m_all:
            # Rows dropped as redundant by the parent solve must still hold;
            # bound-only modifications preserve their consistency, but verify
            # rather than trust the numerics.
            dropped = np.setdiff1d(np.arange(m_all), rows, assume_unique=False)
            resid = sf.A[dropped] @ x - sf.b[dropped]
            if np.abs(resid).max(initial=0.0) > 1e-6 * scale:
                return None
        return "optimal", x, float(sf.c @ x), iters, tableau, mode
    if status == "unbounded":
        # Reached from a primal-feasible point, so the ray is genuine.
        return "unbounded", None, -math.inf, iters, None, mode
    if status == "deadline":
        return "deadline", None, math.nan, iters, None, mode
    return None  # "limit" on the warm path: retry cold


def solve_lp_simplex(
    problem: CompiledProblem,
    max_iter: int = 50_000,
    deadline: Deadline | None = None,
    telemetry: Telemetry | None = None,
    warm_start: SimplexBasis | None = None,
    engine: str | None = None,
) -> SolverResult:
    """Solve the LP relaxation of a compiled problem with the pure simplex.

    Integrality markers are ignored (use the branch-and-bound driver for
    MILPs).  The returned ``extra['tableau']``/``extra['standard_form']``
    feed the Gomory cut generator.  An expired ``deadline`` unwinds the
    pivot loop and surfaces as ``SolverStatus.TIME_LIMIT``.

    Engines: ``engine`` picks the pivot engine (``"revised"`` |
    ``"tableau"``); ``None`` defers to ``REPRO_SIMPLEX`` and then the
    revised default (see :func:`resolve_engine`).  ``extra['engine']``
    records the choice.  A revised-engine numerical failure degrades loudly
    (``backend_degraded`` event) to the dense tableau — never to a wrong
    answer.

    Warm starts: pass a previous result's ``extra['basis']`` as
    ``warm_start`` to attempt a phase-2-only re-solve (see
    :func:`_warm_solve` / :func:`repro.solver.revised.warm_solve_revised`);
    ``extra['warm']`` on the result records whether the warm path was used
    (``{"used": bool, "mode": "primal"|"dual", "reason": ...}``).  When the
    problem has the basis's constraint-data objects (``A_ub``, ``A_eq``,
    ``b_ub``, ``b_eq``, ``c``) and the same mirrored/free columns, the
    basis's layout is reused and only the bound step of standardization
    runs.  On the revised engine, a child the dual repair proves empty is
    ``INFEASIBLE`` with ``extra['warm'] == {"used": True, "mode": "dual"}``.
    A warm basis that is rejected — layout mismatch after
    standardization, or a failed repair or infeasibility proof — falls
    back to a cold solve *loudly*: a ``warm_start_rejected`` telemetry
    event (``where="simplex"``) carries the reason alongside the
    ``extra['warm']`` record.  An ``OPTIMAL`` result always carries a
    fresh ``extra['basis']`` for the next re-solve in the chain; bases
    are engine-portable in both directions.

    Certificates: an ``OPTIMAL`` result carries
    ``extra['dual_certificate']`` (``y_ub``/``y_eq`` multipliers of the
    original rows) and an ``INFEASIBLE`` one carries
    ``extra['farkas_certificate']`` — both in the exact convention checked
    by :func:`repro.verify.certify_result`, identically for both engines
    and for cold phase-1 rays and warm dual-repair rays alike.
    """
    engine = resolve_engine(engine)
    # Standard-form conversion builds the full constraint matrix — a real
    # cost on large instances, so it gets its own phase in the event stream.
    # A warm basis offers its layout: a bound-modified child of the same
    # constraint data then runs only the bound step.
    layout = warm_start.layout if warm_start is not None else None
    if telemetry:
        with telemetry.phase("standard_form") as info:
            sf = standardize(problem, layout)
            info["rows"], info["cols"] = sf.A.shape
    else:
        sf = standardize(problem, layout)
    # The factored engine needs at least one row; the no-row LP is a trivial
    # bound inspection that the tableau path answers without pivoting.
    use_revised = engine == "revised" and sf.A.shape[0] > 0

    warm_info: dict = {"used": False, "reason": "no_warm_start"}
    outcome = None
    if np.any(sf.u < -_FEAS_TOL):
        # Crossed bounds (lb > ub): trivially infeasible, no row certificate.
        return SolverResult(
            status=SolverStatus.INFEASIBLE, iterations=0,
            extra={"warm": warm_info, "engine": engine},
        )
    if warm_start is not None:
        if sf.layout is warm_start.layout or warm_start.matches(sf):
            warm_fn = warm_solve_revised if use_revised else _warm_solve
            if telemetry:
                with telemetry.phase("simplex_warm", engine=engine) as info:
                    breakdown: dict = {}
                    attempt = warm_fn(
                        sf, warm_start, max_iter, deadline, breakdown=breakdown
                    )
                    info["pivots"] = attempt[3] if attempt is not None else 0
                    info["accepted"] = attempt is not None
                    info["breakdown"] = breakdown
            else:
                attempt = warm_fn(sf, warm_start, max_iter, deadline)
            if attempt is not None:
                status, x_std, obj_std, iters, tableau, mode = attempt
                outcome = (status, x_std, obj_std, iters, tableau)
                warm_info = {"used": True, "mode": mode}
            else:
                warm_info = {"used": False, "reason": "repair_failed"}
        else:
            warm_info = {"used": False, "reason": "layout_mismatch"}
        if not warm_info["used"] and telemetry:
            # Loud cold fallback: a basis that survived presolve/standardize
            # mapping but was rejected here must be visible in the event
            # stream, not silently re-densified.
            telemetry.emit(
                "warm_start_rejected", where="simplex", engine=engine,
                reason=warm_info["reason"],
            )

    if outcome is None:
        if use_revised:
            try:
                outcome = revised_solve(
                    sf, max_iter=max_iter, deadline=deadline, telemetry=telemetry
                )
            except NumericalTrouble as exc:
                if telemetry:
                    telemetry.emit(
                        "backend_degraded", backend="simplex-revised",
                        fallback="simplex-tableau", reason=str(exc),
                    )
                outcome = None
        if outcome is None:
            outcome = simplex_solve(
                sf.A, sf.b, sf.c, max_iter=max_iter, deadline=deadline,
                telemetry=telemetry, u=sf.u,
            )
    status, x_std, obj_std, iters, tableau = outcome

    if status == "optimal":
        x = sf.recover(x_std)
        raw = float(problem.c @ x) + problem.c0
        obj = -raw if problem.maximize else raw
        extra = {
            "tableau": tableau,
            "standard_form": sf,
            "warm": warm_info,
            "engine": engine,
            "basis": _basis_from_tableau(tableau, sf),
        }
        cert = _dual_certificate(problem, sf, tableau)
        if cert is not None:
            extra["dual_certificate"] = cert
        return SolverResult(
            status=SolverStatus.OPTIMAL, x=x, objective=obj, bound=obj,
            iterations=iters, extra=extra,
        )
    if status == "infeasible":
        extra = {"warm": warm_info, "engine": engine}
        if tableau is not None and tableau.farkas is not None:
            extra["farkas_certificate"] = sf.map_row_duals(
                tableau.farkas, problem.A_ub.shape[0], problem.A_eq.shape[0]
            )
        return SolverResult(status=SolverStatus.INFEASIBLE, iterations=iters, extra=extra)
    if status == "unbounded":
        return SolverResult(
            status=SolverStatus.UNBOUNDED, iterations=iters,
            extra={"warm": warm_info, "engine": engine},
        )
    if status == "deadline":
        if telemetry:
            telemetry.emit("deadline_exceeded", where="simplex", pivots=iters)
        return SolverResult(
            status=SolverStatus.TIME_LIMIT, iterations=iters,
            extra={"warm": warm_info, "engine": engine},
        )
    return SolverResult(
        status=SolverStatus.ITERATION_LIMIT, iterations=iters,
        extra={"warm": warm_info, "engine": engine},
    )
