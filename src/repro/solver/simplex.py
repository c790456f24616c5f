"""LP relaxations on the pure-Python stack: standard form plus one driver.

This is the from-scratch LP path standing in for the commercial solver the
paper used.  It works on the :class:`~repro.solver.model.CompiledProblem`
matrix form, converting general bounds and inequality rows to the
computational *bounded* standard form

    min c' x   s.t.  A x = b,  0 <= x <= u

via lower-bound shifting, upper-bound mirroring (``lb = -inf`` with finite
``ub``), free-variable splitting, and slack columns.  Finite upper bounds
stay native column bounds (no bound rows): the pivot engine lets a
nonbasic variable sit at either bound, and its ratio test allows a bound
flip without any basis change.

:func:`solve_lp_simplex` drives the factored revised simplex in
:mod:`repro.solver.revised` (LU basis with collapsed product-form eta
updates, Devex pricing with a stall switch to Bland's rule).  A problem
with no rows needs no pivots: its answer is a bound inspection made here.

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
  repair's Farkas ray (see :mod:`repro.solver.revised`);
* anything else — singular basis, layout change, dual infeasibility, a
  stalled repair, a ray that fails its check — falls back to a cold
  two-phase solve, never to a wrong answer.  ``result.extra["warm"]``
  records which path ran.

Standardization runs in two steps (:class:`StandardLayout`): the
bound-independent layout is built once per constraint matrix and rides on
the exported basis, so a re-solve of the same constraint data with new
bounds repeats only the bound step.

The final state is exposed as a
:class:`~repro.solver.revised.RevisedTableau` (``result.extra["tableau"]``)
because the Gomory cut generator in :mod:`repro.solver.cuts` reads
fractional rows off the optimal tableau.

A cold solve whose basis refuses to factorize ends in
``SolverStatus.ERROR`` plus a ``numerical_trouble`` telemetry event; it
is never answered wrongly and never falls back to another backend.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import CompiledProblem
from .result import SolverResult, SolverStatus
from .revised import NumericalTrouble, RevisedTableau, revised_solve, warm_solve_revised
from .telemetry import Deadline, Telemetry

__all__ = [
    "StandardForm",
    "SimplexBasis",
    "StandardLayout",
    "standardize",
    "solve_lp_simplex",
]

_EPS = 1e-9
#: Crossed-bound tolerance (``u < -_FEAS_TOL`` means ``lb > ub``).
_FEAS_TOL = 1e-7


ROW_UB, ROW_EQ = 0, 1


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


def _basis_from_tableau(tableau: RevisedTableau, sf: StandardForm) -> SimplexBasis:
    n = sf.A.shape[1]
    sb = SimplexBasis(
        basis=tableau.basis.copy(), at_upper=tableau.at_upper[:n].copy(),
        rows=tableau.rows.copy(), n_cols=n, m_rows=sf.A.shape[0],
        pos=sf.pos, neg=sf.neg, sign=sf.sign, layout=sf.layout,
    )
    # Children warm-starting from this basis adopt the final basis inverse
    # (after a residual check) instead of re-running the LU.
    if tableau.factor_inv is not None:
        sb.factor_hint = tableau.factor_inv
    return sb


def _dual_certificate(
    problem: CompiledProblem, sf: StandardForm, tableau: RevisedTableau
) -> dict[str, np.ndarray]:
    """Original-space dual multipliers of the optimal basis.

    The engine's row duals ``y = B^-T c_B`` of its final fresh basis cover
    the rows that survived phase 1 (dropped redundant rows get multiplier
    0); they are mapped back through the ub/eq bookkeeping.  Column
    upper-bound multipliers need not be exported: the exact checker
    re-prices reduced costs over the original box, which reproduces them.
    """
    y_std = np.zeros(sf.A.shape[0])
    y_std[tableau.rows] = tableau.y
    return sf.map_row_duals(y_std, problem.A_ub.shape[0], problem.A_eq.shape[0])


def _box_solve(sf: StandardForm) -> tuple[str, np.ndarray | None, float, int, RevisedTableau | None]:
    """``min c'x`` over ``0 <= x <= u`` alone: the answer to a problem with no rows.

    A negative cost on a column with no finite upper bound is unbounded;
    otherwise every column with a negative cost sits at its upper bound and
    the rest at zero.  No pivots are needed, and the returned tableau (no
    basic columns, reduced costs ``c``) exports a basis, an empty dual
    certificate and Gomory rows like any other optimum.
    """
    c, u = sf.c, sf.u
    at_upper = c < -_EPS
    if not np.isfinite(u[at_upper]).all():
        return "unbounded", None, -math.inf, 0, None
    empty = np.zeros(0, dtype=int)
    x = np.where(at_upper, u, 0.0)
    obj = float(c @ x)
    tableau = RevisedTableau(
        sf.A, empty, rows=empty, at_upper=at_upper, u=u.copy(),
        x_B=np.zeros(0), red=c.copy(), obj=obj, y=np.zeros(0),
    )
    return "optimal", x, obj, 0, tableau


def _warm_box_solve(sf: StandardForm, *_args, **_kwargs):
    """The warm-path form of :func:`_box_solve`: the basis has nothing to add."""
    return (*_box_solve(sf), "primal")


def solve_lp_simplex(
    problem: CompiledProblem,
    max_iter: int = 50_000,
    deadline: Deadline | None = None,
    telemetry: Telemetry | None = None,
    warm_start: SimplexBasis | None = None,
) -> SolverResult:
    """Solve the LP relaxation of a compiled problem with the revised simplex.

    Integrality markers are ignored (use the branch-and-bound driver for
    MILPs).  The returned ``extra['tableau']``/``extra['standard_form']``
    feed the Gomory cut generator.  An expired ``deadline`` unwinds the
    pivot loop and surfaces as ``SolverStatus.TIME_LIMIT``.  A cold solve
    whose basis refuses to factorize (:class:`~repro.solver.revised
    .NumericalTrouble`) returns ``SolverStatus.ERROR`` with the cause in
    ``extra['reason']`` and emits one ``numerical_trouble`` telemetry event
    (``where="simplex"``, ``reason``) — never a wrong answer.

    Warm starts: pass a previous result's ``extra['basis']`` as
    ``warm_start`` to attempt a phase-2-only re-solve (see
    :func:`repro.solver.revised.warm_solve_revised`); ``extra['warm']`` on
    the result records whether the warm path was used (``{"used": bool,
    "mode": "primal"|"dual", "reason": ...}``).  When the problem has the
    basis's constraint-data objects (``A_ub``, ``A_eq``, ``b_ub``,
    ``b_eq``, ``c``) and the same mirrored/free columns, the basis's layout
    is reused and only the bound step of standardization runs.  A child the
    dual repair proves empty is ``INFEASIBLE`` with ``extra['warm'] ==
    {"used": True, "mode": "dual"}``.  A warm basis that is rejected —
    layout mismatch after standardization, a failed repair or
    infeasibility proof, or numerical trouble — falls back to a cold solve
    *loudly*: a ``warm_start_rejected`` telemetry event
    (``where="simplex"``) carries the reason alongside the
    ``extra['warm']`` record.  An ``OPTIMAL`` result always carries a fresh
    ``extra['basis']`` for the next re-solve in the chain.

    Certificates: an ``OPTIMAL`` result carries
    ``extra['dual_certificate']`` (``y_ub``/``y_eq`` multipliers of the
    original rows) and an ``INFEASIBLE`` one carries
    ``extra['farkas_certificate']`` — both in the exact convention checked
    by :func:`repro.verify.certify_result`, for cold phase-1 rays and warm
    dual-repair rays alike.
    """
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
    # The factored engine needs at least one row; a problem with none is a
    # bound inspection answered without pivoting.
    has_rows = sf.A.shape[0] > 0

    warm_info: dict = {"used": False, "reason": "no_warm_start"}
    outcome = None
    if np.any(sf.u < -_FEAS_TOL):
        # Crossed bounds (lb > ub): trivially infeasible, no row certificate.
        return SolverResult(
            status=SolverStatus.INFEASIBLE, iterations=0, extra={"warm": warm_info}
        )
    if warm_start is not None:
        if sf.layout is warm_start.layout or warm_start.matches(sf):
            warm_fn = warm_solve_revised if has_rows else _warm_box_solve
            if telemetry:
                with telemetry.phase("simplex_warm") as info:
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
                "warm_start_rejected", where="simplex", reason=warm_info["reason"]
            )

    if outcome is None:
        if not has_rows:
            outcome = _box_solve(sf)
        else:
            try:
                outcome = revised_solve(
                    sf, max_iter=max_iter, deadline=deadline, telemetry=telemetry
                )
            except NumericalTrouble as exc:
                if telemetry:
                    telemetry.emit("numerical_trouble", where="simplex", reason=str(exc))
                return SolverResult(
                    status=SolverStatus.ERROR,
                    extra={"warm": warm_info, "reason": str(exc)},
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
            "basis": _basis_from_tableau(tableau, sf),
            "dual_certificate": _dual_certificate(problem, sf, tableau),
        }
        return SolverResult(
            status=SolverStatus.OPTIMAL, x=x, objective=obj, bound=obj,
            iterations=iters, extra=extra,
        )
    extra = {"warm": warm_info}
    if status == "infeasible":
        extra["farkas_certificate"] = sf.map_row_duals(
            tableau.farkas, problem.A_ub.shape[0], problem.A_eq.shape[0]
        )
        return SolverResult(status=SolverStatus.INFEASIBLE, iterations=iters, extra=extra)
    if status == "unbounded":
        return SolverResult(status=SolverStatus.UNBOUNDED, iterations=iters, extra=extra)
    if status == "deadline":
        if telemetry:
            telemetry.emit("deadline_exceeded", where="simplex", pivots=iters)
        return SolverResult(status=SolverStatus.TIME_LIMIT, iterations=iters, extra=extra)
    return SolverResult(status=SolverStatus.ITERATION_LIMIT, iterations=iters, extra=extra)
