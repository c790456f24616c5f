"""L-shaped (Benders) decomposition for two-stage stochastic programs.

The paper cites Benders decomposition [28] as one of the standard techniques
for solving the deterministic-equivalent SRRP.  This module implements the
multi-cut L-shaped method for problems of the form::

    min  c' x  +  sum_s p_s Q_s(x)
    s.t. A_ub x <= b_ub,  A_eq x == b_eq,  lb <= x <= ub,  (x possibly integer)

    Q_s(x) = min  q_s' y
             s.t. W_s y == h_s - T_s x,   0 <= y <= y_ub

First-stage integrality is handled by solving the master as a MILP each
iteration (the "integer L-shaped" simplification valid when only the master
carries integer variables and subproblems are LPs).

Subproblems are made *relatively complete* by elastic slacks: each recourse
row gets a pair of penalty columns at ``infeasibility_penalty``, so every
master trial point yields a bounded dual and a valid optimality cut; a
genuinely infeasible second stage surfaces as a huge recourse cost, which the
master then prices out.  This keeps the implementation free of feasibility
cuts (Farkas-ray extraction).

Scenario subproblems are independent given the master trial point, so they
fan out through :func:`repro.parallel.parallel_map`
(``BendersOptions.n_workers``; the pool's nested-fork guard keeps service
workers serial).  Each runs on the bounded-variable simplex and re-solves
from its previous iteration's optimal basis — across L-shaped iterations
only the right-hand side ``h - T x`` moves, so the old basis is typically
dual feasible and a handful of dual-simplex pivots replace a full
two-phase solve (the exported basis also carries the factor-inverse hint,
so the re-solve skips refactorization too).  Duals are read off the
simplex's dual certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from .model import CompiledProblem
from .result import SolverResult, SolverStatus
from .interface import resolve_auto, solve_compiled
from .simplex import solve_lp_simplex
from .telemetry import Deadline, Telemetry
from repro.parallel.pool import current_telemetry, default_workers, in_parallel_worker, parallel_map

__all__ = ["Scenario", "TwoStageProblem", "BendersOptions", "solve_benders", "extensive_form"]


@dataclass
class Scenario:
    """One second-stage realization.

    ``W y == h - T x`` with ``0 <= y <= y_ub`` and cost ``q' y``, weighted by
    probability ``prob`` in the objective.
    """

    prob: float
    q: np.ndarray
    W: np.ndarray
    T: np.ndarray
    h: np.ndarray
    y_ub: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.q = np.asarray(self.q, dtype=float)
        self.W = np.atleast_2d(np.asarray(self.W, dtype=float))
        self.T = np.atleast_2d(np.asarray(self.T, dtype=float))
        self.h = np.asarray(self.h, dtype=float)
        if self.W.shape[0] != self.h.shape[0] or self.T.shape[0] != self.h.shape[0]:
            raise ValueError("row mismatch between W/T/h")
        if self.q.shape[0] != self.W.shape[1]:
            raise ValueError("q length must match W columns")


@dataclass
class TwoStageProblem:
    """First-stage data plus the scenario list (probabilities must sum to 1)."""

    c: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    integrality: np.ndarray
    scenarios: list[Scenario]
    A_ub: np.ndarray | None = None
    b_ub: np.ndarray | None = None
    A_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.c = np.asarray(self.c, dtype=float)
        n = self.c.shape[0]
        self.lb = np.asarray(self.lb, dtype=float)
        self.ub = np.asarray(self.ub, dtype=float)
        self.integrality = np.asarray(self.integrality, dtype=int)
        self.A_ub = np.zeros((0, n)) if self.A_ub is None else np.atleast_2d(np.asarray(self.A_ub, float))
        self.b_ub = np.zeros(0) if self.b_ub is None else np.asarray(self.b_ub, float)
        self.A_eq = np.zeros((0, n)) if self.A_eq is None else np.atleast_2d(np.asarray(self.A_eq, float))
        self.b_eq = np.zeros(0) if self.b_eq is None else np.asarray(self.b_eq, float)
        total = sum(s.prob for s in self.scenarios)
        if not math.isclose(total, 1.0, rel_tol=1e-6):
            raise ValueError(f"scenario probabilities sum to {total}, expected 1")

    @property
    def num_x(self) -> int:
        return self.c.shape[0]


@dataclass
class BendersOptions:
    """Knobs for :func:`solve_benders`.

    ``n_workers`` controls the scenario fan-out: ``1`` (default) solves
    subproblems in-process, ``None`` asks :func:`repro.parallel.default_workers`,
    any other value is used as given (clamped to the scenario count by the
    pool).  The wall-clock limit is the ``deadline`` argument of
    :func:`solve_benders`.
    """

    max_iterations: int = 200
    tolerance: float = 1e-6
    infeasibility_penalty: float = 1e6
    n_workers: int | None = 1


@dataclass
class _SubSolve:
    value: float
    dual: np.ndarray
    y: np.ndarray
    mu: np.ndarray        # upper-bound duals of the y columns (>= 0)
    bound_term: float     # mu @ y_ub over the finite bounds


def _subproblem_lp(s: Scenario, x: np.ndarray, penalty: float) -> CompiledProblem:
    """The elastic recourse LP as a compiled problem (columns: y, u, v)."""
    m, ny = s.W.shape
    nt = ny + 2 * m
    ub = np.concatenate([
        np.full(ny, np.inf) if s.y_ub is None else np.asarray(s.y_ub, dtype=float),
        np.full(2 * m, np.inf),
    ])
    return CompiledProblem(
        c=np.concatenate([s.q, np.full(2 * m, penalty)]), c0=0.0,
        A_ub=np.zeros((0, nt)), b_ub=np.zeros(0),
        A_eq=np.hstack([s.W, np.eye(m), -np.eye(m)]), b_eq=s.h - s.T @ x,
        lb=np.zeros(nt), ub=ub, integrality=np.zeros(nt, dtype=int),
        maximize=False, variables=[],
    )


def _solve_subproblem(
    s: Scenario,
    x: np.ndarray,
    penalty: float,
    deadline: Deadline | None = None,
    warm=None,
    telemetry: Telemetry | None = None,
):
    """Elastic recourse via the bounded-variable simplex.

    Returns ``(_SubSolve, basis, warm_used)`` — the optimal basis seeds the
    same scenario's solve in the next L-shaped iteration — or ``None`` when
    the shared deadline expired mid-solve.
    """
    prob = _subproblem_lp(s, x, penalty)
    res = solve_lp_simplex(prob, deadline=deadline, warm_start=warm, telemetry=telemetry)
    if res.status is not SolverStatus.OPTIMAL and warm is not None:
        res = solve_lp_simplex(prob, deadline=deadline, telemetry=telemetry)
    if res.status is SolverStatus.TIME_LIMIT:
        return None
    cert = res.extra.get("dual_certificate") if res.status is SolverStatus.OPTIMAL else None
    if cert is None:
        raise RuntimeError(
            f"elastic subproblem unsolved by simplex (status {res.status.value})"
        )
    m, ny = s.W.shape
    # The certificate convention is r = c + A_eq' y_eq (see repro.verify),
    # so the classic recourse dual with value = dual'(h - Tx) - mu'y_ub is
    # the negated multiplier, and mu = max(0, -r) on the y columns.
    y_eq = np.asarray(cert["y_eq"], dtype=float)
    dual = -y_eq
    reduced = prob.c[:ny] + s.W.T @ y_eq
    mu = np.maximum(-reduced, 0.0)
    if s.y_ub is None:
        mu = np.zeros(ny)
        bound_term = 0.0
    else:
        u = np.asarray(s.y_ub, dtype=float)
        finite = np.isfinite(u)
        mu = np.where(finite, mu, 0.0)
        bound_term = float(mu[finite] @ u[finite])
    winfo = res.extra.get("warm") or {}
    sub = _SubSolve(
        value=float(res.objective), dual=dual, y=np.asarray(res.x[:ny]),
        mu=mu, bound_term=bound_term,
    )
    return sub, res.extra.get("basis"), bool(winfo.get("used"))


def _sub_task(item):
    """Picklable per-scenario task for :func:`repro.parallel.parallel_map`.

    ``item`` is ``(scenario, x, penalty, remaining_seconds, warm_basis)``;
    the deadline is re-materialized from the remaining budget so the tuple
    survives the process boundary.  Returns ``(sub, basis, warm_used,
    elapsed_seconds)`` — the in-worker solve time measured here, where it
    is real compute rather than fan-out overhead — or ``None`` when the
    deadline expired inside the solve.
    """
    s, x, penalty, remaining, warm = item
    t0 = perf_counter()
    dl = Deadline(max(0.0, remaining)) if math.isfinite(remaining) else None
    out = _solve_subproblem(
        s, x, penalty, deadline=dl, warm=warm, telemetry=current_telemetry()
    )
    if out is None:
        return None
    sub, basis, warm_used = out
    return sub, basis, warm_used, perf_counter() - t0


def _master_problem(p: TwoStageProblem, theta_lb: float) -> CompiledProblem:
    """Compiled master with one theta column per scenario appended after x."""
    n, S = p.num_x, len(p.scenarios)
    c = np.concatenate([p.c, np.ones(S)])  # thetas carry p_s inside the cuts
    lb = np.concatenate([p.lb, np.full(S, theta_lb)])
    ub = np.concatenate([p.ub, np.full(S, np.inf)])
    integrality = np.concatenate([p.integrality, np.zeros(S, dtype=int)])
    A_ub = np.hstack([p.A_ub, np.zeros((p.A_ub.shape[0], S))]) if p.A_ub.size else np.zeros((0, n + S))
    A_eq = np.hstack([p.A_eq, np.zeros((p.A_eq.shape[0], S))]) if p.A_eq.size else np.zeros((0, n + S))
    return CompiledProblem(
        c=c, c0=0.0, A_ub=A_ub, b_ub=p.b_ub.copy(), A_eq=A_eq, b_eq=p.b_eq.copy(),
        lb=lb, ub=ub, integrality=integrality, maximize=False, variables=[],
    )


def solve_benders(
    problem: TwoStageProblem,
    options: BendersOptions | None = None,
    backend: str = "auto",
    deadline: Deadline | None = None,
    listener=None,
) -> SolverResult:
    """Run the multi-cut L-shaped loop until the master/recourse gap closes.

    Returns a :class:`SolverResult` whose ``x`` is the first-stage solution
    and ``extra`` carries per-scenario recourse values, cut counts, and the
    iteration trace (useful for the decomposition ablation bench).

    ``backend`` solves the master (see :mod:`repro.solver.interface`;
    ``auto`` without SciPy degrades to ``simplex`` once, before the
    first iteration); the subproblems always run on the simplex.  The
    shared ``deadline`` is polled at the top of every master iteration
    and threaded into the master MILP solve; on expiry the best
    first-stage incumbent is returned with status ``FEASIBLE``
    (``TIME_LIMIT`` when no iteration completed).  Each iteration emits
    a ``benders_iteration`` telemetry event.
    """
    opts = options or BendersOptions()
    telemetry = Telemetry.from_listener(listener)
    backend = resolve_auto(backend, telemetry)
    dl = Deadline.never() if deadline is None else deadline
    S = len(problem.scenarios)
    n = problem.num_x

    # theta lower bound: crude but safe bound on p_s * Q_s
    theta_lb = -opts.infeasibility_penalty
    master = _master_problem(problem, theta_lb)
    cuts_rows: list[np.ndarray] = []
    cuts_rhs: list[float] = []
    cut_records: list[dict] = []  # scenario + dual vector per cut, for audits
    trace: list[dict] = []

    best_upper = math.inf
    best_x: np.ndarray | None = None
    best_recourse: list[float] = []
    sub_bases: list = [None] * S  # per-scenario warm-start basis, across iterations
    warm_hits_total = 0

    requested_workers = opts.n_workers if opts.n_workers is not None else default_workers()
    eff_workers = min(max(1, requested_workers), S)
    if eff_workers > 1 and in_parallel_worker():
        eff_workers = 1  # the pool would refuse to fork again anyway
    # One chunk per worker: subproblems cost a few milliseconds each, so
    # every extra pool round trip is overhead, not balance.
    chunksize = -(-S // eff_workers)

    from dataclasses import replace as dc_replace

    def out_of_time(it: int) -> SolverResult:
        if telemetry:
            telemetry.emit("deadline_exceeded", where="benders", iterations=it)
        if best_x is not None:
            return SolverResult(
                status=SolverStatus.FEASIBLE, x=best_x, objective=best_upper,
                nodes=it,
                extra={"recourse_values": best_recourse, "cuts": len(cuts_rows), "cut_records": cut_records,
                       "penalty": opts.infeasibility_penalty, "trace": trace,
                       "subproblem_warm_hits": warm_hits_total, "workers": eff_workers},
            )
        return SolverResult(status=SolverStatus.TIME_LIMIT, nodes=it, extra={"trace": trace})

    for it in range(opts.max_iterations):
        if dl.expired():
            return out_of_time(it)
        if cuts_rows:
            A_ub = np.vstack([master.A_ub] + [np.asarray(cuts_rows)])
            b_ub = np.concatenate([master.b_ub, np.asarray(cuts_rhs)])
        else:
            A_ub, b_ub = master.A_ub, master.b_ub
        m_iter = dc_replace(master, A_ub=A_ub, b_ub=b_ub)
        # Threading the hub into the master solve nests its solve_start /
        # phase events under the Benders loop in reconstructed span trees.
        res = solve_compiled(
            m_iter, backend=backend, use_presolve=False, deadline=dl, listener=telemetry
        )
        if res.status is SolverStatus.TIME_LIMIT:
            return out_of_time(it)
        if res.status is SolverStatus.INFEASIBLE:
            return SolverResult(status=SolverStatus.INFEASIBLE, nodes=it)
        if not res.status.has_solution:
            return SolverResult(status=res.status, nodes=it)
        x = res.x[:n]
        thetas = res.x[n:]
        lower = float(problem.c @ x + thetas.sum())

        items = [
            (s, x, opts.infeasibility_penalty, dl.remaining(), sub_bases[si])
            for si, s in enumerate(problem.scenarios)
        ]
        if telemetry:
            with telemetry.phase(
                "benders_subproblems", scenarios=S, iteration=it, workers=eff_workers
            ) as sub_info:
                outs = parallel_map(
                    _sub_task, items, n_workers=eff_workers, chunksize=chunksize,
                    telemetry=telemetry,
                )
                # Summed in-worker solve seconds: the profiler splits this
                # phase into subproblem compute vs fan-out/IPC overhead.
                sub_info["subproblem_s"] = float(
                    sum(o[3] for o in outs if o is not None)
                )
        else:
            outs = parallel_map(_sub_task, items, n_workers=eff_workers, chunksize=chunksize)
        if any(o is None for o in outs):
            return out_of_time(it)
        subs = [o[0] for o in outs]
        sub_bases = [new if new is not None else old for (_, new, _, _), old in zip(outs, sub_bases)]
        warm_count = sum(1 for o in outs if o[2])
        warm_hits_total += warm_count
        if telemetry and eff_workers > 1:
            telemetry.emit(
                "benders_parallel", iteration=it, scenarios=S,
                workers=eff_workers, warm_hits=warm_count,
            )
        true_recourse = np.array([s.prob for s in problem.scenarios]) * np.array([sb.value for sb in subs])
        upper = float(problem.c @ x + true_recourse.sum())
        if upper < best_upper - 1e-12:
            best_upper = upper
            best_x = x.copy()
            best_recourse = [sb.value for sb in subs]
        gap = best_upper - lower
        trace.append({"iteration": it, "lower": lower, "upper": best_upper, "cuts": len(cuts_rows)})
        if telemetry:
            telemetry.emit(
                "benders_iteration",
                iteration=it, lower=lower, upper=best_upper,
                gap=gap, cuts=len(cuts_rows),
            )
        # `lower` is only a valid global bound when the master solved to
        # optimality — a deadline-truncated FEASIBLE master must not let the
        # gap test declare a false OPTIMAL.
        if res.status is SolverStatus.OPTIMAL and gap <= opts.tolerance * max(1.0, abs(best_upper)):
            return SolverResult(
                status=SolverStatus.OPTIMAL, x=best_x, objective=best_upper, bound=lower,
                nodes=it + 1,
                extra={"recourse_values": best_recourse, "cuts": len(cuts_rows), "cut_records": cut_records,
                       "penalty": opts.infeasibility_penalty, "trace": trace,
                       "subproblem_warm_hits": warm_hits_total, "workers": eff_workers},
            )

        # add violated optimality cuts: theta_s >= p_s (dual'(h_s - T_s x) - mu'u)
        added = 0
        for si, (s, sb) in enumerate(zip(problem.scenarios, subs)):
            cut_const = s.prob * float(sb.dual @ s.h - sb.bound_term)
            cut_coefx = s.prob * (sb.dual @ s.T)  # theta_s >= cut_const - cut_coefx @ x
            if thetas[si] < s.prob * sb.value - 1e-9 * max(1.0, abs(sb.value)):
                row = np.zeros(n + S)
                row[:n] = -cut_coefx
                row[n + si] = -1.0
                # -cut_coefx @ x - theta_s <= -cut_const
                cuts_rows.append(row)
                cuts_rhs.append(-cut_const)
                cut_records.append(
                    {"scenario": si, "iteration": it,
                     "dual": sb.dual.copy(), "mu": sb.mu.copy()}
                )
                added += 1
        if added == 0:
            # numerically converged without closing the reported gap
            return SolverResult(
                status=SolverStatus.OPTIMAL, x=best_x, objective=best_upper, bound=lower,
                nodes=it + 1,
                extra={"recourse_values": best_recourse, "cuts": len(cuts_rows), "cut_records": cut_records,
                       "penalty": opts.infeasibility_penalty, "trace": trace,
                       "subproblem_warm_hits": warm_hits_total, "workers": eff_workers},
            )

    return SolverResult(
        status=SolverStatus.ITERATION_LIMIT, x=best_x,
        objective=best_upper if best_x is not None else math.nan,
        nodes=opts.max_iterations,
        extra={"cuts": len(cuts_rows), "cut_records": cut_records,
                       "penalty": opts.infeasibility_penalty, "trace": trace,
                       "subproblem_warm_hits": warm_hits_total, "workers": eff_workers},
    )


def extensive_form(problem: TwoStageProblem) -> CompiledProblem:
    """Build the deterministic-equivalent (extensive form) MILP directly.

    Used to validate the decomposition: ``solve_compiled(extensive_form(p))``
    and :func:`solve_benders` must agree on the optimum.
    """
    n = problem.num_x
    ny = [s.q.shape[0] for s in problem.scenarios]
    total_y = sum(ny)
    N = n + total_y

    c = np.concatenate([problem.c] + [s.prob * s.q for s in problem.scenarios])
    lb = np.concatenate([problem.lb] + [np.zeros(k) for k in ny])
    ub_parts = [problem.ub]
    for s in problem.scenarios:
        ub_parts.append(np.full(s.q.shape[0], np.inf) if s.y_ub is None else np.asarray(s.y_ub, float))
    ub = np.concatenate(ub_parts)
    integrality = np.concatenate([problem.integrality, np.zeros(total_y, dtype=int)])

    A_ub = np.hstack([problem.A_ub, np.zeros((problem.A_ub.shape[0], total_y))]) if problem.A_ub.size else np.zeros((0, N))
    rows = []
    rhs = []
    offset = n
    for s in problem.scenarios:
        m = s.h.shape[0]
        block = np.zeros((m, N))
        block[:, :n] = s.T
        block[:, offset : offset + s.q.shape[0]] = s.W
        rows.append(block)
        rhs.append(s.h)
        offset += s.q.shape[0]
    A_eq_sc = np.vstack(rows) if rows else np.zeros((0, N))
    b_eq_sc = np.concatenate(rhs) if rhs else np.zeros(0)
    if problem.A_eq.size:
        A_eq = np.vstack([np.hstack([problem.A_eq, np.zeros((problem.A_eq.shape[0], total_y))]), A_eq_sc])
        b_eq = np.concatenate([problem.b_eq, b_eq_sc])
    else:
        A_eq, b_eq = A_eq_sc, b_eq_sc

    return CompiledProblem(
        c=c, c0=0.0, A_ub=A_ub, b_ub=problem.b_ub.copy(), A_eq=A_eq, b_eq=b_eq,
        lb=lb, ub=ub, integrality=integrality, maximize=False, variables=[],
    )
