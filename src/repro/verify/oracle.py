"""Differential oracle: independent solvers must agree, or one is wrong.

Each ``cross_check_*`` function takes one generated case (see
:mod:`repro.verify.generators`), solves it with every independent method
available for that problem class, certifies each answer with the exact
checker, and compares:

* LP/MILP: pure-Python simplex vs HiGHS (vs our branch-and-bound driver
  over HiGHS relaxations, for MILPs) — plus the planted optimum.
* DRRP: the MILP backends vs the Wagner-Whitin dynamic program, an
  algorithm that shares no code with the LP stack.
* SRRP: the compiled deterministic equivalent across MILP backends vs the
  planted recourse policy's expected cost.
* Two-stage: the extensive form vs Benders decomposition.

A divergence becomes a :class:`Disagreement` carrying the witness
instance; :func:`shrink_disagreement` delta-debugs the witness down to a
minimal reproducer (see :mod:`repro.verify.shrink`) and
:func:`serialize_witness` turns it into a JSON-able dict for persisting.

All solves run with ``use_presolve=False`` so the exported dual/Farkas
certificates refer to the *original* rows — presolve deletes rows and
would misalign the multipliers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.drrp import DRRPInstance, build_drrp_model
from repro.core.lotsizing import solve_wagner_whitin
from repro.core.srrp import build_srrp_model
from repro.solver.benders import TwoStageProblem, extensive_form, solve_benders
from repro.solver.interface import solve_compiled
from repro.solver.model import CompiledProblem
from repro.solver.result import SolverStatus
from repro.solver.scipy_backend import scipy_available

from .certify import certify_result
from .generators import GeneratedCase
from .shrink import shrink_drrp, shrink_problem

__all__ = [
    "Disagreement",
    "cross_check_case",
    "shrink_disagreement",
    "serialize_witness",
]


@dataclass
class Disagreement:
    """One oracle divergence.

    ``kind`` is ``"status"`` (solvers disagree on feasibility),
    ``"objective"`` (both solved, different optima), ``"certificate"``
    (a result failed exact certification) or ``"ground-truth"`` (a result
    contradicts the planted optimum).  ``witness`` is the instance that
    triggered it; ``shrunk`` the minimised reproducer once shrinking ran.
    """

    family: str
    kind: str
    detail: dict = field(default_factory=dict)
    witness: object | None = None
    shrunk: object | None = None


def _lp_backends() -> list[str]:
    return ["simplex", "scipy"] if scipy_available() else ["simplex"]


def _compare_problem(
    problem: CompiledProblem, tol: float, optimum: float | None = None
) -> list[Disagreement]:
    """Solve one compiled problem on every backend; return divergences."""
    out: list[Disagreement] = []
    results = {}
    for backend in _lp_backends():
        res = solve_compiled(problem, backend=backend, use_presolve=False)
        results[backend] = res
        report = certify_result(problem, res, tol=tol)
        if report.rejected:
            out.append(Disagreement(
                family="", kind="certificate",
                detail={
                    "backend": backend,
                    "status": res.status.value,
                    "failures": [f"{c.name}: {c.detail}" for c in report.failures()],
                },
            ))

    statuses = {b: r.status for b, r in results.items()}
    solved = {b: r for b, r in results.items() if r.status.has_solution}
    declared_infeasible = [b for b, s in statuses.items() if s is SolverStatus.INFEASIBLE]
    if solved and declared_infeasible:
        out.append(Disagreement(
            family="", kind="status",
            detail={"statuses": {b: s.value for b, s in statuses.items()}},
        ))
    if len(solved) > 1:
        objs = {b: r.objective for b, r in solved.items()}
        vals = list(objs.values())
        scale = 1.0 + max(abs(v) for v in vals)
        if max(vals) - min(vals) > tol * scale:
            out.append(Disagreement(
                family="", kind="objective", detail={"objectives": objs},
            ))
    if optimum is not None:
        for b, r in solved.items():
            if r.status is SolverStatus.OPTIMAL and abs(r.objective - optimum) > tol * (1 + abs(optimum)):
                out.append(Disagreement(
                    family="", kind="ground-truth",
                    detail={"backend": b, "objective": r.objective, "expected": optimum},
                ))
    return out


def _compare_drrp(instance: DRRPInstance, tol: float, optimum: float | None) -> list[Disagreement]:
    out: list[Disagreement] = []
    problem = build_drrp_model(instance)[0].compile()
    out.extend(_compare_problem(problem, tol, optimum))
    # Wagner-Whitin shares no code with the LP stack: an independent vote.
    if instance.bottleneck_rate is None:
        ww = solve_wagner_whitin(instance)
        res = solve_compiled(problem, backend="auto", use_presolve=False)
        if res.status.has_solution and abs(ww.objective - res.objective) > tol * (1 + abs(ww.objective)):
            out.append(Disagreement(
                family="", kind="objective",
                detail={"objectives": {"wagner-whitin": ww.objective, "milp": res.objective}},
            ))
        if optimum is not None and abs(ww.objective - optimum) > tol * (1 + abs(optimum)):
            out.append(Disagreement(
                family="", kind="ground-truth",
                detail={"backend": "wagner-whitin", "objective": ww.objective, "expected": optimum},
            ))
    return out


def _compare_two_stage(tsp: TwoStageProblem, tol: float) -> list[Disagreement]:
    out: list[Disagreement] = []
    ef_problem = extensive_form(tsp)
    ef = solve_compiled(ef_problem, backend="auto", use_presolve=False)
    bd = solve_benders(tsp)
    if ef.status.has_solution != bd.status.has_solution:
        out.append(Disagreement(
            family="", kind="status",
            detail={"statuses": {"extensive-form": ef.status.value, "benders": bd.status.value}},
        ))
    elif ef.status.has_solution:
        scale = 1.0 + abs(ef.objective)
        if abs(ef.objective - bd.objective) > tol * scale:
            out.append(Disagreement(
                family="", kind="objective",
                detail={"objectives": {"extensive-form": ef.objective, "benders": bd.objective}},
            ))
    return out


def _compare_bid_dominance(case: GeneratedCase) -> list[Disagreement]:
    """Dominance inequality + exact analytic-vs-simulator agreement.

    Two independent accountings of the same fixed-bid run — the
    :func:`repro.market.fixed_bid_outcome` re-derivation and the
    simulator's Fraction totals — must agree *bit for bit* for both bids
    (this is the single-charge invariant: an evicted slot pays λ exactly
    once, a won slot pays spot exactly once).  On top of that, the
    higher bid must weakly dominate: cost and interruption count both
    non-increasing in the bid.
    """
    from repro.core.rolling import NoPlanPolicy, simulate_policy
    from repro.market.auction import FixedBids
    from repro.market.catalog import CostRates, VMClass
    from repro.market.interruptions import fixed_bid_outcome

    inst = case.instance
    out: list[Disagreement] = []
    vm = VMClass(name="bid-dominance", on_demand_price=inst.on_demand_price)
    outcomes = {}
    for label, bid in (("lo", inst.bid_lo), ("hi", inst.bid_hi)):
        analytic = fixed_bid_outcome(inst, bid)
        outcomes[label] = analytic
        sim = simulate_policy(
            NoPlanPolicy(FixedBids(value=bid)),
            inst.prices, inst.demand, vm, rates=CostRates(),
            interruption_loss=inst.work_loss,
        )
        if float(analytic.cost) != sim.total_cost:
            out.append(Disagreement(
                family="", kind="objective",
                detail={"bid": label, "objectives": {
                    "analytic": float(analytic.cost), "simulator": sim.total_cost,
                }},
            ))
        if analytic.interruptions != sim.out_of_bid_events:
            out.append(Disagreement(
                family="", kind="status",
                detail={"bid": label, "interruptions": {
                    "analytic": analytic.interruptions,
                    "simulator": sim.out_of_bid_events,
                }},
            ))
    lo, hi = outcomes["lo"], outcomes["hi"]
    if hi.cost > lo.cost or hi.interruptions > lo.interruptions:
        out.append(Disagreement(
            family="", kind="ground-truth",
            detail={
                "cost_lo": float(lo.cost), "cost_hi": float(hi.cost),
                "interruptions_lo": lo.interruptions,
                "interruptions_hi": hi.interruptions,
            },
        ))
    if case.optimum is not None and float(hi.cost) != case.optimum:
        out.append(Disagreement(
            family="", kind="ground-truth",
            detail={"objective": float(hi.cost), "expected": case.optimum},
        ))
    return out


def _compare_fleet_pool(case: GeneratedCase, tol: float) -> list[Disagreement]:
    """Fleet-pool differential: per-tenant MILP + WW votes on the planted
    per-tenant optima, a MILP vote on the trimmed tenant's eviction cost,
    and ``plan_fleet`` attaining the planted joint optimum feasibly."""
    from repro.fleet import CapacityPool, FleetConfig, Tenant, plan_fleet
    from repro.fleet.planner import _knock

    fc = case.instance
    out: list[Disagreement] = []
    per = case.meta.get("per_tenant_optima")
    for i, inst in enumerate(fc.tenants):
        expected = None if per is None else float(per[i])
        if expected is None:
            continue
        for label, obj in (
            ("milp", solve_compiled(build_drrp_model(inst)[0].compile(), backend="auto").objective),
            ("ww", solve_wagner_whitin(inst).objective),
        ):
            if abs(float(obj) - expected) > tol * max(1.0, abs(expected)):
                out.append(Disagreement(
                    family="", kind="ground-truth",
                    detail={"tenant": i, "solver": label,
                            "objective": float(obj), "expected": expected},
                ))
    trimmed = case.meta.get("trimmed")
    if per is not None and trimmed is not None:
        knocked = _knock(fc.tenants[trimmed], (fc.bind_slot,))
        res = solve_compiled(build_drrp_model(knocked)[0].compile(), backend="auto")
        expected = float(per[trimmed]) + float(fc.deltas[trimmed])
        if abs(float(res.objective) - expected) > tol * max(1.0, abs(expected)):
            out.append(Disagreement(
                family="", kind="ground-truth",
                detail={"tenant": trimmed, "solver": "milp-evicted",
                        "objective": float(res.objective), "expected": expected},
            ))
    tenants = [
        Tenant(tenant_id=i, name=f"fleet-{i}", vm_name=inst.vm_name,
               profile="planted", sla="premium", pool="shared", size=1.0,
               instance=inst)
        for i, inst in enumerate(fc.tenants)
    ]
    pools = {"shared": CapacityPool(name="shared", capacity=fc.capacity)}
    fleet = plan_fleet(tenants, pools, FleetConfig(workers=1))
    if fleet.failures:
        out.append(Disagreement(
            family="", kind="certificate",
            detail={"failures": fleet.failures[:5]},
        ))
    if case.optimum is not None and abs(fleet.total_cost - case.optimum) > tol * max(
        1.0, abs(case.optimum)
    ):
        out.append(Disagreement(
            family="", kind="objective",
            detail={"objective": fleet.total_cost, "expected": case.optimum,
                    "escalated": fleet.escalated,
                    "repair_rounds": fleet.repair_rounds},
        ))
    return out


def cross_check_case(case: GeneratedCase, tol: float = 1e-6) -> list[Disagreement]:
    """Run the family-appropriate differential comparison for one case."""
    from repro.market.interruptions import BidDominanceCase

    from .generators import FleetPoolCase

    if isinstance(case.instance, FleetPoolCase):
        found = _compare_fleet_pool(case, tol)
        for d in found:
            d.family = case.family
            if d.witness is None:
                d.witness = case.instance
        return found
    if isinstance(case.instance, BidDominanceCase):
        found = _compare_bid_dominance(case)
        for d in found:
            d.family = case.family
            if d.witness is None:
                d.witness = case.instance
        return found
    if isinstance(case.instance, CompiledProblem):
        expect_feasible = case.feasible
        found = _compare_problem(case.instance, tol, case.optimum)
        if not expect_feasible:
            # every backend must agree on infeasibility
            for backend in _lp_backends():
                res = solve_compiled(case.instance, backend=backend, use_presolve=False)
                if res.status is not SolverStatus.INFEASIBLE:
                    found.append(Disagreement(
                        family="", kind="status",
                        detail={"backend": backend, "status": res.status.value,
                                "expected": "infeasible"},
                    ))
    elif isinstance(case.instance, DRRPInstance):
        found = _compare_drrp(case.instance, tol, case.optimum)
    elif isinstance(case.instance, TwoStageProblem):
        found = _compare_two_stage(case.instance, tol)
    else:  # SRRP: compare backends on the compiled deterministic equivalent
        problem = build_srrp_model(case.instance)[0].compile()
        found = _compare_problem(problem, tol, case.optimum)
    for d in found:
        d.family = case.family
        if d.witness is None:
            d.witness = case.instance
    return found


def _still_disagrees_problem(tol: float, kind: str, optimum: float | None):
    def predicate(candidate: CompiledProblem) -> bool:
        return any(d.kind == kind for d in _compare_problem(candidate, tol, optimum))
    return predicate


def shrink_disagreement(d: Disagreement, tol: float = 1e-6, max_evals: int = 120) -> Disagreement:
    """Minimise ``d.witness`` while the same *kind* of divergence persists.

    The planted optimum is dropped during shrinking (removing a row
    changes the true optimum), so only self-contained divergences —
    cross-backend and certification failures — guide the search.
    """
    if isinstance(d.witness, CompiledProblem):
        pred = _still_disagrees_problem(tol, d.kind, None)
        if pred(d.witness):
            d.shrunk = shrink_problem(d.witness, pred, max_evals=max_evals)
    elif isinstance(d.witness, DRRPInstance):
        def pred(candidate: DRRPInstance) -> bool:
            return any(x.kind == d.kind for x in _compare_drrp(candidate, tol, None))
        if pred(d.witness):
            d.shrunk = shrink_drrp(d.witness, pred, max_evals=max_evals)
    # SRRP / two-stage witnesses are persisted unshrunk.
    return d


def _arr(a) -> list:
    return np.asarray(a, dtype=float).tolist()


def serialize_witness(obj) -> dict:
    """JSON-able dict for a witness instance (reproducer files)."""
    if isinstance(obj, CompiledProblem):
        return {
            "type": "CompiledProblem",
            "c": _arr(obj.c), "c0": float(obj.c0),
            "A_ub": _arr(obj.A_ub), "b_ub": _arr(obj.b_ub),
            "A_eq": _arr(obj.A_eq), "b_eq": _arr(obj.b_eq),
            "lb": _arr(obj.lb), "ub": _arr(obj.ub),
            "integrality": np.asarray(obj.integrality, dtype=int).tolist(),
            "maximize": bool(obj.maximize),
        }
    if isinstance(obj, DRRPInstance):
        return {
            "type": "DRRPInstance",
            "demand": _arr(obj.demand),
            "phi": float(obj.phi),
            "initial_storage": float(obj.initial_storage),
            "bottleneck_rate": (
                None if obj.bottleneck_rate is None else float(obj.bottleneck_rate)
            ),
            "bottleneck_capacity": (
                None if obj.bottleneck_capacity is None else _arr(obj.bottleneck_capacity)
            ),
            "costs": {
                "compute": _arr(obj.costs.compute),
                "storage": _arr(obj.costs.storage),
                "io": _arr(obj.costs.io),
                "transfer_in": _arr(obj.costs.transfer_in),
                "transfer_out": _arr(obj.costs.transfer_out),
            },
        }
    if isinstance(obj, TwoStageProblem):
        return {
            "type": "TwoStageProblem",
            "c": _arr(obj.c), "lb": _arr(obj.lb), "ub": _arr(obj.ub),
            "integrality": np.asarray(obj.integrality, dtype=int).tolist(),
            "scenarios": [
                {"prob": float(s.prob), "q": _arr(s.q), "W": _arr(s.W),
                 "T": _arr(s.T), "h": _arr(s.h),
                 "y_ub": None if s.y_ub is None else _arr(s.y_ub)}
                for s in obj.scenarios
            ],
            "A_ub": None if obj.A_ub is None or not obj.A_ub.size else _arr(obj.A_ub),
            "b_ub": None if obj.b_ub is None or not obj.b_ub.size else _arr(obj.b_ub),
        }
    from repro.market.interruptions import BidDominanceCase

    from .generators import FleetPoolCase

    if isinstance(obj, FleetPoolCase):
        return {
            "type": "FleetPoolCase",
            "capacity": _arr(obj.capacity),
            "bind_slot": int(obj.bind_slot),
            "deltas": [float(d) for d in obj.deltas],
            "tenants": [serialize_witness(t) for t in obj.tenants],
        }
    if isinstance(obj, BidDominanceCase):
        return {
            "type": "BidDominanceCase",
            "prices": _arr(obj.prices),
            "demand": _arr(obj.demand),
            "on_demand_price": float(obj.on_demand_price),
            "bid_lo": float(obj.bid_lo),
            "bid_hi": float(obj.bid_hi),
            "work_loss": float(obj.work_loss),
        }
    # SRRPInstance and anything else: structural summary only
    summary = {"type": type(obj).__name__}
    if hasattr(obj, "demand"):
        summary["demand"] = _arr(obj.demand)
    if hasattr(obj, "tree"):
        summary["tree_nodes"] = [
            {"index": n.index, "parent": n.parent, "depth": n.depth,
             "price": n.price, "cond_prob": n.cond_prob}
            for n in obj.tree.nodes
        ]
    return summary
