"""Exact dynamic programs for the uncapacitated lot-sizing cores of DRRP
and SRRP, and the solve contract their ``backend="auto"`` paths share.

The paper observes that DRRP "is consistent with the dynamic lot-sizing
problem".  With the bottleneck constraint omitted (as in §V-A) and linear
costs, DRRP *is* uncapacitated single-item lot-sizing, for which the
Wagner–Whitin zero-inventory-ordering property holds: some optimal plan
generates data only when (net) incoming inventory is zero, each generation
covering a contiguous run of future demand.  SRRP as built omits the same
rows, so it is stochastic uncapacitated lot-sizing on the price tree, and
the production-path property of Guan & Miller ("Polynomial-time algorithms
for stochastic uncapacitated lot-sizing problems", Operations Research
56(5), 2008) plays the same role: some optimal policy that generates at a
vertex raises its stock to exactly cover the demand down to one
descendant.  Demand depends only on the stage, so that stock always covers
a contiguous run of stages and the tree DP costs O(n·T) over n vertices.

Initial inventory ε is handled by the standard netting transformation
(:func:`repro.core.drrp.net_demand`, which :attr:`DRRPInstance.net_demand`
applies): greedy consumption of ε against the earliest demand is optimal
(holding costs are nonnegative), splits total inventory into a constant ε
part and the produced part, and leaves a zero-initial-inventory problem on
the *net* demands — over which production may still occur in
**any** slot, including slots whose own net demand is zero (producing early
at a cheap setup can beat producing at the first uncovered slot; the MILP
cross-check property test pins this case down).

A bottleneck that only knocks slots out (capacity 0 there, and capacity
that cannot bind elsewhere — the fleet's pool repair and
:func:`repro.market.interruptions.apply_interruptions` build exactly
these) keeps DRRP uncapacitated lot-sizing with those setups forbidden,
so :func:`solve_wagner_whitin` solves it exactly with the closed slots
removed from its setup candidates.

Both DPs are used as independent oracles for the MILPs (they must agree to
numerical tolerance on every instance) and as the exact ``auto`` solver
paths; :func:`run_exact_dp` gives those paths the events and deadline
semantics of a MILP solve.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from itertools import accumulate

import numpy as np

from repro.solver import Deadline, SolverStatus, Telemetry
from .drrp import DRRPInstance, RentalPlan, net_demand
from .srrp import SRRPInstance, SRRPPlan

__all__ = [
    "DRRPInfeasible",
    "solve_wagner_whitin",
    "solve_srrp_tree_dp",
    "run_exact_dp",
    "time_limit_fallback",
]

_EPS = 1e-12


class DRRPInfeasible(RuntimeError):
    """No plan serves every net demand from the open slots — the message
    and type an infeasible DRRP MILP raises through ``solve_drrp``."""

    def __init__(self) -> None:
        super().__init__(f"DRRP solve failed with status {SolverStatus.INFEASIBLE.value}")


def solve_wagner_whitin(instance: DRRPInstance) -> RentalPlan:
    """Exact DP solution of a DRRP instance whose bottleneck never binds.

    Slots the bottleneck knocks out (:attr:`DRRPInstance.open_slots`) are
    not setup candidates: closing a slot is an infinite setup cost there,
    which keeps the zero-inventory-ordering property.  Without a
    bottleneck no slot is masked and the DP is the plain Wagner–Whitin.

    Raises
    ------
    ValueError
        If the bottleneck can bind (the zero-inventory property needs
        uncapacitated generation — use the MILP instead).
    DRRPInfeasible
        If some net demand comes before every open slot.
    """
    open_slots = instance.open_slots
    if open_slots is None:
        raise ValueError(
            "Wagner-Whitin needs a bottleneck that never binds: capacity 0 "
            "or at least rate x total net demand in every slot"
        )
    is_open = open_slots.tolist()

    T = instance.horizon
    c = instance.costs
    # Plain floats: every value below is the same IEEE operation, in the
    # same order, as its elementwise numpy form (``accumulate`` adds in
    # slot order, as ``np.cumsum`` does), without the per-row array
    # overhead that dominates at service horizons.
    unit_gen = (c.transfer_in * instance.phi).tolist()
    setup = c.compute.tolist()
    demand = instance.net_demand.tolist()
    cum = [0.0, *accumulate(demand)]
    hold_prefix = [0.0, *accumulate(c.holding.tolist())]

    INF = float("inf")
    best = [INF] * (T + 1)   # best[j]: min cost serving net demand of [0, j)
    choice = [-1] * (T + 1)  # production slot, or -2 for "skip"
    best[0] = 0.0
    # base[t] = best[t] + setup[t], once best[t] is final; a closed slot
    # keeps inf, so none of its candidates is ever picked.
    base = [INF] * T
    # hold[t]: holding cost of producing at t for the net demand of [t, j];
    # each unit consumed in slot u sits in inventory ends t..u-1, so moving
    # from j-1 to j adds demand[j] * (hold_prefix[j] - hold_prefix[t]).
    hold = [0.0] * T

    for j in range(T):
        d, hp, total = demand[j], hold_prefix[j], cum[j + 1]
        # Skip transition: slot j has no net demand, extend the plan for [0, j).
        if d <= _EPS and best[j] < best[j + 1]:
            best[j + 1] = best[j]
            choice[j + 1] = -2
        if is_open[j]:
            base[j] = best[j] + setup[j]
        # Produce at any slot t <= j, covering net demand of [t, j]; scan
        # in slot order so the earliest of (near-)equal candidates wins.
        cur, pick = best[j + 1], choice[j + 1]
        bar = cur - 1e-15
        for t in range(j + 1):
            h = hold[t] = hold[t] + d * (hp - hold_prefix[t])
            qty = total - cum[t]
            if qty > _EPS:
                value = base[t] + unit_gen[t] * qty + h
                if value < bar:
                    cur, pick, bar = value, t, value - 1e-15
        best[j + 1], choice[j + 1] = cur, pick

    if best[T] == INF:
        raise DRRPInfeasible()

    # Reconstruct generation decisions.
    alpha = np.zeros(T)
    chi = np.zeros(T)
    j = T
    while j > 0:
        t = choice[j]
        if t == -2:
            j -= 1
            continue
        if t < 0:
            raise RuntimeError("Wagner-Whitin reconstruction failed")  # pragma: no cover
        alpha[t] += cum[j] - cum[t]
        chi[t] = 1.0
        j = t

    # Rebuild the full inventory trajectory against the ORIGINAL demands
    # (this re-absorbs the ε part and its holding cost).
    return RentalPlan.priced(
        instance, alpha, instance.inventory(alpha), chi, extra={"scheme": "wagner-whitin"}
    )


def solve_srrp_tree_dp(instance: SRRPInstance) -> SRRPPlan:
    """Exact production-path DP for SRRP on its scenario tree, O(n·T).

    At a vertex v of depth t the state is k ∈ [t, T]: the produced stock
    arriving at v covers the net demand of stages [t, k).  G(v, k) is the
    probability-weighted cost of v's subtree.  v either holds — allowed
    when k > t or its net demand is zero — and hands its children the
    state max(k, t+1), or generates up to some k' > k, paying
    p_v·(Cp_v + C+f·Φ·(Cum[k'] − Cum[k])), and hands them k'.  Both add
    the holding cost p_v·h_t·(Cum[k''] − Cum[t+1]) of the state k'' passed
    down.  Generating is separable in k', so one suffix-minimum pass
    prices every state of v in O(T).

    The policy is rebuilt top-down, β against the original demand (which
    re-absorbs ε), and ``expected_cost`` is objective (13) of that policy.

    Exact when every vertex price is nonnegative.  A negative price makes
    renting with α = 0 pay, which no production-path policy does: the plan
    for such a tree is feasible but may cost more than the optimum.
    """
    tree = instance.tree
    nodes = tree.nodes
    T = instance.horizon
    c = instance.costs
    cum = [0.0]
    for d in net_demand(instance.demand, instance.initial_storage).tolist():
        cum.append(cum[-1] + d)
    unit = (c.transfer_in * instance.phi).tolist()
    holding = c.holding.tolist()
    n = len(nodes)
    order = sorted(range(n), key=lambda v: nodes[v].depth)

    # Per vertex, indexed by k - depth: G(v, k), the state handed to the
    # children, and whether v generates.
    value: list = [None] * n
    handed: list = [None] * n
    generates: list = [None] * n
    for v in reversed(order):
        node = nodes[v]
        t, p = node.depth, node.abs_prob
        # leave[j]: cost of leaving v with state t+1+j — holding plus the
        # children's subtrees (a child of depth t+1 is indexed the same way).
        ph, base = p * holding[t], cum[t + 1]
        leave = [ph * (cum[k] - base) for k in range(t + 1, T + 1)]
        for child in node.children:
            for j, g in enumerate(value[child]):
                leave[j] += g
        pu, setup = p * unit[t], p * node.price
        hold_free = cum[t + 1] - cum[t] <= _EPS
        G = [0.0] * (T - t + 1)
        K = [T] * (T - t + 1)
        X = [False] * (T - t + 1)
        G[T - t] = leave[T - t - 1]
        best, best_k = float("inf"), T
        for k in range(T - 1, t - 1, -1):
            j = k - t
            # suffix minimum of pu·Cum[k'] + leave(k') over k' > k; on a
            # tie the smaller k' wins
            candidate = pu * cum[k + 1] + leave[j]
            if candidate <= best:
                best, best_k = candidate, k + 1
            produce = setup + best - pu * cum[k]
            hold = leave[max(j - 1, 0)] if k > t or hold_free else float("inf")
            if produce < hold:
                G[j], K[j], X[j] = produce, best_k, True
            else:
                G[j], K[j] = hold, max(k, t + 1)
        value[v], handed[v], generates[v] = G, K, X

    demand = instance.demand.tolist()
    tout = c.transfer_out.tolist()
    alpha = [0.0] * n
    beta = [0.0] * n
    chi = [0.0] * n
    state = [node.depth for node in nodes]
    expected = 0.0
    for v in order:
        node = nodes[v]
        t = node.depth
        j = state[v] - t
        k = handed[v][j]
        if generates[v][j]:
            alpha[v] = cum[k] - cum[state[v]]
            chi[v] = 1.0
        prev = instance.initial_storage if node.parent < 0 else beta[node.parent]
        beta[v] = max(prev + alpha[v] - demand[t], 0.0)
        for child in node.children:
            state[child] = k
        expected += node.abs_prob * (
            unit[t] * alpha[v] + holding[t] * beta[v] + node.price * chi[v] + tout[t] * demand[t]
        )
    return SRRPPlan(
        alpha=np.array(alpha),
        beta=np.array(beta),
        chi=np.array(chi),
        expected_cost=expected,
        status=SolverStatus.OPTIMAL,
        tree=tree,
        vm_name=instance.vm_name,
        extra={"scheme": "tree-dp", "tree_size": n},
    )


def run_exact_dp(dp, instance, method: str, where: str, listener=None, deadline=None,
                 time_limit=None):
    """``dp(instance)`` under the contract of a MILP solve on ``auto``.

    Emits the events a MILP solve would (``solve_start``, one phase named
    after ``method``, ``solve_end``), so counters and traces see it as one
    solve, and records ``nodes=0``, ``iterations=0`` and ``wall_time`` in
    the plan's ``extra``.  A budget already spent on entry gives the same
    :func:`time_limit_fallback` plan the MILP paths return when their
    deadline expires before any incumbent; ``where`` names the entry point
    in that case's ``deadline_exceeded`` event.  A :class:`DRRPInfeasible`
    instance ends as an infeasible MILP does: ``solve_end`` with status
    ``infeasible``, then the exception.
    """
    telemetry = Telemetry.from_listener(listener)
    deadline = Deadline.from_budget(deadline, time_limit)
    expired = deadline is not None and deadline.expired()
    if telemetry:
        solve_t0 = telemetry.now()
        telemetry.emit(
            "solve_start",
            backend="auto",
            method=method,
            horizon=instance.horizon,
            budget=deadline.remaining() if deadline is not None else None,
        )
        if expired:
            telemetry.emit("deadline_exceeded", where=where)

    def end(status: SolverStatus, objective) -> None:
        if telemetry:
            telemetry.emit(
                "solve_end",
                status=status.value,
                objective=objective,
                nodes=0,
                iterations=0,
                duration=telemetry.now() - solve_t0,
            )

    try:
        with telemetry.phase(method.replace("-", "_")) if telemetry else nullcontext():
            start = time.perf_counter()
            plan = dp(instance)
            wall = time.perf_counter() - start
    except DRRPInfeasible:
        end(SolverStatus.INFEASIBLE, None)
        raise
    if expired:
        plan = time_limit_fallback(plan, method)
    else:
        plan.extra.update(nodes=0, iterations=0, wall_time=wall)
    end(plan.status, plan.objective)
    return plan


def time_limit_fallback(plan, method: str):
    """Mark a DP plan as the answer of a solve whose budget ran out before
    it found any incumbent."""
    plan.status = SolverStatus.TIME_LIMIT
    plan.extra["fallback"] = method
    plan.extra["solver_status"] = SolverStatus.TIME_LIMIT.value
    return plan
