"""Wagner–Whitin dynamic program for the uncapacitated lot-sizing core.

The paper observes that DRRP "is consistent with the dynamic lot-sizing
problem".  With the bottleneck constraint omitted (as in §V-A) and linear
costs, DRRP *is* uncapacitated single-item lot-sizing, for which the
Wagner–Whitin zero-inventory-ordering property holds: some optimal plan
generates data only when (net) incoming inventory is zero, each generation
covering a contiguous run of future demand.

Initial inventory ε is handled by the standard netting transformation:
greedy consumption of ε against the earliest demand is optimal (holding
costs are nonnegative), splits total inventory into a constant ε part and
the produced part, and leaves a zero-initial-inventory problem on the *net*
demands — over which production may still occur in **any** slot, including
slots whose own net demand is zero (producing early at a cheap setup can
beat producing at the first uncovered slot; the MILP cross-check property
test pins this case down).

That yields an exact O(T²) DP — used both as an independent oracle for the
MILP (they must agree to numerical tolerance on every instance) and as a
fast solver path for long deterministic horizons.
"""

from __future__ import annotations

import numpy as np

from repro.solver import SolverStatus
from .drrp import DRRPInstance, RentalPlan

__all__ = ["solve_wagner_whitin"]

_EPS = 1e-12


def solve_wagner_whitin(instance: DRRPInstance) -> RentalPlan:
    """Exact DP solution of an uncapacitated DRRP instance.

    Raises
    ------
    ValueError
        If the instance has a bottleneck constraint (the zero-inventory
        property needs uncapacitated generation — use the MILP instead).
    """
    if instance.bottleneck_rate is not None:
        raise ValueError("Wagner-Whitin applies to uncapacitated instances only")

    T = instance.horizon
    c = instance.costs
    holding = c.holding
    phi = instance.phi
    unit_gen = c.transfer_in * phi
    setup = c.compute

    # Net demands after ε is consumed greedily from the front.
    demand = instance.demand.astype(float).copy()
    carry = instance.initial_storage
    for t in range(T):
        if carry <= _EPS:
            break
        used = min(carry, demand[t])
        demand[t] -= used
        carry -= used

    cum = np.concatenate([[0.0], np.cumsum(demand)])
    hold_prefix = np.concatenate([[0.0], np.cumsum(holding)])

    INF = float("inf")
    best = [INF] * (T + 1)   # best[j]: min cost serving net demand of [0, j)
    choice = [-1] * (T + 1)  # production slot, or -2 for "skip"
    best[0] = 0.0
    # hold[t]: holding cost of producing at t for the net demand of [t, j];
    # each unit consumed in slot u sits in inventory ends t..u-1, so moving
    # from j-1 to j adds demand[j] * (hold_prefix[j] - hold_prefix[t]).
    hold = np.zeros(T)

    for j in range(T):
        # Skip transition: slot j has no net demand, extend the plan for [0, j).
        if demand[j] <= _EPS and best[j] < best[j + 1]:
            best[j + 1] = best[j]
            choice[j + 1] = -2
        # Produce at any slot t <= j, covering net demand of [t, j].
        hold[: j + 1] += demand[j] * (hold_prefix[j] - hold_prefix[: j + 1])
        qty = cum[j + 1] - cum[: j + 1]
        cand = np.asarray(best[: j + 1]) + setup[: j + 1] + unit_gen[: j + 1] * qty + hold[: j + 1]
        cand[qty <= _EPS] = INF
        # Scan in slot order so the earliest of (near-)equal candidates wins.
        cur, pick = best[j + 1], choice[j + 1]
        for t, value in enumerate(cand.tolist()):
            if value < cur - 1e-15:
                cur, pick = value, t
        best[j + 1], choice[j + 1] = cur, pick

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
    beta = np.zeros(T)
    carry = instance.initial_storage
    for t in range(T):
        carry = max(carry + alpha[t] - instance.demand[t], 0.0)
        beta[t] = carry
    compute = float(setup @ chi)
    inventory = float(holding @ beta)
    tin = float(c.transfer_in @ (phi * alpha))
    tout = float(c.transfer_out @ instance.demand)
    return RentalPlan(
        alpha=alpha,
        beta=beta,
        chi=chi,
        compute_cost=compute,
        inventory_cost=inventory,
        transfer_in_cost=tin,
        transfer_out_cost=tout,
        objective=compute + inventory + tin + tout,
        status=SolverStatus.OPTIMAL,
        vm_name=instance.vm_name,
        extra={"scheme": "wagner-whitin"},
    )
