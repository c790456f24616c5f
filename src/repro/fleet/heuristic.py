"""Heuristic tier: greedy lot-sizing + local search with a WW escalation rule.

The fleet cannot afford a MILP per tenant.  This module plans one tenant
in polynomial time:

1. **Greedy construction** walks the horizon once.  At each slot with
   positive net demand it either serves from the cheapest already-open
   setup or opens a new one, whichever is cheaper for that slot's demand
   — the classic lot-sizing greedy (cf. Silver–Meal), extended with an
   availability mask so repair re-solves (slots knocked out by the pool
   trimmer) stay heuristic.
2. **Local search** improves the setup *set* by first-improvement
   add/remove moves.  Given a setup set, the cheapest assignment of each
   demand unit to an open setup is computed exactly by a left-to-right
   running minimum of ``transfer_in*phi - cumulative_holding`` (setups
   are uncapacitated), so every candidate set is evaluated at its true
   cost and unused setups prune themselves.
3. **Exact accounting**: every float is a dyadic rational, so the
   returned plan's cost decomposition is computed as integer sums over
   power-of-two denominators and the objective is one exact
   :class:`fractions.Fraction`.  Fleet totals are order-independent and
   the differential guarantee *heuristic cost >= MILP optimum* holds
   exactly, not just to a tolerance.  The search itself runs on plain
   Python floats (the same IEEE arithmetic as numpy scalars, without
   their per-operation overhead).

**Escalation rule.**  :func:`solve_wagner_whitin` is the exact optimum of
the uncapacitated single-tenant problem, computable in O(T^2) — a valid
lower bound even when slots were knocked out (removing slots only raises
the optimum).  ``gap = (heuristic - WW) / WW`` therefore *overestimates*
the heuristic's true optimality gap, and a tenant is routed to the DRRP
MILP only when this certificate exceeds its SLA tolerance: exactly the
"route only the worth-it tenants" rule the fleet planner needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from repro.core.drrp import DRRPInstance, RentalPlan
from repro.core.lotsizing import solve_wagner_whitin
from repro.solver import SolverStatus

__all__ = ["HeuristicInfeasible", "HeuristicResult", "solve_heuristic"]

_TINY = 1e-12


class HeuristicInfeasible(RuntimeError):
    """No feasible plan within the availability mask (caller should MILP)."""


@dataclass(frozen=True)
class HeuristicResult:
    """A heuristic plan plus its escalation certificate."""

    plan: RentalPlan
    objective: float
    exact_objective: Fraction
    lower_bound: float
    gap: float
    rounds: int


def _availability(instance: DRRPInstance) -> np.ndarray:
    """Slots where a setup may be opened.

    Zero bottleneck capacity means the slot is knocked out (the pool
    repair encoding, mirroring ``apply_interruptions``); other capacities
    are left to the final validation — a partial cap the plan violates
    raises :class:`HeuristicInfeasible` and the planner escalates.
    """
    if instance.bottleneck_rate is None:
        return np.ones(instance.horizon, dtype=bool)
    return np.asarray(instance.bottleneck_capacity, dtype=float) > 0.0


def _dyadic(values) -> tuple[list[int], int]:
    """Integers ``n`` and an exponent ``k`` with ``values[i] == n[i] / 2**k``.

    Every finite float is a dyadic rational, so one power-of-two
    denominator holds a whole series exactly and sums and products of
    series reduce to integer arithmetic.
    """
    ratios = [float(v).as_integer_ratio() for v in values]
    k = max((den.bit_length() - 1 for _, den in ratios), default=0)
    return [num << (k - den.bit_length() + 1) for num, den in ratios], k


def _net_demand(demand: list[int], storage: int) -> list[int]:
    """Demand left after the initial storage serves the earliest slots.

    Integers over the demand denominator, computed once; the float view
    handed to the search is the correctly rounded quotient, so "has net
    demand" means the same thing in the search and in the exact
    accounting (a nonzero dyadic rational never rounds to 0.0).
    """
    net = list(demand)
    remaining = storage
    for t in range(len(net)):
        if remaining <= 0:
            break
        used = min(remaining, net[t])
        net[t] -= used
        remaining -= used
    return net


def _float_sum(values: list[float]) -> float:
    """``float(np.sum(values))`` without the array: numpy's pairwise sum
    (eight interleaved accumulators per block of at most 128, halving
    above that), reproduced operation for operation."""
    n = len(values)
    if n < 8:
        total = 0.0
        for v in values:
            total += v
        return total
    if n <= 128:
        acc = values[:8]
        end = n - n % 8
        for i in range(8, end, 8):
            acc = [a + v for a, v in zip(acc, values[i : i + 8])]
        total = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
        for v in values[end:]:
            total += v
        return total
    half = n // 2
    half -= half % 8
    return _float_sum(values[:half]) + _float_sum(values[half:])


def _evaluate(
    setups: list[int],
    demand: list[tuple[int, float, float]],
    unit_src: list[float],
    setup_cost: list[float],
) -> tuple[float, list[int]] | None:
    """Cost of the optimal assignment given a sorted setup set.

    ``demand`` lists ``(u, cum_h[u], net[u])`` for the slots with positive
    net demand and ``unit_src[a] = transfer_in[a]*phi - cum_h[a]``, so the
    unit cost of producing at ``a`` for slot ``u`` is ``unit_src[a] +
    cum_h[u]``; the cheapest open source is a running prefix minimum.
    Returns ``(cost, used)``, or ``None`` when some demand has no open
    setup at or before it.  ``used`` holds the setups that serve some
    demand, in slot order; the running minimum only ever moves to a later
    setup, so each demand slot is served by the latest used setup at or
    before it.  Unused setups contribute no cost (they are pruned from
    the final plan).
    """
    best_val = math.inf
    best_slot = -1
    j = 0
    n = len(setups)
    cost = 0.0
    used: list[int] = []
    for u, h, q in demand:
        while j < n and setups[j] <= u:
            a = setups[j]
            if unit_src[a] < best_val:
                best_val, best_slot = unit_src[a], a
            j += 1
        if best_slot < 0:
            return None
        cost += (best_val + h) * q
        if not used or used[-1] != best_slot:
            used.append(best_slot)
    return cost + _float_sum([setup_cost[a] for a in used]), used


def _greedy(
    demand: list[tuple[int, float, float]],
    avail: list[bool],
    unit_src: list[float],
    setup_cost: list[float],
) -> list[int]:
    """One left-to-right pass: extend the cheapest open lot or open a new one."""
    setups: list[int] = []
    opened = [False] * len(avail)
    best_val = math.inf
    best_slot = -1
    for u, h, q in demand:
        extend = (best_val + h) * q if best_slot >= 0 else math.inf
        cand_slot, cand_cost = -1, math.inf
        for a in range(u + 1):
            if not avail[a] or opened[a]:
                continue
            c = setup_cost[a] + (unit_src[a] + h) * q
            if c < cand_cost:
                cand_slot, cand_cost = a, c
        if cand_slot < 0 and best_slot < 0:
            raise HeuristicInfeasible(
                f"demand at slot {u} has no available setup slot at or before it"
            )
        if cand_cost < extend:
            setups.append(cand_slot)
            opened[cand_slot] = True
            if unit_src[cand_slot] < best_val:
                best_val, best_slot = unit_src[cand_slot], cand_slot
    return sorted(setups)


def _local_search(
    setups: list[int],
    demand: list[tuple[int, float, float]],
    avail: list[bool],
    unit_src: list[float],
    setup_cost: list[float],
    max_rounds: int,
) -> tuple[list[int], int]:
    """First-improvement add/remove moves on the setup set until a local
    optimum (or the round budget).  Shifts emerge as add-then-remove
    across consecutive rounds."""
    evaluated = _evaluate(setups, demand, unit_src, setup_cost)
    if evaluated is None:
        raise HeuristicInfeasible("greedy produced an infeasible setup set")
    cost = evaluated[0]
    T = len(avail)
    rounds = 0
    improved = True
    while improved and rounds < max_rounds:
        improved = False
        rounds += 1
        for a in list(setups):
            trial = [s for s in setups if s != a]
            res = _evaluate(trial, demand, unit_src, setup_cost)
            if res is not None and res[0] < cost - _TINY:
                setups, cost, improved = trial, res[0], True
        open_set = set(setups)
        for b in range(T):
            if not avail[b] or b in open_set:
                continue
            trial = sorted(setups + [b])
            res = _evaluate(trial, demand, unit_src, setup_cost)
            if res is not None and res[0] < cost - _TINY:
                setups, cost, improved = trial, res[0], True
                open_set = set(setups)
        # Shift moves: slide one setup a few slots.  Add/remove alone get
        # stuck when a setup is merely misplaced (dropping it is too
        # expensive, keeping it blocks the better neighbor).
        for a in list(setups):
            for b in range(max(0, a - 2), min(T, a + 3)):
                if b == a or not avail[b] or b in open_set:
                    continue
                trial = sorted([s for s in setups if s != a] + [b])
                res = _evaluate(trial, demand, unit_src, setup_cost)
                if res is not None and res[0] < cost - _TINY:
                    setups, cost, improved = trial, res[0], True
                    open_set = set(setups)
                    break
    return setups, rounds


def _exact_plan(
    instance: DRRPInstance,
    demand: list[int],
    storage: int,
    qk: int,
    net: list[int],
    used: list[int],
    rounds: int,
) -> tuple[RentalPlan, Fraction]:
    """Rebuild the chosen plan exactly, in integers over powers of two.

    Quantities (``demand``, ``storage``, ``net``) arrive over ``2**qk``;
    each slot's net demand is served by the latest setup of ``used`` at
    or before it (see :func:`_evaluate`).  Prices are put over their own
    power of two here, so each cost component is one integer sum over a
    known denominator and the objective is a single
    :class:`~fractions.Fraction`.
    """
    T = instance.horizon
    c = instance.costs
    (phi,), fk = _dyadic([instance.phi])
    prices, pk = _dyadic(
        np.concatenate([c.holding, c.compute, c.transfer_in, c.transfer_out]).tolist()
    )
    holding, setup = prices[:T], prices[T : 2 * T]
    tin, tout = prices[2 * T : 3 * T], prices[3 * T :]

    alpha = [0] * T
    k = 0
    for u, q in enumerate(net):
        if q > 0:
            while k + 1 < len(used) and used[k + 1] <= u:
                k += 1
            alpha[used[k]] += q
    beta = []
    prev = storage
    for t in range(T):
        prev += alpha[t] - demand[t]
        beta.append(prev)

    chi = [1.0 if a > 0 else 0.0 for a in alpha]
    compute_num = sum(setup[t] for t in range(T) if alpha[t] > 0)
    inventory_num = sum(h * b for h, b in zip(holding, beta))
    tin_num = phi * sum(p * a for p, a in zip(tin, alpha))
    tout_num = sum(p * d for p, d in zip(tout, demand))
    # compute over 2**pk; inventory and transfer-out over 2**(pk+qk);
    # transfer-in over 2**(pk+fk+qk).
    objective = Fraction(
        (((compute_num << qk) + inventory_num + tout_num) << fk) + tin_num,
        1 << (pk + fk + qk),
    )
    quantity = 1 << qk
    price = 1 << pk
    plan = RentalPlan(
        alpha=np.array([a / quantity for a in alpha]),
        beta=np.array([b / quantity for b in beta]),
        chi=np.array(chi),
        compute_cost=compute_num / price,
        inventory_cost=inventory_num / (price << qk),
        transfer_in_cost=tin_num / (price << (fk + qk)),
        transfer_out_cost=tout_num / (price << qk),
        objective=float(objective),
        status=SolverStatus.FEASIBLE,
        vm_name=instance.vm_name,
        extra={
            "scheme": "fleet-heuristic",
            "exact_objective": str(objective),
            "search_rounds": rounds,
        },
    )
    return plan, objective


def solve_heuristic(
    instance: DRRPInstance, max_rounds: int = 40, tol: float = 1e-6
) -> HeuristicResult:
    """Plan one tenant heuristically and certify the result against the
    Wagner–Whitin lower bound of its uncapacitated relaxation."""
    avail = _availability(instance).tolist()
    quantities, qk = _dyadic(
        instance.demand.tolist() + [float(instance.initial_storage)]
    )
    demand_exact, storage_exact = quantities[:-1], quantities[-1]
    net_exact = _net_demand(demand_exact, storage_exact)
    slots = [u for u, q in enumerate(net_exact) if q > 0]
    if slots and not any(avail[: slots[0] + 1]):
        raise HeuristicInfeasible(
            f"first net demand at slot {slots[0]} precedes every available slot"
        )

    c = instance.costs
    unit_src = np.asarray(c.transfer_in, dtype=float) * float(instance.phi)
    cum_h = np.concatenate([[0.0], np.cumsum(np.asarray(c.holding, dtype=float))])[:-1]
    # unit cost of (produce at a, consume at u) = unit_src[a] - cum_h[a] + cum_h[u]
    unit_src = (unit_src - cum_h).tolist()
    setup_cost = np.asarray(c.compute, dtype=float).tolist()
    cum_h = cum_h.tolist()
    quantity = 1 << qk
    demand = [(u, cum_h[u], net_exact[u] / quantity) for u in slots]

    setups = _greedy(demand, avail, unit_src, setup_cost)
    setups, rounds = _local_search(
        setups, demand, avail, unit_src, setup_cost, max_rounds
    )
    evaluated = _evaluate(setups, demand, unit_src, setup_cost)
    if evaluated is None:
        raise HeuristicInfeasible("local search lost feasibility")
    plan, exact_objective = _exact_plan(
        instance, demand_exact, storage_exact, qk, net_exact, evaluated[1], rounds
    )
    try:
        plan.validate(instance, tol=tol)
    except AssertionError as exc:
        raise HeuristicInfeasible(str(exc)) from exc
    if instance.bottleneck_rate is not None:
        lhs = float(instance.bottleneck_rate) * plan.alpha
        if np.any(lhs > np.asarray(instance.bottleneck_capacity, dtype=float) + tol):
            raise HeuristicInfeasible("plan violates a finite bottleneck capacity")

    relaxed = (
        instance
        if instance.bottleneck_rate is None
        else replace(instance, bottleneck_rate=None, bottleneck_capacity=None)
    )
    ww = solve_wagner_whitin(relaxed)
    lower = float(ww.objective)
    gap = (float(exact_objective) - lower) / max(abs(lower), 1e-9)
    return HeuristicResult(
        plan=plan,
        objective=float(exact_objective),
        exact_objective=exact_objective,
        lower_bound=lower,
        gap=max(gap, 0.0),
        rounds=rounds,
    )
