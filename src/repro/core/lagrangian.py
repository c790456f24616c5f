"""Lagrangian relaxation of DRRP's forcing constraints.

Dualizing α_t ≤ B_t·χ_t with multipliers μ ≥ 0 splits DRRP into two
trivially solvable pieces:

* a **rental subproblem** per slot — χ_t = 1 iff Cp(t) < μ_t·B_t
  (rent exactly when the subsidy for opening capacity beats the price);
* a **flow subproblem** — serve each demand from its cheapest source slot
  under the inflated unit cost (C+f·Φ + μ)_t plus holding, which a single
  forward pass computes in O(T) (running minimum of source costs).

``L(μ)`` lower-bounds the DRRP optimum for every μ ≥ 0; projected
subgradient ascent tightens it.  The B_t dualized here are
:attr:`DRRPInstance.forcing_bounds`, the same bounds
:func:`~repro.core.drrp.build_drrp_model` writes into its forcing rows.
Because *both* subproblems have the integrality property, the best
Lagrangian bound therefore equals the natural formulation's LP-relaxation
bound — strictly weaker than the facility-location relaxation (which is
integral).  The bound-comparison benchmark documents exactly that
hierarchy:

    LP(natural) == max_mu L(mu)  <=  LP(facility-location) == OPT

Useful in its own right as a solver-free bound (no LP solves at all) and
as a dual-guided heuristic: the final χ(μ) pattern seeds a feasible plan.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .drrp import DRRPInstance, RentalPlan

__all__ = ["LagrangianResult", "lagrangian_bound"]


@dataclass
class LagrangianResult:
    """Outcome of the subgradient ascent.

    ``best_bound`` is a valid lower bound on the DRRP optimum;
    ``heuristic_cost`` the cost of the feasible plan recovered from the
    final multipliers (an upper bound); ``trace`` the per-iteration bounds.
    """

    best_bound: float
    multipliers: np.ndarray
    heuristic_cost: float
    iterations: int
    trace: list[float] = field(default_factory=list)

    @property
    def gap(self) -> float:
        """Relative gap between the heuristic plan and the bound."""
        if self.best_bound <= 0:
            return float("inf")
        return (self.heuristic_cost - self.best_bound) / self.best_bound


def _evaluate(instance: DRRPInstance, mu: np.ndarray):
    """Solve both subproblems at μ; returns (L(μ), subgradient, χ(μ))."""
    c = instance.costs
    T = instance.horizon
    demand = instance.net_demand
    B = instance.forcing_bounds
    holding = c.holding
    hold_prefix = np.concatenate([[0.0], np.cumsum(holding)])

    # rental subproblem
    rent_score = c.compute - mu * B
    chi = (rent_score < 0).astype(float)
    rental_value = float(np.minimum(rent_score, 0.0).sum())

    # flow subproblem: cheapest source for each demand slot u is
    # argmin_{t<=u} (unit[t] - hold_prefix[t]) + hold_prefix[u]
    unit = c.transfer_in * instance.phi + mu
    keyed = unit - hold_prefix[:-1]
    best_key = np.minimum.accumulate(keyed)
    best_src = np.zeros(T, dtype=int)
    # recover argmins of the running minimum
    current = 0
    for t in range(T):
        if keyed[t] <= keyed[current]:
            current = t
        best_src[t] = current
    # cost of serving demand[u] from best source s(u):
    serve_cost = best_key + hold_prefix[:T]  # = unit[s] + (hold_prefix[u] - hold_prefix[s])
    flow_value = float(demand @ serve_cost)

    alpha = np.zeros(T)
    np.add.at(alpha, best_src, demand)

    const = float(c.transfer_out @ instance.demand) + instance.eps_holding_cost
    value = rental_value + flow_value + const
    subgradient = alpha - B * chi
    return value, subgradient, chi, alpha


def _heuristic_cost(instance: DRRPInstance, alpha: np.ndarray) -> float:
    """Cost of the feasible plan implied by a generation vector."""
    chi = (alpha > 1e-12).astype(float)
    return RentalPlan.priced(instance, alpha, instance.inventory(alpha), chi).objective


def lagrangian_bound(
    instance: DRRPInstance,
    iterations: int = 200,
    initial_step: float = 1.0,
    seed_multipliers: np.ndarray | None = None,
) -> LagrangianResult:
    """Maximize L(μ) by projected subgradient ascent (Polyak-style steps).

    Raises
    ------
    ValueError
        For capacitated instances (the flow subproblem ignores eq. (3)).
    """
    if instance.bottleneck_rate is not None:
        raise ValueError("Lagrangian relaxation implemented for uncapacitated DRRP")
    T = instance.horizon
    mu = np.zeros(T) if seed_multipliers is None else np.asarray(seed_multipliers, float).copy()
    if mu.shape != (T,):
        raise ValueError("seed multipliers must have length T")

    best_bound = -np.inf
    best_mu = mu.copy()
    trace: list[float] = []
    best_heuristic = np.inf

    # the heuristic plan gives a valid upper bound for Polyak steps, and
    # tightens as the ascent proceeds
    ub = _heuristic_cost(instance, instance.net_demand)
    scale = initial_step
    stall = 0

    for k in range(iterations):
        value, g, chi, alpha = _evaluate(instance, mu)
        trace.append(value)
        if value > best_bound + 1e-12:
            best_bound = value
            best_mu = mu.copy()
            stall = 0
        else:
            stall += 1
            if stall >= 10:
                scale *= 0.5  # classic halving schedule on stagnation
                stall = 0
        ub = min(ub, _heuristic_cost(instance, alpha))
        best_heuristic = min(best_heuristic, ub)
        norm2 = float(g @ g)
        if norm2 <= 1e-18 or scale < 1e-8:
            break  # dual-optimal or step exhausted
        step = scale * max(ub - value, 1e-9) / norm2
        mu = np.maximum(mu + step * g, 0.0)

    return LagrangianResult(
        best_bound=best_bound,
        multipliers=best_mu,
        heuristic_cost=best_heuristic,
        iterations=len(trace),
        trace=trace,
    )
