"""Facility-location (extended) reformulation of DRRP.

The natural DRRP formulation (eqs. 1–7) has a weak LP relaxation: the
forcing constraint α_t ≤ B·χ_t lets the relaxation rent fractional slivers
of instances, so branch-and-bound on it explores thousands of nodes at
paper scale.  The classical fix for uncapacitated lot-sizing is the
*facility location* reformulation (Krarup & Bilde 1977): disaggregate
generation by destination slot,

    x[t, u] = data generated in slot t to serve demand of slot u ≥ t,

    min  Σ_t Cp(t)·χ_t + Σ_{t≤u} c[t, u]·x[t, u] + Σ_u C−f(u)·D(u)
    s.t. Σ_{t≤u} x[t, u] = D'(u)        for all u   (demand coverage)
         x[t, u] ≤ D'(u)·χ_t            for all t≤u (disaggregated forcing)
         x ≥ 0, χ ∈ {0,1}

with c[t, u] = C+f(t)·Φ + Σ_{v=t}^{u-1} (Cs+Cio)(v) the full unit cost of
serving u from t, and D' the ε-netted demands.  Its LP relaxation is
integral on uncapacitated instances — the MILP solves at the root node —
at the price of O(T²) variables.

This module provides the reformulated solve (exact same optimum and cost
decomposition as :func:`repro.core.drrp.solve_drrp`; property-tested), and
the ablation benchmark quantifies the node-count collapse.
"""

from __future__ import annotations

import numpy as np

from repro.solver import Model, lin_sum, solve
from .drrp import DRRPInstance, RentalPlan

__all__ = ["build_facility_location_model", "solve_drrp_facility_location"]


def build_facility_location_model(instance: DRRPInstance):
    """Construct the facility-location MILP; returns (model, x_vars, chi_vars).

    ``x_vars`` is a dict keyed by (t, u) for u ≥ t with D'(u) > 0.

    Raises
    ------
    ValueError
        For capacitated instances — the reformulation (like Wagner–Whitin)
        relies on uncapacitated generation.
    """
    if instance.bottleneck_rate is not None:
        raise ValueError("facility-location reformulation is for uncapacitated DRRP")
    T = instance.horizon
    c = instance.costs
    demand = instance.net_demand
    holding = c.holding
    hold_prefix = np.concatenate([[0.0], np.cumsum(holding)])
    unit_gen = c.transfer_in * instance.phi

    m = Model(f"drrp-fl[{instance.vm_name}]")
    chi = m.add_vars(T, "chi", vtype="binary")
    x: dict[tuple[int, int], object] = {}
    positive = [u for u in range(T) if demand[u] > 1e-15]
    for u in positive:
        for t in range(u + 1):
            x[t, u] = m.add_var(f"x[{t},{u}]", lb=0.0, ub=float(demand[u]))

    for u in positive:
        m.add_constr(
            lin_sum(x[t, u] for t in range(u + 1)) == float(demand[u]),
            name=f"cover[{u}]",
        )
    for (t, u), var in x.items():
        m.add_constr(var <= float(demand[u]) * chi[t], name=f"force[{t},{u}]")

    objective = lin_sum(
        float(c.compute[t]) * chi[t] for t in range(T)
    ) + lin_sum(
        float(unit_gen[t] + (hold_prefix[u] - hold_prefix[t])) * var
        for (t, u), var in x.items()
    )
    # constant terms: transfer-out on the raw demand, holding on the ε part
    objective = objective + float(c.transfer_out @ instance.demand) + instance.eps_holding_cost
    m.set_objective(objective)
    return m, x, chi


def solve_drrp_facility_location(instance: DRRPInstance, backend: str = "auto") -> RentalPlan:
    """Solve DRRP through the extended formulation; returns a standard plan.

    The returned :class:`RentalPlan` is expressed in the original (α, β, χ)
    variables, with the same cost decomposition as :func:`solve_drrp`.
    """
    model, x, chi_vars = build_facility_location_model(instance)
    res = solve(model, backend=backend)
    if not res.status.has_solution:
        raise RuntimeError(f"facility-location solve failed: {res.status.value}")
    T = instance.horizon
    alpha = np.zeros(T)
    for (t, _u), var in x.items():
        alpha[t] += res.value_of(var)
    chi = np.round(np.array([res.value_of(v) for v in chi_vars]))
    # zero out numerically-open but unused rentals
    for t in range(T):
        if alpha[t] <= 1e-9 and chi[t] > 0.5:
            chi[t] = 0.0
    return RentalPlan.priced(
        instance,
        alpha,
        instance.inventory(alpha),
        chi,
        status=res.status,
        extra={"scheme": "facility-location", "nodes": res.nodes, "iterations": res.iterations},
    )
