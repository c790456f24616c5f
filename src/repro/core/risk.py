"""Risk-averse SRRP: mean-CVaR optimization over the scenario tree.

The paper's SRRP minimizes *expected* cost (eq. 13); an ASP with a budget
to defend may also care about the tail.  This module adds the standard
Rockafellar–Uryasev linearization of Conditional Value-at-Risk:

    min  (1-λ)·E[cost] + λ·CVaR_α[cost]
    CVaR_α = η + 1/(1-α) Σ_s p_s z_s,   z_s ≥ cost_s - η,  z ≥ 0

where ``cost_s`` is the (linear) cost along scenario s's root-leaf path.
λ = 0 recovers the paper's SRRP exactly (property-tested); λ = 1 optimizes
pure CVaR.  Because scenario costs are linear in the tree-indexed recourse
variables, the extension stays a MILP of the same class: the η, z and
CVaR rows are added on top of :func:`~repro.core.srrp.build_srrp_model`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.solver import SolverStatus, lin_sum, solve
from .drrp import read_decisions
from .srrp import SRRPInstance, build_srrp_model

__all__ = ["RiskAverseSRRPPlan", "solve_srrp_cvar"]


@dataclass
class RiskAverseSRRPPlan:
    """Solution of the mean-CVaR model.

    ``scenario_costs`` are the realized path costs under the optimal policy
    (probability-weighted mean equals ``expected_cost``); ``cvar`` is the
    optimized tail statistic and ``var`` the optimal η (the α-quantile
    threshold).
    """

    alpha: np.ndarray
    beta: np.ndarray
    chi: np.ndarray
    expected_cost: float
    cvar: float
    var: float
    objective: float
    risk_weight: float
    confidence: float
    scenario_costs: np.ndarray
    scenario_probs: np.ndarray
    status: SolverStatus
    extra: dict = field(default_factory=dict)

    @property
    def first_chi(self) -> bool:
        return bool(self.chi[0] > 0.5)

    @property
    def first_alpha(self) -> float:
        return float(self.alpha[0])

    def cost_std(self) -> float:
        mu = float(self.scenario_probs @ self.scenario_costs)
        var = float(self.scenario_probs @ (self.scenario_costs - mu) ** 2)
        return float(np.sqrt(max(var, 0.0)))


def solve_srrp_cvar(
    instance: SRRPInstance,
    risk_weight: float = 0.5,
    confidence: float = 0.9,
    backend: str = "auto",
) -> RiskAverseSRRPPlan:
    """Solve the mean-CVaR deterministic equivalent.

    Parameters
    ----------
    risk_weight:
        λ ∈ [0, 1]: 0 = paper's risk-neutral SRRP, 1 = pure CVaR.
    confidence:
        α ∈ (0, 1): tail level of the CVaR (0.9 = worst 10 % of scenarios).
    """
    if not 0.0 <= risk_weight <= 1.0:
        raise ValueError("risk_weight must be in [0, 1]")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")

    model, vars_ = build_srrp_model(instance)
    tree = instance.tree
    tout = instance.costs.transfer_out
    demand = instance.node_demand
    leaves = tree.leaves()
    probs = np.array([leaf.abs_prob for leaf in leaves])

    # per-scenario linear cost expressions: the vertex costs along the path
    # plus that path's transfer-out
    scenario_exprs = []
    for leaf in leaves:
        path = tree.path(leaf.index)
        scenario_exprs.append(
            lin_sum(vars_["cost"][nd.index] for nd in path)
            + float(sum(tout[nd.depth] * demand[nd.index] for nd in path))
        )

    eta = model.add_var("eta", lb=-1e6)
    z = model.add_vars(len(leaves), "z")
    for s, expr in enumerate(scenario_exprs):
        model.add_constr(z[s] >= expr - eta, name=f"cvar[{s}]")
    cvar_expr = eta + (1.0 / (1.0 - confidence)) * lin_sum(
        float(p) * z[s] for s, p in enumerate(probs)
    )

    # build_srrp_model's objective is the expected cost (13)
    model.set_objective((1.0 - risk_weight) * model.objective + risk_weight * cvar_expr)
    res = solve(model, backend=backend)
    if not res.status.has_solution:
        raise RuntimeError(f"mean-CVaR solve failed: {res.status.value}")

    alpha_v, beta_v, chi_v = read_decisions(res, vars_)
    values = dict(zip(vars_["alpha"], alpha_v))
    values.update(zip(vars_["beta"], beta_v))
    values.update(zip(vars_["chi"], chi_v))
    costs = np.array([expr.value(values) for expr in scenario_exprs])
    exp_cost = float(probs @ costs)
    eta_v = res.value_of(eta)
    cvar_v = eta_v + float(probs @ np.maximum(costs - eta_v, 0.0)) / (1.0 - confidence)
    return RiskAverseSRRPPlan(
        alpha=alpha_v, beta=beta_v, chi=chi_v,
        expected_cost=exp_cost, cvar=cvar_v, var=eta_v,
        objective=res.objective,
        risk_weight=risk_weight, confidence=confidence,
        scenario_costs=costs, scenario_probs=probs,
        status=res.status,
        extra={"nodes": res.nodes},
    )
