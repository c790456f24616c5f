"""Classic stochastic-programming value metrics for SRRP.

Quantifies *why* the stochastic model is worth its complexity — the
textbook companions to the paper's empirical Figure 12(a):

* **WS** (wait-and-see): expected cost if the planner could observe each
  scenario's prices before deciding — solve DRRP per scenario, take the
  probability-weighted mean.  This is the in-model analogue of the paper's
  "ideal case cost".
* **SP**: the SRRP optimum itself (here-and-now under uncertainty).
* **EEV**: expected cost of the *expected-value policy* — solve DRRP at
  the per-stage mean prices, then force SRRP to follow that plan's
  decisions wherever they are price-independent (we fix the rental pattern
  per stage, the strongest deterministic commitment the tree admits).

Then ``EVPI = SP - WS ≥ 0`` (value of perfect information) and
``VSS = EEV - SP ≥ 0`` (value of the stochastic solution).  Both
inequalities are verified by property tests; ``EVPI``/``VSS`` are reported
by the extension experiment ``ext_value.run()``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .drrp import DRRPInstance, solve_drrp
from .srrp import SRRPInstance, build_srrp_model, solve_srrp

__all__ = ["StochasticValueReport", "evaluate_stochastic_value"]


@dataclass(frozen=True)
class StochasticValueReport:
    """WS ≤ SP ≤ EEV, and the derived EVPI/VSS."""

    wait_and_see: float
    stochastic: float
    expected_value_policy: float

    @property
    def evpi(self) -> float:
        """What perfect price forecasts would be worth."""
        return self.stochastic - self.wait_and_see

    @property
    def vss(self) -> float:
        """What modeling the uncertainty (vs planning at the mean) is worth."""
        return self.expected_value_policy - self.stochastic

    def check_invariants(self, tol: float = 1e-6) -> None:
        if not (
            self.wait_and_see <= self.stochastic + tol
            and self.stochastic <= self.expected_value_policy + tol
        ):
            raise AssertionError(
                f"WS <= SP <= EEV violated: {self.wait_and_see}, "
                f"{self.stochastic}, {self.expected_value_policy}"
            )


def _stage_mean_prices(instance: SRRPInstance) -> np.ndarray:
    """Probability-weighted mean price per stage of the tree."""
    T = instance.horizon
    means = np.zeros(T)
    for node in instance.tree.nodes:
        means[node.depth] += node.abs_prob * node.price
    return means


def _wait_and_see(instance: SRRPInstance, backend: str) -> float:
    prices, probs = instance.tree.scenario_prices()
    total = 0.0
    for s in range(prices.shape[0]):
        det = DRRPInstance(
            demand=instance.demand,
            costs=instance.costs.with_compute(prices[s]),
            phi=instance.phi,
            initial_storage=instance.initial_storage,
            vm_name=instance.vm_name,
        )
        total += probs[s] * solve_drrp(det, backend=backend).total_cost
    return float(total)


def _expected_value_policy(instance: SRRPInstance, backend: str) -> float:
    """EEV: fix each stage's rental decision to the mean-price DRRP plan."""
    means = _stage_mean_prices(instance)
    ev_inst = DRRPInstance(
        demand=instance.demand,
        costs=instance.costs.with_compute(means),
        phi=instance.phi,
        initial_storage=instance.initial_storage,
        vm_name=instance.vm_name,
    )
    ev_plan = solve_drrp(ev_inst, backend=backend)

    from repro.solver import solve

    model, vars_ = build_srrp_model(instance)
    # Commit the EV plan's stage decisions at every vertex of that stage:
    # rental on/off and the amount generated (the EV planner cannot react
    # to prices it refuses to model).
    for node in instance.tree.nodes:
        t = node.depth
        model.add_constr(
            vars_["chi"][node.index] == float(ev_plan.chi[t]),
            name=f"ev_chi[{node.index}]",
        )
        model.add_constr(
            vars_["alpha"][node.index] == float(ev_plan.alpha[t]),
            name=f"ev_alpha[{node.index}]",
        )
    res = solve(model, backend=backend)
    if not res.status.has_solution:
        raise RuntimeError(f"EEV evaluation failed: {res.status.value}")
    return float(res.objective)


def evaluate_stochastic_value(
    instance: SRRPInstance, backend: str = "auto"
) -> StochasticValueReport:
    """Compute WS / SP / EEV (and thus EVPI, VSS) for one SRRP instance."""
    sp = solve_srrp(instance, backend=backend).expected_cost
    ws = _wait_and_see(instance, backend)
    eev = _expected_value_policy(instance, backend)
    report = StochasticValueReport(
        wait_and_see=ws, stochastic=sp, expected_value_policy=eev
    )
    report.check_invariants()
    return report
