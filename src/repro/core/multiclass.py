"""Joint planning across VM classes (the paper's full Σ_{i∈I} objective).

The paper's DRRP objective sums over all classes ``i ∈ I`` but, absent any
coupling constraint, the problem separates and §V solves per class.  This
module provides both views:

* the **separable** path — per-class solves, summed (and a test asserts it
  equals the joint model, a nontrivial consistency check of the builder);
* a genuinely **coupled** model with the two couplings a real ASP faces:

  - a shared cloud-storage budget: Σ_i β_{i,t} ≤ S_max for every slot
    (one storage account backing all classes), and
  - an optional per-slot rental budget: Σ_i Cp(i,t)·χ_{i,t} ≤ B_t
    (spend caps set by finance).

Each class keeps its own demand stream, cost schedule, and Φ.  With the
scaling of §III-B (n instances each serving 1/n of demand), per-class
demand here is already per-instance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.solver import Model, SolverStatus, lin_sum, solve
from .drrp import DRRPInstance, RentalPlan, _drrp_rows, read_decisions, solve_drrp

__all__ = ["MultiClassInstance", "MultiClassPlan", "solve_multiclass"]


@dataclass(frozen=True)
class MultiClassInstance:
    """A set of per-class DRRP problems plus optional coupling constraints.

    Attributes
    ----------
    instances:
        One :class:`DRRPInstance` per class (equal horizons).
    storage_budget:
        Per-slot cap on total stored data across classes (GB); ``None``
        disables the coupling.
    rental_budget:
        Per-slot cap on total instantaneous rental spend ($/slot);
        ``None`` disables it.
    """

    instances: tuple[DRRPInstance, ...]
    storage_budget: float | None = None
    rental_budget: float | None = None

    def __post_init__(self) -> None:
        if not self.instances:
            raise ValueError("need at least one class instance")
        horizons = {inst.horizon for inst in self.instances}
        if len(horizons) != 1:
            raise ValueError(f"all classes must share one horizon, got {horizons}")
        if self.storage_budget is not None and self.storage_budget < 0:
            raise ValueError("storage budget must be nonnegative")
        if self.rental_budget is not None and self.rental_budget <= 0:
            raise ValueError("rental budget must be positive")

    @property
    def horizon(self) -> int:
        return self.instances[0].horizon

    @property
    def is_coupled(self) -> bool:
        return self.storage_budget is not None or self.rental_budget is not None


@dataclass
class MultiClassPlan:
    """Joint solution: one :class:`RentalPlan` per class plus totals."""

    plans: dict[str, RentalPlan]
    total_cost: float
    status: SolverStatus
    extra: dict = field(default_factory=dict)

    def peak_total_storage(self) -> float:
        stacked = np.sum([p.beta for p in self.plans.values()], axis=0)
        return float(stacked.max()) if stacked.size else 0.0


def solve_multiclass(
    problem: MultiClassInstance,
    backend: str = "auto",
) -> MultiClassPlan:
    """Solve the joint problem.

    Uncoupled instances take the fast separable path (per-class solves);
    coupled instances build one MILP with the budget rows added.
    """
    if not problem.is_coupled:
        plans = {
            inst.vm_name: solve_drrp(inst, backend=backend)
            for inst in problem.instances
        }
        return MultiClassPlan(
            plans=plans,
            total_cost=float(sum(p.total_cost for p in plans.values())),
            status=SolverStatus.OPTIMAL,
            extra={"path": "separable"},
        )

    T = problem.horizon
    m = Model("multiclass-drrp")
    per_class = []
    costs = []
    for inst in problem.instances:
        vars_, cost = _drrp_rows(m, inst, tag=f"[{inst.vm_name}]")
        per_class.append((inst, vars_))
        costs.append(cost)

    for t in range(T):
        if problem.storage_budget is not None:
            m.add_constr(
                lin_sum(vars_["beta"][t] for _inst, vars_ in per_class)
                <= problem.storage_budget,
                name=f"storage_budget[{t}]",
            )
        if problem.rental_budget is not None:
            m.add_constr(
                lin_sum(
                    float(inst.costs.compute[t]) * vars_["chi"][t]
                    for inst, vars_ in per_class
                )
                <= problem.rental_budget,
                name=f"rental_budget[{t}]",
            )

    m.set_objective(lin_sum(costs))
    res = solve(m, backend=backend)
    if not res.status.has_solution:
        raise RuntimeError(f"multiclass solve failed: {res.status.value}")

    plans = {
        inst.vm_name: RentalPlan.priced(inst, *read_decisions(res, vars_))
        for inst, vars_ in per_class
    }
    return MultiClassPlan(
        plans=plans,
        total_cost=res.objective,
        status=res.status,
        extra={"path": "joint", "nodes": res.nodes},
    )
