"""Seeded tenant populations for fleet-scale rental planning.

A *tenant* is one elastic application with its own demand profile, SLA
tier, size and pool assignment, wrapped around the paper's single-tenant
:class:`~repro.core.drrp.DRRPInstance`.  The generator is deterministic
for a fixed seed — per-tenant randomness comes from
:func:`repro.stats.rng.spawn_rngs`, so tenant ``i`` of a population is
identical no matter how many tenants are generated around it.

Heterogeneity mirrors the knobs the paper varies one at a time:

* **demand profile** — one of the four :mod:`repro.core.demand` models
  (truncated-normal, diurnal, bursty, constant), scaled by a per-tenant
  size factor;
* **pool** — which shared capacity pool the tenant rents from
  (``spot`` tenants price compute off a synthetic market trace from
  :mod:`repro.market.traces`, ``reserved`` tenants get a discounted
  on-demand rate, ``on-demand`` tenants pay list price);
* **SLA** — how much optimality the tenant paid for, expressed as the
  optimality-gap tolerance of the heuristic tier before the planner
  escalates the tenant to the exact DRRP MILP (see
  :mod:`repro.fleet.heuristic`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.costs import on_demand_schedule, spot_schedule
from repro.core.demand import BurstyDemand, ConstantDemand, DiurnalDemand, NormalDemand
from repro.core.drrp import DRRPInstance
from repro.market.catalog import VMClass, ec2_catalog
from repro.market.resample import hourly_series
from repro.market.traces import TraceParams, generate_spot_trace
from repro.stats.rng import spawn_rngs

__all__ = ["SLA", "SLAS", "Tenant", "POOLS", "PROFILES", "generate_tenants"]

#: The three shared capacity pools of the fleet (see :mod:`repro.fleet.pool`).
POOLS = ("spot", "on-demand", "reserved")

#: Demand-profile labels, in the order the generator draws them.
PROFILES = ("normal", "diurnal", "bursty", "constant")

#: Reserved instances trade an upfront commitment for a lower hourly rate;
#: the amortized discount is in the band AWS published for 1-year terms.
RESERVED_DISCOUNT = 0.55


@dataclass(frozen=True)
class SLA:
    """A service tier: how much exactness the tenant is entitled to.

    ``gap_tolerance`` is the heuristic optimality-gap threshold (relative
    to the Wagner–Whitin lower bound) above which the planner escalates
    the tenant to the exact MILP; ``math.inf`` means the tenant never
    escalates (best-effort heuristic only).
    """

    name: str
    gap_tolerance: float

    @property
    def escalation_eligible(self) -> bool:
        return math.isfinite(self.gap_tolerance)


#: The fleet's service tiers.  Batch tenants are never worth a MILP solve;
#: premium tenants escalate on any measurable gap.
SLAS: dict[str, SLA] = {
    "batch": SLA("batch", math.inf),
    "standard": SLA("standard", 0.02),
    "premium": SLA("premium", 0.002),
}


@dataclass(frozen=True)
class Tenant:
    """One application in the fleet (picklable: workers re-plan tenants)."""

    tenant_id: int
    name: str
    vm_name: str
    profile: str
    sla: str
    pool: str
    size: float
    instance: DRRPInstance

    @property
    def horizon(self) -> int:
        return self.instance.horizon

    @property
    def escalation_eligible(self) -> bool:
        return SLAS[self.sla].escalation_eligible

    @property
    def gap_tolerance(self) -> float:
        return SLAS[self.sla].gap_tolerance


def _demand_model(profile: str, rng: np.random.Generator):
    if profile == "normal":
        return NormalDemand(mean=rng.uniform(0.25, 0.6), std=rng.uniform(0.1, 0.3))
    if profile == "diurnal":
        return DiurnalDemand(
            mean=rng.uniform(0.3, 0.6),
            amplitude=rng.uniform(0.1, 0.25),
            noise_std=rng.uniform(0.02, 0.08),
        )
    if profile == "bursty":
        return BurstyDemand(
            base=rng.uniform(0.1, 0.3),
            burst=rng.uniform(0.8, 2.0),
            burst_probability=rng.uniform(0.05, 0.2),
        )
    return ConstantDemand(rate=rng.uniform(0.2, 0.6))


def _tenant_costs(pool: str, vm: VMClass, horizon: int, rng: np.random.Generator):
    """Cost schedule priced off the tenant's pool."""
    if pool == "spot":
        params = TraceParams(duration_days=horizon / 24.0 + 2.0)
        trace = generate_spot_trace(vm, rng, params)
        prices = hourly_series(trace, 0.0, float(horizon))
        return spot_schedule(vm, prices)
    costs = on_demand_schedule(vm, horizon)
    if pool == "reserved":
        costs = costs.with_compute(costs.compute * RESERVED_DISCOUNT)
    return costs


def generate_tenants(
    count: int,
    seed: int = 0,
    horizon: int = 24,
    catalog: dict[str, VMClass] | None = None,
) -> list[Tenant]:
    """Generate a deterministic, heterogeneous tenant population.

    All tenants share ``horizon``: fleets replan on a common rolling
    window, and pool usage is summed slot by slot.
    """
    if count < 1:
        raise ValueError(f"a fleet needs at least one tenant, got {count}")
    if horizon < 1:
        raise ValueError(f"horizon must be positive, got {horizon}")
    catalog = catalog or ec2_catalog()
    vm_names = sorted(catalog)
    sla_names = tuple(SLAS)
    tenants: list[Tenant] = []
    for tenant_id, rng in enumerate(spawn_rngs(seed, count)):
        profile = PROFILES[int(rng.integers(len(PROFILES)))]
        pool = str(rng.choice(POOLS, p=(0.5, 0.3, 0.2)))
        sla = str(rng.choice(sla_names, p=(0.4, 0.4, 0.2)))
        vm = catalog[vm_names[int(rng.integers(len(vm_names)))]]
        # Log-uniform size factor: most tenants are small, a few are large.
        size = float(np.exp(rng.uniform(np.log(0.5), np.log(6.0))))
        demand = _demand_model(profile, rng).sample(horizon, rng) * size
        initial = float(rng.uniform(0.0, 0.3) * max(float(demand.mean()), 0.0))
        instance = DRRPInstance(
            demand=demand,
            costs=_tenant_costs(pool, vm, horizon, rng),
            initial_storage=initial,
            vm_name=vm.name,
        )
        tenants.append(
            Tenant(
                tenant_id=tenant_id,
                name=f"tenant-{tenant_id:05d}",
                vm_name=vm.name,
                profile=profile,
                sla=sla,
                pool=pool,
                size=size,
                instance=instance,
            )
        )
    return tenants
