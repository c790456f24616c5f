"""Fleet-scale multi-tenant rental planning.

Scales the paper's single-application DRRP to a fleet: a seeded tenant
population (:mod:`repro.fleet.tenants`) shares finite spot/on-demand/
reserved capacity pools (:mod:`repro.fleet.pool`); every tenant is
planned by a cheap greedy + local-search tier with exact-Fraction
accounting (:mod:`repro.fleet.heuristic`) and escalated to an exact
solve only when its Wagner–Whitin gap certificate exceeds the SLA
tolerance; :func:`repro.fleet.planner.plan_fleet` orchestrates the
fan-out, exact escalation and pool-feasibility repair.
"""

from .heuristic import HeuristicInfeasible, HeuristicResult, solve_heuristic
from .planner import FleetConfig, FleetPlan, TenantOutcome, plan_fleet
from .pool import (
    CapacityPool,
    fleet_cost,
    pool_excess,
    pool_usage,
    uniform_pools,
    verify_fleet_feasible,
)
from .tenants import POOLS, PROFILES, SLA, SLAS, Tenant, generate_tenants

__all__ = [
    "HeuristicInfeasible",
    "HeuristicResult",
    "solve_heuristic",
    "FleetConfig",
    "FleetPlan",
    "TenantOutcome",
    "plan_fleet",
    "CapacityPool",
    "fleet_cost",
    "pool_excess",
    "pool_usage",
    "uniform_pools",
    "verify_fleet_feasible",
    "POOLS",
    "PROFILES",
    "SLA",
    "SLAS",
    "Tenant",
    "generate_tenants",
]
