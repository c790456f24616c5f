"""`plan_fleet`: heuristic-first multi-tenant planning with exact escalation.

The pipeline:

1. **Independent planning** — every tenant is planned by the heuristic
   tier (:mod:`repro.fleet.heuristic`), fanned out over processes with
   :func:`repro.parallel.parallel_map` (the fan-out degrades to serial
   inside service workers via the existing ``serial_guard``).  A tenant
   escalates to an exact DRRP solve when its SLA is escalation-eligible
   and the Wagner–Whitin gap certificate exceeds the SLA tolerance — and
   unconditionally when the heuristic cannot produce a feasible plan.
   Escalated tenants call :func:`repro.core.drrp.solve_drrp` with the
   same arguments a direct caller would use, so their plans are
   bit-for-bit identical to single-tenant solves.  Under the default
   ``backend="auto"`` that solve is the Wagner–Whitin DP with the
   tenant's knocked-out slots masked (a knock never leaves a binding
   capacity, see :attr:`repro.core.drrp.DRRPInstance.open_slots`), so no
   MILP is built; an explicit backend still solves the MILP.
2. **Pool repair** — independent plans may oversubscribe a shared pool
   (:mod:`repro.fleet.pool`).  Each repair round trims every overloaded
   slot down to capacity: renters are ranked by a regret estimate (the
   holding cost of carrying that slot's demand from the previous slot,
   minus the setup cost saved — exactly the exchange-argument delta of
   the ``fleet-pool`` verify family), the smallest-regret renters lose
   the slot, and the trimmed tenants are re-planned with the slot
   *knocked out* (zero bottleneck capacity, the
   ``apply_interruptions`` encoding).  Tenants whose remaining available
   slots could no longer precede their first net demand are *pinned* and
   never trimmed.  Each round knocks out at least one new (tenant, slot)
   pair, so repair terminates in at most ``tenants x horizon`` rounds.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from repro.core.drrp import DRRPInstance, RentalPlan, solve_drrp
from repro.fleet.heuristic import HeuristicInfeasible, solve_heuristic
from repro.fleet.pool import (
    CapacityPool,
    fleet_cost,
    pool_excess,
    pool_usage,
    verify_fleet_feasible,
)
from repro.fleet.tenants import SLAS, Tenant
from repro.obs.spans import span
from repro.parallel.pool import default_workers, parallel_map
from repro.solver.telemetry import Telemetry

__all__ = ["FleetConfig", "TenantOutcome", "FleetPlan", "plan_fleet"]


@dataclass(frozen=True)
class FleetConfig:
    """Knobs of one fleet planning run."""

    backend: str = "auto"
    workers: int | None = None  # None -> repro.parallel.default_workers()
    max_search_rounds: int = 40
    max_repair_rounds: int | None = None  # None -> tenants * horizon
    escalate: bool = True  # False: heuristic-only (the service's degraded mode)

    def __post_init__(self) -> None:
        if self.max_search_rounds < 1:
            raise ValueError("max_search_rounds must be positive")
        if self.max_repair_rounds is not None and self.max_repair_rounds < 1:
            raise ValueError("max_repair_rounds must be positive when given")


@dataclass
class TenantOutcome:
    """The plan one tenant ended up with, and how it got it."""

    tenant_id: int
    plan: RentalPlan
    instance: DRRPInstance  # the (possibly knocked) instance the plan satisfies
    method: str  # "heuristic" | "milp"
    escalated: bool
    reason: str  # "" | "gap" | "heuristic-infeasible"
    gap: float | None
    lower_bound: float | None
    knocked: tuple[int, ...] = ()


@dataclass
class FleetPlan:
    """Joint plan for the whole fleet plus planning telemetry."""

    outcomes: list[TenantOutcome]
    pools: dict[str, CapacityPool]
    usage: dict[str, np.ndarray]
    total_cost: float
    total_cost_exact: Fraction
    eligible: int
    escalated: int
    repair_rounds: int
    knockouts: int
    methods: dict[str, int]
    failures: list[str] = field(default_factory=list)

    @property
    def feasible(self) -> bool:
        return not self.failures

    @property
    def escalation_fraction(self) -> float:
        return self.escalated / len(self.outcomes) if self.outcomes else 0.0

    def summary(self, tenants: list[Tenant] | None = None) -> dict:
        """JSON-able digest (what the ``/fleet`` service endpoint returns)."""
        out = {
            "kind": "fleet",
            "tenants": len(self.outcomes),
            "status": "optimal" if self.feasible else "infeasible",
            "total_cost": self.total_cost,
            "total_cost_exact": str(self.total_cost_exact),
            "eligible": self.eligible,
            "escalated": self.escalated,
            "escalation_fraction": self.escalation_fraction,
            "methods": dict(self.methods),
            "repair_rounds": self.repair_rounds,
            "knockouts": self.knockouts,
            "feasible": self.feasible,
            "failures": list(self.failures),
            "pools": {
                name: {
                    "capacity_min": float(pool.capacity.min()),
                    "capacity_max": float(pool.capacity.max()),
                    "peak_usage": float(self.usage[name].max()) if name in self.usage else 0.0,
                }
                for name, pool in self.pools.items()
            },
        }
        if tenants is not None:
            by_id = {t.tenant_id: t for t in tenants}
            out["tenant_plans"] = [
                {
                    "tenant": o.tenant_id,
                    "name": by_id[o.tenant_id].name if o.tenant_id in by_id else "",
                    "pool": by_id[o.tenant_id].pool if o.tenant_id in by_id else "",
                    "sla": by_id[o.tenant_id].sla if o.tenant_id in by_id else "",
                    "method": o.method,
                    "escalated": o.escalated,
                    "cost": float(o.plan.objective),
                    "gap": o.gap,
                    "rent_slots": int(np.count_nonzero(o.plan.chi > 0.5)),
                    "knocked": list(o.knocked),
                }
                for o in self.outcomes
            ]
        return out


def _knock(instance: DRRPInstance, slots: tuple[int, ...]) -> DRRPInstance:
    """Zero out the bottleneck capacity of ``slots`` (repair encoding).

    Mirrors :func:`repro.market.interruptions.apply_interruptions`: rate 1,
    capacity 0 on knocked slots and a just-large-enough bound elsewhere so
    the bottleneck never binds where the slot is open.
    """
    if not slots:
        return instance
    big = float(np.asarray(instance.demand, dtype=float).sum()) + float(
        instance.initial_storage
    ) + 1.0
    if instance.bottleneck_rate is not None:
        rate = float(instance.bottleneck_rate)
        cap = np.asarray(instance.bottleneck_capacity, dtype=float).copy()
    else:
        rate = 1.0
        cap = np.full(instance.horizon, big)
    cap[list(slots)] = 0.0
    return replace(instance, bottleneck_rate=rate, bottleneck_capacity=cap)


def _plan_tenant(item: tuple) -> TenantOutcome:
    """Worker body: heuristic first, ``solve_drrp`` on escalation
    (module-level so ``parallel_map`` can pickle it; ``plan_fleet`` looks
    it up at call time).  The outcome's ``method`` is ``"milp"`` for an
    escalated tenant whichever exact solver ``backend`` picks."""
    tenant_id, instance, knocked, gap_tol, escalate, backend, max_rounds = item
    knocked_instance = _knock(instance, knocked)
    method, reason, gap, lower = "heuristic", "", None, None
    plan = None
    try:
        result = solve_heuristic(knocked_instance, max_rounds=max_rounds)
        gap, lower, plan = result.gap, result.lower_bound, result.plan
        if escalate and math.isfinite(gap_tol) and result.gap > gap_tol:
            method, reason, plan = "milp", "gap", None
    except HeuristicInfeasible:
        # Correctness beats tiering: a tenant the heuristic cannot serve
        # within its available slots gets the MILP regardless of SLA.
        method, reason = "milp", "heuristic-infeasible"
    if plan is None:
        plan = solve_drrp(knocked_instance, backend=backend)
    return TenantOutcome(
        tenant_id=tenant_id,
        plan=plan,
        instance=knocked_instance,
        method=method,
        escalated=method == "milp",
        reason=reason,
        gap=gap,
        lower_bound=lower,
        knocked=knocked,
    )


def _first_net_demand(tenant: Tenant) -> int:
    """Index of the first slot with demand the initial storage cannot cover
    (-1 when storage covers everything)."""
    demand = np.asarray(tenant.instance.demand, dtype=float)
    covered = np.cumsum(demand) - float(tenant.instance.initial_storage)
    positive = np.nonzero(covered > 1e-12)[0]
    return int(positive[0]) if positive.size else -1


def _base_available(tenant: Tenant) -> np.ndarray:
    inst = tenant.instance
    if inst.bottleneck_rate is None:
        return np.ones(inst.horizon, dtype=bool)
    return np.asarray(inst.bottleneck_capacity, dtype=float) > 0.0


def _pinned(tenant: Tenant, first_demand: int, available: np.ndarray,
            knocked: set[int], slot: int) -> bool:
    """Would knocking ``slot`` leave no setup slot before the tenant's
    first uncovered demand?"""
    if first_demand < 0:
        return False
    avail = available.copy()
    for s in knocked:
        avail[s] = False
    avail[slot] = False
    return not avail[: first_demand + 1].any()


def _early_slack(tenant: Tenant, first_demand: int, available: np.ndarray,
                 knocked: set[int], slot: int) -> float:
    """How many setup slots before the first uncovered demand would survive
    knocking ``slot``.  Low slack means the next knock near slot 0 pins the
    tenant there — trimming it now risks painting repair into a corner."""
    if first_demand < 0:
        return math.inf
    avail = available.copy()
    for s in knocked:
        avail[s] = False
    avail[slot] = False
    return float(avail[: first_demand + 1].sum())


def _regret(tenant: Tenant, slot: int) -> float:
    """Estimated cost of losing ``slot``: carry its demand from the
    previous slot instead of paying the setup there."""
    if slot == 0:
        return math.inf
    inst = tenant.instance
    holding = float(inst.costs.holding[slot - 1])
    demand = float(inst.demand[slot])
    setup = float(inst.costs.compute[slot])
    return holding * demand - setup


def plan_fleet(
    tenants: list[Tenant],
    pools: dict[str, CapacityPool],
    config: FleetConfig | None = None,
    listener=None,
) -> FleetPlan:
    """Plan every tenant, then repair shared-pool overloads.

    Raises ``ValueError`` when a pool is structurally infeasible (pinned
    renters alone exceed a slot's capacity) and ``RuntimeError`` when
    repair exceeds its round budget.
    """
    if not tenants:
        raise ValueError("plan_fleet needs at least one tenant")
    cfg = config or FleetConfig()
    hub = Telemetry.from_listener(listener)
    workers = cfg.workers if cfg.workers is not None else default_workers()
    horizon = tenants[0].horizon
    for t in tenants:
        if t.horizon != horizon:
            raise ValueError("all tenants must share one planning horizon")

    by_id = {t.tenant_id: t for t in tenants}
    knocked: dict[int, set[int]] = defaultdict(set)

    def run_batch(ids: list[int], phase: str) -> None:
        items = [
            (
                tid,
                by_id[tid].instance,
                tuple(sorted(knocked[tid])),
                SLAS[by_id[tid].sla].gap_tolerance,
                cfg.escalate,
                cfg.backend,
                cfg.max_search_rounds,
            )
            for tid in ids
        ]
        with span(hub, phase, tenants=len(items)) as attrs:
            results = parallel_map(
                _plan_tenant, items, n_workers=workers, telemetry=hub
            )
            escalations = 0
            for outcome in results:
                outcomes[outcome.tenant_id] = outcome
                escalations += int(outcome.escalated)
            attrs["escalated"] = escalations

    outcomes: dict[int, TenantOutcome] = {}
    with span(hub, "fleet_plan", tenants=len(tenants), horizon=horizon) as root:
        run_batch([t.tenant_id for t in tenants], "fleet_heuristic")

        first_demand = {t.tenant_id: _first_net_demand(t) for t in tenants}
        base_avail = {t.tenant_id: _base_available(t) for t in tenants}
        max_rounds = cfg.max_repair_rounds or max(1, len(tenants) * horizon)
        repair_rounds = 0
        while True:
            chi_by_id = {tid: o.plan.chi for tid, o in outcomes.items()}
            excess = pool_excess(pools, pool_usage(tenants, chi_by_id, pools))
            overloaded = [
                (name, int(slot))
                for name in sorted(excess)
                for slot in np.nonzero(excess[name] > 1e-9)[0]
            ]
            if not overloaded:
                break
            repair_rounds += 1
            if repair_rounds > max_rounds:
                raise RuntimeError(
                    f"pool repair did not converge within {max_rounds} rounds"
                )
            affected: set[int] = set()
            with span(hub, f"fleet_repair[{repair_rounds}]") as attrs:
                for name, slot in overloaded:
                    pool = pools[name]
                    renters = sorted(
                        tid
                        for tid, o in outcomes.items()
                        if by_id[tid].pool == name and o.plan.chi[slot] > 0.5
                    )
                    allowed = int(math.floor(float(pool.capacity[slot]) + 1e-9))
                    trim = len(renters) - allowed
                    if trim <= 0:
                        continue
                    candidates = [
                        tid
                        for tid in renters
                        if not _pinned(
                            by_id[tid], first_demand[tid], base_avail[tid],
                            knocked[tid], slot,
                        )
                    ]
                    if len(candidates) < trim:
                        raise ValueError(
                            f"pool {name!r} infeasible at slot {slot}: "
                            f"{len(renters) - len(candidates)} pinned renters "
                            f"exceed capacity {allowed}"
                        )
                    # Trim cheap-to-move renters first, but among them
                    # prefer the ones that keep early-slot flexibility: a
                    # tenant whose last early alternative this knock would
                    # remove migrates to slot 0 on re-solve, where nothing
                    # can be trimmed and the slot-0 floor never counted it
                    # (tenants with first_demand == 0 are already in that
                    # floor, so only later first demands are at risk).
                    candidates.sort(
                        key=lambda tid: (
                            first_demand[tid] > 0
                            and _early_slack(
                                by_id[tid], first_demand[tid], base_avail[tid],
                                knocked[tid], slot,
                            ) <= 1.0,
                            _regret(by_id[tid], slot),
                            tid,
                        )
                    )
                    for tid in candidates[:trim]:
                        knocked[tid].add(slot)
                        affected.add(tid)
                attrs["knocked"] = len(affected)
                run_batch(sorted(affected), f"fleet_resolve[{repair_rounds}]")

        ordered = [outcomes[t.tenant_id] for t in tenants]
        usage = pool_usage(
            tenants, {o.tenant_id: o.plan.chi for o in ordered}, pools
        )
        failures = verify_fleet_feasible(tenants, ordered, pools)
        total_exact = fleet_cost(ordered)
        methods: dict[str, int] = defaultdict(int)
        for o in ordered:
            methods[o.method] += 1
        escalated = sum(1 for o in ordered if o.escalated)
        root["escalated"] = escalated
        root["repair_rounds"] = repair_rounds
        if hub:
            for o in ordered:
                hub.emit(
                    "tenant_planned",
                    tenant=o.tenant_id,
                    method=o.method,
                    escalated=o.escalated,
                    cost=float(o.plan.objective),
                    gap=o.gap,
                )

    return FleetPlan(
        outcomes=ordered,
        pools=pools,
        usage=usage,
        total_cost=float(total_exact),
        total_cost_exact=total_exact,
        eligible=sum(1 for t in tenants if t.escalation_eligible),
        escalated=escalated,
        repair_rounds=repair_rounds,
        knockouts=sum(len(s) for s in knocked.values()),
        methods=dict(methods),
        failures=failures,
    )
