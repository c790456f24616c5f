"""plan_fleet: escalation routing, pool repair, and joint feasibility."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.drrp import solve_drrp
from repro.fleet import (
    CapacityPool,
    FleetConfig,
    fleet_cost,
    generate_tenants,
    plan_fleet,
    pool_usage,
    uniform_pools,
    verify_fleet_feasible,
)


class TestPlanFleet:
    def test_uncoupled_fleet_needs_no_repair(self):
        tenants = generate_tenants(8, seed=0, horizon=12)
        pools = uniform_pools(tenants, utilization=1.0)
        fleet = plan_fleet(tenants, pools, FleetConfig(workers=1))
        assert fleet.feasible
        assert fleet.repair_rounds == 0 and fleet.knockouts == 0
        assert len(fleet.outcomes) == len(tenants)
        assert sum(fleet.methods.values()) == len(tenants)

    def test_tight_pools_are_repaired_to_feasibility(self):
        tenants = generate_tenants(24, seed=3, horizon=12)
        pools = uniform_pools(tenants, utilization=0.4)
        fleet = plan_fleet(tenants, pools, FleetConfig(workers=1))
        assert fleet.feasible, fleet.failures
        assert verify_fleet_feasible(tenants, fleet.outcomes, pools) == []
        usage = pool_usage(tenants, {o.tenant_id: o.plan.chi for o in fleet.outcomes}, pools)
        for name, pool in pools.items():
            assert np.all(usage[name] <= pool.capacity + 1e-9)

    def test_escalated_plans_match_direct_milp_bit_for_bit(self):
        tenants = generate_tenants(20, seed=0, horizon=16)
        pools = uniform_pools(tenants, utilization=1.0)
        fleet = plan_fleet(tenants, pools, FleetConfig(workers=1))
        escalated = [o for o in fleet.outcomes if o.escalated and not o.knocked]
        assert escalated, "seed 0 must escalate at least one tenant"
        for o in escalated:
            direct = solve_drrp(o.instance, backend="auto")
            assert np.array_equal(np.asarray(o.plan.alpha), np.asarray(direct.alpha))
            assert np.array_equal(np.asarray(o.plan.beta), np.asarray(direct.beta))
            assert np.array_equal(np.asarray(o.plan.chi), np.asarray(direct.chi))
            assert float(o.plan.objective) == float(direct.objective)

    def test_batch_slas_never_escalate_on_gap(self):
        tenants = generate_tenants(40, seed=2, horizon=12)
        pools = uniform_pools(tenants, utilization=1.0)
        fleet = plan_fleet(tenants, pools, FleetConfig(workers=1))
        by_id = {t.tenant_id: t for t in tenants}
        for o in fleet.outcomes:
            if by_id[o.tenant_id].sla == "batch":
                assert o.reason != "gap"

    def test_total_cost_is_exact_sum(self):
        tenants = generate_tenants(10, seed=5, horizon=12)
        pools = uniform_pools(tenants, utilization=1.0)
        fleet = plan_fleet(tenants, pools, FleetConfig(workers=1))
        assert fleet.total_cost_exact == fleet_cost(fleet.outcomes)
        assert abs(fleet.total_cost - float(fleet.total_cost_exact)) <= 1e-9

    def test_summary_is_json_able(self):
        tenants = generate_tenants(6, seed=0, horizon=8)
        pools = uniform_pools(tenants, utilization=1.0)
        fleet = plan_fleet(tenants, pools, FleetConfig(workers=1))
        text = json.dumps(fleet.summary(tenants))
        out = json.loads(text)
        assert out["kind"] == "fleet" and len(out["tenant_plans"]) == 6

    def test_structurally_infeasible_pool_is_rejected(self):
        tenants = generate_tenants(12, seed=5, horizon=12)
        # A zero-capacity slot 0 cannot host the tenants whose initial
        # storage misses their slot-0 demand: repair must refuse, not spin.
        pools = {
            name: CapacityPool(name, np.concatenate([[0.0], pool.capacity[1:]]))
            for name, pool in uniform_pools(tenants, utilization=1.0).items()
        }
        forced = sum(
            1
            for t in tenants
            if float(t.instance.demand[0]) > float(t.instance.initial_storage) + 1e-12
        )
        assert forced > 0
        with pytest.raises((ValueError, RuntimeError)):
            plan_fleet(tenants, pools, FleetConfig(workers=1))

    def test_mismatched_horizons_are_rejected(self):
        a = generate_tenants(2, seed=0, horizon=8)
        b = generate_tenants(2, seed=0, horizon=12)
        mixed = [a[0], b[1]]
        with pytest.raises(ValueError):
            plan_fleet(mixed, uniform_pools(a), FleetConfig(workers=1))


class TestEscalationFailure:
    """An exact solve that fails keeps the heuristic plan it replaced."""

    @staticmethod
    def _fail_escalations(monkeypatch):
        import repro.fleet.planner as planner

        def failing(instance, **kwargs):
            raise RuntimeError("DRRP solve failed with status node_limit")

        monkeypatch.setattr(planner, "solve_drrp", failing)

    def test_gap_escalation_keeps_the_heuristic_plan(self, monkeypatch):
        self._fail_escalations(monkeypatch)
        tenants = generate_tenants(20, seed=0, horizon=16)
        pools = uniform_pools(tenants, utilization=1.0)
        fleet = plan_fleet(tenants, pools, FleetConfig(workers=1))
        failed = [o for o in fleet.outcomes if "escalation failed" in o.reason]
        assert failed, "seed 0 must escalate at least one tenant on its gap"
        for o in failed:
            assert o.reason == "gap; escalation failed: DRRP solve failed with status node_limit"
            assert o.method == "heuristic" and o.escalated
            o.plan.validate(o.instance)
        assert fleet.feasible and fleet.methods == {"heuristic": len(tenants)}

    def test_error_stands_without_a_heuristic_plan(self, monkeypatch):
        import repro.fleet.planner as planner
        from repro.fleet.heuristic import HeuristicInfeasible

        self._fail_escalations(monkeypatch)

        def infeasible(instance, **kwargs):
            raise HeuristicInfeasible("no plan")

        monkeypatch.setattr(planner, "solve_heuristic", infeasible)
        tenants = generate_tenants(4, seed=0, horizon=8)
        with pytest.raises(RuntimeError, match="node_limit"):
            plan_fleet(tenants, uniform_pools(tenants, utilization=1.0), FleetConfig(workers=1))

    def test_error_stands_when_the_heuristic_plan_does_not_fit(self, monkeypatch):
        import repro.fleet.planner as planner

        self._fail_escalations(monkeypatch)
        monkeypatch.setattr(planner, "_satisfies", lambda plan, instance: False)
        tenants = generate_tenants(20, seed=0, horizon=16)
        with pytest.raises(RuntimeError, match="node_limit"):
            plan_fleet(tenants, uniform_pools(tenants, utilization=1.0), FleetConfig(workers=1))

    def test_escalated_solve_gets_the_fleet_deadline(self, monkeypatch):
        import repro.fleet.planner as planner
        from repro.solver.telemetry import Deadline

        seen = []

        def recording(instance, **kwargs):
            seen.append(kwargs.get("deadline"))
            return solve_drrp(instance, **kwargs)

        monkeypatch.setattr(planner, "solve_drrp", recording)
        tenants = generate_tenants(20, seed=0, horizon=16)
        deadline = Deadline(60.0)
        plan_fleet(tenants, uniform_pools(tenants, utilization=1.0), FleetConfig(workers=1),
                   deadline=deadline)
        assert seen and all(d is deadline for d in seen)


class TestPoolRepairProperty:
    @given(
        seed=st.integers(0, 10_000),
        count=st.integers(4, 14),
        utilization=st.floats(0.25, 1.0),
    )
    @settings(max_examples=12, deadline=None)
    def test_repaired_fleet_never_exceeds_pool_capacity(self, seed, count, utilization):
        """Whatever the population and however tight the pools, the plan
        that comes back satisfies every per-slot cap (or repair raises)."""
        tenants = generate_tenants(count, seed=seed, horizon=10)
        pools = uniform_pools(tenants, utilization=utilization)
        try:
            fleet = plan_fleet(tenants, pools, FleetConfig(workers=1))
        except (ValueError, RuntimeError):
            return  # structurally infeasible draw: refusing is correct
        assert fleet.feasible, fleet.failures
        usage = pool_usage(
            tenants, {o.tenant_id: o.plan.chi for o in fleet.outcomes}, pools
        )
        for name, pool in pools.items():
            assert np.all(usage[name] <= pool.capacity + 1e-9)
        for o in fleet.outcomes:
            o.plan.validate(o.instance)
