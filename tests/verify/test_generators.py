"""The generators' planted optima must match what the solvers find."""

import numpy as np
import pytest

from repro.core.drrp import solve_drrp
from repro.core.lotsizing import solve_wagner_whitin
from repro.core.srrp import solve_srrp
from repro.solver.benders import extensive_form, solve_benders
from repro.solver.interface import solve_compiled
from repro.solver.result import SolverStatus
from repro.solver.scipy_backend import scipy_available
from repro.verify.generators import (
    FAMILIES,
    bid_dominance,
    infeasible_lp,
    planted_drrp,
    planted_evicted_drrp,
    planted_lp,
    planted_milp,
    planted_srrp,
    random_two_stage,
)

needs_scipy = pytest.mark.skipif(not scipy_available(), reason="scipy not installed")


def close(a, b, tol=1e-6):
    return abs(a - b) <= tol * (1 + abs(b))


class TestPlantedLP:
    def test_optimum_matches_solver(self, rng):
        for _ in range(15):
            case = planted_lp(rng)
            res = solve_compiled(case.instance, backend="simplex", use_presolve=False)
            assert res.status is SolverStatus.OPTIMAL
            assert close(res.objective, case.optimum)

    def test_x_star_is_feasible(self, rng):
        for _ in range(15):
            case = planted_lp(rng)
            assert case.instance.is_feasible(case.x_star)

    def test_seeded_reproducibility(self):
        a = planted_lp(np.random.default_rng(7))
        b = planted_lp(np.random.default_rng(7))
        assert np.array_equal(a.instance.c, b.instance.c)
        assert a.optimum == b.optimum


class TestPlantedMILP:
    def test_optimum_matches_branch_and_bound(self, rng):
        for _ in range(8):
            case = planted_milp(rng)
            res = solve_compiled(case.instance, backend="simplex", use_presolve=False)
            assert res.status.has_solution
            assert close(res.objective, case.optimum)
            assert case.instance.integrality.any()


class TestInfeasibleLP:
    def test_reported_infeasible(self, rng):
        for _ in range(8):
            case = infeasible_lp(rng)
            assert not case.feasible
            res = solve_compiled(case.instance, backend="simplex", use_presolve=False)
            assert res.status is SolverStatus.INFEASIBLE


class TestPlantedDRRP:
    def test_both_sub_families_match_ww_and_milp(self, rng):
        seen = set()
        for _ in range(20):
            case = planted_drrp(rng)
            seen.add(case.meta["sub_family"])
            assert close(solve_wagner_whitin(case.instance).objective, case.optimum)
            plan = solve_drrp(case.instance, backend="auto")
            assert close(plan.objective, case.optimum)
        assert seen == {"rent-per-slot", "single-setup"}

    def test_x_star_is_a_valid_plan(self, rng):
        from repro.core.drrp import RentalPlan

        case = planted_drrp(rng)
        T = case.instance.horizon
        plan = RentalPlan(
            alpha=case.x_star[:T], beta=case.x_star[T : 2 * T], chi=case.x_star[2 * T :],
            compute_cost=0, inventory_cost=0, transfer_in_cost=0, transfer_out_cost=0,
            objective=case.optimum, status=SolverStatus.OPTIMAL,
        )
        plan.validate(case.instance)


class TestPlantedSRRP:
    def test_optimum_matches_deterministic_equivalent(self, rng):
        for _ in range(5):
            case = planted_srrp(rng)
            plan = solve_srrp(case.instance, backend="auto")
            assert close(plan.expected_cost, case.optimum)
            plan.validate(case.instance)


@needs_scipy
class TestTwoStage:
    def test_extensive_form_agrees_with_benders(self, rng):
        for _ in range(6):
            case = random_two_stage(rng)
            ef = solve_compiled(extensive_form(case.instance), backend="auto", use_presolve=False)
            bd = solve_benders(case.instance)
            assert ef.status.has_solution and bd.status.has_solution
            assert close(ef.objective, bd.objective, tol=1e-5)


class TestPlantedEvictedDRRP:
    def test_optimum_matches_milp(self, rng):
        for _ in range(10):
            case = planted_evicted_drrp(rng)
            plan = solve_drrp(case.instance, backend="auto")
            assert close(plan.objective, case.optimum)

    def test_evicted_slots_are_knocked_out(self, rng):
        for _ in range(10):
            case = planted_evicted_drrp(rng)
            evicted = case.meta["evicted"]
            assert evicted and 0 not in evicted
            cap = case.instance.bottleneck_capacity
            assert all(cap[e] == 0.0 for e in evicted)
            plan = solve_drrp(case.instance, backend="auto")
            assert all(plan.alpha[e] <= 1e-9 for e in evicted)

    def test_x_star_is_a_valid_plan(self, rng):
        from repro.core.drrp import RentalPlan

        case = planted_evicted_drrp(rng)
        T = case.instance.horizon
        plan = RentalPlan(
            alpha=case.x_star[:T], beta=case.x_star[T : 2 * T], chi=case.x_star[2 * T :],
            compute_cost=0, inventory_cost=0, transfer_in_cost=0, transfer_out_cost=0,
            objective=case.optimum, status=SolverStatus.OPTIMAL,
        )
        plan.validate(case.instance)


class TestBidDominance:
    def test_higher_bid_weakly_dominates(self, rng):
        from repro.market.interruptions import fixed_bid_outcome

        for _ in range(20):
            case = bid_dominance(rng)
            inst = case.instance
            lo = fixed_bid_outcome(inst, inst.bid_lo)
            hi = fixed_bid_outcome(inst, inst.bid_hi)
            assert hi.cost <= lo.cost
            assert hi.interruptions <= lo.interruptions
            assert float(hi.cost) == case.optimum

    def test_outcome_matches_simulator_bit_for_bit(self, rng):
        from repro.core.rolling import NoPlanPolicy, simulate_policy
        from repro.market.auction import FixedBids
        from repro.market.catalog import CostRates, VMClass
        from repro.market.interruptions import fixed_bid_outcome

        for _ in range(5):
            case = bid_dominance(rng)
            inst = case.instance
            vm = VMClass(name="bid-dominance", on_demand_price=inst.on_demand_price)
            for bid in (inst.bid_lo, inst.bid_hi):
                analytic = fixed_bid_outcome(inst, bid)
                sim = simulate_policy(
                    NoPlanPolicy(FixedBids(value=bid)), inst.prices, inst.demand,
                    vm, rates=CostRates(), interruption_loss=inst.work_loss,
                )
                assert float(analytic.cost) == sim.total_cost
                assert analytic.interruptions == sim.out_of_bid_events


class TestPlantedFleetPool:
    def test_per_tenant_optima_match_ww(self, rng):
        from repro.verify.generators import planted_fleet_pool

        for _ in range(5):
            case = planted_fleet_pool(rng)
            fc = case.instance
            for inst, opt in zip(fc.tenants, case.meta["per_tenant_optima"]):
                assert close(solve_wagner_whitin(inst).objective, opt)

    def test_fleet_optimum_is_sum_plus_min_delta(self, rng):
        from repro.verify.generators import planted_fleet_pool

        for _ in range(5):
            case = planted_fleet_pool(rng)
            expected = sum(case.meta["per_tenant_optima"]) + min(case.meta["deltas"])
            assert close(case.optimum, expected)

    def test_plan_fleet_attains_the_optimum(self, rng):
        from repro.fleet import CapacityPool, FleetConfig, Tenant, plan_fleet
        from repro.verify.generators import planted_fleet_pool

        case = planted_fleet_pool(rng)
        fc = case.instance
        tenants = [
            Tenant(
                tenant_id=i, name=f"t{i}", vm_name="planted", profile="constant",
                sla="premium", pool="shared", size=1.0, instance=inst,
            )
            for i, inst in enumerate(fc.tenants)
        ]
        pools = {"shared": CapacityPool("shared", fc.capacity)}
        fleet = plan_fleet(tenants, pools, FleetConfig(workers=1))
        assert fleet.feasible
        assert close(fleet.total_cost, case.optimum)


def test_family_registry_is_complete(rng):
    assert set(FAMILIES) == {
        "lp", "milp", "lp-infeasible", "drrp", "drrp-random", "drrp-evicted",
        "srrp", "two-stage", "bid-dominance", "fleet-pool",
    }
    for gen in FAMILIES.values():
        case = gen(rng)
        assert case.family in FAMILIES
