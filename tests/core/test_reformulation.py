"""Facility-location reformulation: exact agreement with the natural DRRP
formulation and the Wagner-Whitin DP, plus integrality of its relaxation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    DRRPInstance,
    MultiClassInstance,
    NormalDemand,
    on_demand_schedule,
    solve_drrp,
    solve_multiclass,
    solve_noplan,
    solve_wagner_whitin,
)
from repro.core.costs import CostSchedule
from repro.core.reformulation import build_facility_location_model, solve_drrp_facility_location
from repro.market import ec2_catalog
from repro.solver import SolverStatus
from repro.solver.scipy_backend import solve_lp_scipy


def make_instance(seed=0, horizon=12, vm="m1.large", eps=0.0):
    vmobj = ec2_catalog()[vm]
    return DRRPInstance(
        demand=NormalDemand().sample(horizon, seed),
        costs=on_demand_schedule(vmobj, horizon),
        initial_storage=eps,
        vm_name=vm,
    )


def _joint_multiclass():
    insts = tuple(
        DRRPInstance(
            demand=NormalDemand().sample(8, 6 + i),
            costs=on_demand_schedule(ec2_catalog()[vm], 8),
            initial_storage=0.8,
            vm_name=vm,
        )
        for i, vm in enumerate(("c1.medium", "m1.large"))
    )
    joint = solve_multiclass(MultiClassInstance(insts, storage_budget=1e6))
    assert joint.extra["path"] == "joint"
    return [(inst, joint.plans[inst.vm_name]) for inst in insts]


def _on_instance(solve):
    def produce():
        inst = make_instance(6, eps=0.8)
        return [(inst, solve(inst))]
    return produce


#: Each RentalPlan producer, as (instance, plan) pairs on seeded instances
#: with initial storage.
PRODUCERS = {
    "wagner-whitin": _on_instance(solve_wagner_whitin),
    "no-plan": _on_instance(solve_noplan),
    "milp": _on_instance(lambda inst: solve_drrp(inst, backend="scipy")),
    "multiclass-joint": _joint_multiclass,
    "facility-location": _on_instance(solve_drrp_facility_location),
}


class TestAgreement:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_natural_formulation(self, seed):
        inst = make_instance(seed)
        fl = solve_drrp_facility_location(inst)
        nat = solve_drrp(inst)
        assert fl.total_cost == pytest.approx(nat.total_cost, abs=1e-6)

    def test_matches_with_initial_storage(self):
        inst = make_instance(4, eps=1.5)
        fl = solve_drrp_facility_location(inst)
        dp = solve_wagner_whitin(inst)
        assert fl.total_cost == pytest.approx(dp.total_cost, abs=1e-6)

    def test_plan_is_feasible(self):
        inst = make_instance(5)
        plan = solve_drrp_facility_location(inst)
        plan.validate(inst)

    @pytest.mark.parametrize("producer", sorted(PRODUCERS))
    def test_decomposition_sums(self, producer):
        """Every RentalPlan producer: the objective is the sum of the four
        components, and each component reprices from the plan's (α, β, χ)."""
        for inst, plan in PRODUCERS[producer]():
            c = inst.costs
            parts = (
                plan.compute_cost, plan.inventory_cost,
                plan.transfer_in_cost, plan.transfer_out_cost,
            )
            assert sum(parts) == pytest.approx(plan.objective, abs=1e-6)
            repriced = (
                float(np.dot(c.compute, plan.chi)),
                float(np.dot(c.storage + c.io, plan.beta)),
                float(np.dot(c.transfer_in, inst.phi * plan.alpha)),
                float(np.dot(c.transfer_out, inst.demand)),
            )
            assert parts == pytest.approx(repriced, abs=1e-9)

    def test_rejects_capacitated(self):
        vm = ec2_catalog()["c1.medium"]
        inst = DRRPInstance(
            demand=np.ones(4),
            costs=on_demand_schedule(vm, 4),
            bottleneck_rate=1.0,
            bottleneck_capacity=np.ones(4),
        )
        with pytest.raises(ValueError):
            solve_drrp_facility_location(inst)

    def test_zero_demand(self):
        vm = ec2_catalog()["c1.medium"]
        inst = DRRPInstance(demand=np.zeros(4), costs=on_demand_schedule(vm, 4))
        plan = solve_drrp_facility_location(inst)
        assert plan.total_cost == pytest.approx(0.0)


class TestIntegralRelaxation:
    """The Krarup-Bilde reformulation's LP relaxation is integral for
    uncapacitated lot-sizing: solving the *LP* already yields binary chi."""

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_lp_relaxation_is_integral(self, seed):
        rng = np.random.default_rng(seed)
        T = int(rng.integers(3, 10))
        costs = CostSchedule(
            compute=rng.uniform(0.05, 1.0, T),
            storage=np.zeros(T),
            io=rng.uniform(0.01, 0.4, T),
            transfer_in=rng.uniform(0.0, 0.2, T),
            transfer_out=np.full(T, 0.17),
        )
        inst = DRRPInstance(demand=rng.uniform(0.0, 2.0, T), costs=costs)
        model, x, chi = build_facility_location_model(inst)
        compiled = model.compile()
        relaxed = solve_lp_scipy(compiled)
        assert relaxed.status is SolverStatus.OPTIMAL
        chi_vals = np.array([relaxed.x[v.index] for v in chi])
        # only count chi columns that matter (appear in some forcing row)
        frac = np.abs(chi_vals - np.round(chi_vals))
        assert np.all(frac < 1e-6)

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_reformulation_matches_dp(self, seed):
        rng = np.random.default_rng(seed)
        T = int(rng.integers(2, 10))
        costs = CostSchedule(
            compute=rng.uniform(0.05, 1.0, T),
            storage=np.zeros(T),
            io=rng.uniform(0.01, 0.4, T),
            transfer_in=rng.uniform(0.0, 0.2, T),
            transfer_out=np.full(T, 0.17),
        )
        inst = DRRPInstance(
            demand=rng.uniform(0.0, 2.0, T),
            costs=costs,
            initial_storage=float(rng.choice([0.0, 0.7])),
        )
        fl = solve_drrp_facility_location(inst)
        dp = solve_wagner_whitin(inst)
        assert fl.total_cost == pytest.approx(dp.total_cost, abs=1e-6)


class TestPureSimplexViability:
    def test_simplex_backend_solves_24h_at_root(self):
        """The reformulation makes 24 h instances tractable for the pure
        backend — the point of the ablation in DESIGN.md."""
        inst = make_instance(7, horizon=24)
        plan = solve_drrp_facility_location(inst, backend="simplex")
        ref = solve_drrp(inst, backend="scipy")
        assert plan.total_cost == pytest.approx(ref.total_cost, abs=1e-5)
        # integral relaxation => essentially no branching
        assert plan.extra["nodes"] <= 3
