"""DRRP model tests: constraint satisfaction, economics, baseline comparison,
and the Wagner-Whitin cross-check (property-based)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    ConstantDemand,
    DRRPInstance,
    NormalDemand,
    on_demand_schedule,
    solve_drrp,
    solve_noplan,
    solve_wagner_whitin,
)
from repro.core.costs import CostSchedule
from repro.market import ec2_catalog


def make_instance(demand, vm="m1.large", **kwargs):
    demand = np.asarray(demand, dtype=float)
    vmobj = ec2_catalog()[vm]
    return DRRPInstance(
        demand=demand,
        costs=on_demand_schedule(vmobj, demand.shape[0]),
        vm_name=vm,
        **kwargs,
    )


class TestInstanceValidation:
    def test_negative_demand_rejected(self):
        with pytest.raises(ValueError):
            make_instance([-1.0, 2.0])

    def test_length_mismatch_rejected(self):
        vm = ec2_catalog()["m1.large"]
        with pytest.raises(ValueError):
            DRRPInstance(demand=np.ones(5), costs=on_demand_schedule(vm, 4))

    def test_bottleneck_requires_both(self):
        with pytest.raises(ValueError):
            make_instance([1.0], bottleneck_rate=1.0)

    def test_example_constructor(self):
        inst = DRRPInstance.example()
        assert inst.horizon == 24 and inst.vm_name == "m1.large"


class TestDRRPSolutions:
    def test_plan_satisfies_all_constraints(self):
        inst = make_instance(NormalDemand().sample(24, 0))
        plan = solve_drrp(inst)
        plan.validate(inst)  # raises on violation

    def test_consolidation_under_high_rental_cost(self):
        inst = make_instance(ConstantDemand(0.4).sample(24), vm="m1.xlarge")
        plan = solve_drrp(inst)
        assert plan.rental_frequency < 1.0  # fewer rentals than slots

    def test_cheap_rental_runs_every_slot(self):
        # make compute nearly free: renting every slot avoids all holding
        vm = ec2_catalog()["c1.medium"]
        c = on_demand_schedule(vm, 12).with_compute(np.full(12, 1e-6))
        inst = DRRPInstance(demand=np.full(12, 0.5), costs=c)
        plan = solve_drrp(inst)
        assert plan.rental_frequency == 1.0
        assert np.allclose(plan.beta, 0.0, atol=1e-6)

    def test_initial_storage_reduces_cost(self):
        d = ConstantDemand(0.4).sample(12)
        plain = solve_drrp(make_instance(d))
        seeded = solve_drrp(make_instance(d, initial_storage=2.0))
        assert seeded.total_cost < plain.total_cost

    def test_zero_demand_costs_only_transfer_out(self):
        inst = make_instance(np.zeros(6))
        plan = solve_drrp(inst)
        assert plan.total_cost == pytest.approx(0.0)
        assert plan.rental_frequency == 0.0

    def test_bottleneck_limits_generation(self):
        d = np.array([1.0, 1.0, 1.0, 1.0])
        # capacity allows at most 1.2 GB of output per slot
        inst = make_instance(
            d, bottleneck_rate=1.0, bottleneck_capacity=np.full(4, 1.2)
        )
        plan = solve_drrp(inst)
        assert np.all(plan.alpha <= 1.2 + 1e-6)
        # consolidation becomes impossible; must rent nearly every slot
        assert plan.rental_frequency >= 0.75

    def test_bottleneck_forces_prebuild_for_spike(self):
        d = np.array([0.0, 0.0, 3.0])
        inst = make_instance(
            d, bottleneck_rate=1.0, bottleneck_capacity=np.full(3, 1.5)
        )
        plan = solve_drrp(inst)
        plan.validate(inst)
        assert plan.alpha[:2].sum() >= 1.5 - 1e-6  # had to start early

    def test_cost_decomposition_sums_to_objective(self):
        inst = make_instance(NormalDemand().sample(24, 3))
        plan = solve_drrp(inst)
        parts = (
            plan.compute_cost
            + plan.inventory_cost
            + plan.transfer_in_cost
            + plan.transfer_out_cost
        )
        assert parts == pytest.approx(plan.objective, abs=1e-6)

    def test_cost_shares_sum_to_one(self):
        inst = make_instance(NormalDemand().sample(24, 4))
        plan = solve_drrp(inst)
        assert sum(plan.cost_shares().values()) == pytest.approx(1.0)

    def test_backends_agree(self):
        inst = make_instance(NormalDemand().sample(10, 5))
        a = solve_drrp(inst, backend="scipy")
        b = solve_drrp(inst, backend="bb-scipy")
        c = solve_drrp(inst, backend="simplex")
        assert a.total_cost == pytest.approx(b.total_cost, abs=1e-5)
        assert a.total_cost == pytest.approx(c.total_cost, abs=1e-5)


    def test_validate_checks_the_bottleneck_row(self):
        demand = np.array([0.4, 0.5, 0.3])
        free = make_instance(demand)
        capped = make_instance(demand, bottleneck_rate=2.0,
                               bottleneck_capacity=np.array([10.0, 0.0, 0.6]))
        plan = solve_noplan(free)  # generates 0.5 in slot 1, 0.3 in slot 2
        plan.validate(free)
        with pytest.raises(AssertionError, match="bottleneck capacity exceeded at t=1"):
            plan.validate(capped)
        solve_drrp(capped).validate(capped)


class TestNoPlanBaseline:
    def test_noplan_never_cheaper_than_drrp(self):
        for seed in range(5):
            inst = make_instance(NormalDemand().sample(24, seed))
            assert solve_noplan(inst).total_cost >= solve_drrp(inst).total_cost - 1e-6

    def test_noplan_holds_no_new_inventory(self):
        inst = make_instance(NormalDemand().sample(24, 0))
        plan = solve_noplan(inst)
        assert np.allclose(plan.beta, 0.0)

    def test_noplan_uses_initial_storage_first(self):
        inst = make_instance(np.array([1.0, 1.0, 1.0]), initial_storage=1.5)
        plan = solve_noplan(inst)
        assert plan.chi[0] == 0.0  # first slot fully covered by epsilon
        assert plan.alpha[1] == pytest.approx(0.5)

    def test_saving_grows_with_class_power(self):
        d = NormalDemand().sample(24, 42)
        reductions = []
        for vm in ("c1.medium", "m1.large", "m1.xlarge"):
            inst = make_instance(d, vm=vm)
            drrp = solve_drrp(inst).total_cost
            noplan = solve_noplan(inst).total_cost
            reductions.append(1 - drrp / noplan)
        assert reductions[0] < reductions[1] < reductions[2]  # Figure 10


@st.composite
def random_lot_sizing(draw):
    T = draw(st.integers(2, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    demand = np.round(rng.uniform(0.0, 2.0, T), 3)
    setup = np.round(rng.uniform(0.05, 1.0, T), 3)
    holding = np.round(rng.uniform(0.01, 0.4, T), 3)
    tin = np.round(rng.uniform(0.0, 0.2, T), 3)
    eps = float(draw(st.sampled_from([0.0, 0.0, 0.5, 1.0])))
    return demand, setup, holding, tin, eps


class TestWagnerWhitinCrossCheck:
    """The DP and the MILP must agree on every uncapacitated instance."""

    def _instance(self, demand, setup, holding, tin, eps):
        T = demand.shape[0]
        costs = CostSchedule(
            compute=setup,
            storage=np.zeros(T),
            io=holding,
            transfer_in=tin,
            transfer_out=np.full(T, 0.17),
        )
        return DRRPInstance(demand=demand, costs=costs, phi=0.5, initial_storage=eps)

    @given(random_lot_sizing())
    @settings(max_examples=60, deadline=None)
    def test_dp_matches_milp(self, data):
        inst = self._instance(*data)
        dp = solve_wagner_whitin(inst)
        milp = solve_drrp(inst, backend="scipy")
        assert dp.total_cost == pytest.approx(milp.total_cost, abs=1e-6)

    @given(random_lot_sizing())
    @settings(max_examples=30, deadline=None)
    def test_dp_plan_is_feasible(self, data):
        inst = self._instance(*data)
        plan = solve_wagner_whitin(inst)
        plan.validate(inst)

    def _agrees_with_milp(self, demand, setup, holding, tin, eps=0.0):
        inst = self._instance(
            *(np.asarray(v, dtype=float) for v in (demand, setup, holding, tin)), eps
        )
        dp = solve_wagner_whitin(inst)
        dp.validate(inst)
        milp = solve_drrp(inst, backend="scipy")
        assert dp.total_cost == pytest.approx(milp.total_cost, abs=1e-6)
        return dp

    def test_initial_storage_covers_all_demand(self):
        dp = self._agrees_with_milp(
            [0.5, 0.25, 1.0], [0.3, 0.2, 0.4], [0.1, 0.05, 0.2], [0.1, 0.1, 0.1], eps=2.0
        )
        assert not dp.chi.any() and not dp.alpha.any()
        assert dp.beta.tolist() == [1.5, 1.25, 0.25]

    def test_zero_demand_slots_mid_horizon(self):
        # Slots 2-4 need nothing; the cheap setup at zero-demand slot 3
        # beats both carrying slot 0's lot across the gap and paying the
        # setup at slot 5.
        dp = self._agrees_with_milp(
            [1.0, 0.5, 0.0, 0.0, 0.0, 1.5, 0.75],
            [0.4, 0.9, 0.9, 0.05, 0.9, 0.9, 0.9],
            [0.1] * 7,
            [0.1] * 7,
        )
        assert dp.chi.tolist() == [1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0]

    def test_horizon_one(self):
        dp = self._agrees_with_milp([1.25], [0.5], [0.1], [0.2])
        assert dp.chi.tolist() == [1.0] and dp.alpha.tolist() == [1.25]
        assert dp.total_cost == pytest.approx(0.5 + 0.2 * 0.5 * 1.25 + 0.17 * 1.25)

    def test_exact_tie_keeps_earliest_slot(self):
        # Slot 2's demand costs the same from any slot: no holding, equal
        # setups and transfer prices.  The earliest slot wins.
        dp = self._agrees_with_milp([0.0, 0.0, 1.0], [1.0] * 3, [0.0] * 3, [0.25] * 3)
        assert dp.chi.tolist() == [1.0, 0.0, 0.0]
        # One lot for both slots (setup 1 + holding 1) ties two lots
        # (setup 2), and the single lot at slot 0 wins.
        dp = self._agrees_with_milp([1.0, 1.0], [1.0, 1.0], [1.0, 1.0], [0.25, 0.25])
        assert dp.chi.tolist() == [1.0, 0.0]
        assert dp.alpha.tolist() == [2.0, 0.0]

    def test_dp_rejects_capacitated(self):
        inst = DRRPInstance(
            demand=np.ones(3),
            costs=on_demand_schedule(ec2_catalog()["c1.medium"], 3),
            bottleneck_rate=1.0,
            bottleneck_capacity=np.ones(3),
        )
        with pytest.raises(ValueError):
            solve_wagner_whitin(inst)

    def test_dp_on_paper_scale_instance(self):
        inst = DRRPInstance.example(horizon=48, seed=9)
        dp = solve_wagner_whitin(inst)
        milp = solve_drrp(inst, backend="scipy")
        assert dp.total_cost == pytest.approx(milp.total_cost, abs=1e-6)
