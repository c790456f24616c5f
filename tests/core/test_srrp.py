"""SRRP tests: degenerate-tree equivalence with DRRP, non-anticipativity,
recourse behaviour, and expected-cost consistency."""

import numpy as np
import pytest

from repro.core import (
    DRRPInstance,
    SRRPInstance,
    build_tree,
    on_demand_schedule,
    solve_drrp,
    solve_srrp,
    spot_schedule,
)
from repro.market import ec2_catalog


VM = ec2_catalog()["c1.medium"]


def chain_tree(prices):
    """Degenerate tree: one scenario with the given price path."""
    dists = [(np.array([p]), np.array([1.0])) for p in prices[1:]]
    return build_tree(prices[0], dists)


def branched_tree(root, low, high, p_low, depth):
    dists = [(np.array([low, high]), np.array([p_low, 1 - p_low]))] * depth
    return build_tree(root, dists)


class TestDegenerateEquivalence:
    """SRRP on a single-scenario tree == DRRP with that price path."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_drrp(self, seed):
        rng = np.random.default_rng(seed)
        T = 6
        demand = rng.uniform(0.1, 0.8, T)
        prices = rng.uniform(0.04, 0.08, T)
        srrp_inst = SRRPInstance(
            demand=demand,
            costs=on_demand_schedule(VM, T),
            tree=chain_tree(prices),
        )
        drrp_inst = DRRPInstance(demand=demand, costs=spot_schedule(VM, prices))
        s = solve_srrp(srrp_inst)
        d = solve_drrp(drrp_inst)
        assert s.expected_cost == pytest.approx(d.total_cost, abs=1e-6)
        assert np.allclose(s.chi, d.chi)


class TestInstanceValidation:
    def test_demand_must_span_horizon(self):
        tree = chain_tree([0.06, 0.06])
        with pytest.raises(ValueError):
            SRRPInstance(demand=np.ones(5), costs=on_demand_schedule(VM, 5), tree=tree)

    def test_negative_demand_rejected(self):
        tree = chain_tree([0.06, 0.06])
        with pytest.raises(ValueError):
            SRRPInstance(
                demand=np.array([1.0, -1.0]),
                costs=on_demand_schedule(VM, 2),
                tree=tree,
            )


class TestRecourseStructure:
    def test_plan_satisfies_tree_constraints(self):
        tree = branched_tree(0.06, 0.05, 0.2, 0.7, 4)
        inst = SRRPInstance(
            demand=np.full(5, 0.4), costs=on_demand_schedule(VM, 5), tree=tree
        )
        plan = solve_srrp(inst)
        plan.validate(inst)

    def test_nonanticipativity_by_construction(self):
        """Scenarios sharing a prefix share the decisions on that prefix."""
        tree = branched_tree(0.06, 0.05, 0.2, 0.5, 3)
        inst = SRRPInstance(
            demand=np.full(4, 0.4), costs=on_demand_schedule(VM, 4), tree=tree
        )
        plan = solve_srrp(inst)
        leaves = tree.leaves()
        # group scenario decision paths by their depth-1 ancestor
        by_branch = {}
        for leaf in leaves:
            path = tree.path(leaf.index)
            by_branch.setdefault(path[1].index, []).append(
                plan.decisions_for_scenario(leaf.index)
            )
        for branch, decisions in by_branch.items():
            firsts = {(round(d["alpha"][0], 9), round(d["alpha"][1], 9)) for d in decisions}
            assert len(firsts) == 1  # identical through the shared prefix

    def test_recourse_differs_across_branches(self):
        """With a huge price gap, cheap and expensive branches plan differently."""
        tree = branched_tree(0.06, 0.05, 0.2, 0.5, 3)
        inst = SRRPInstance(
            demand=np.full(4, 0.4), costs=on_demand_schedule(VM, 4), tree=tree
        )
        plan = solve_srrp(inst)
        depth1 = [n for n in tree.nodes if n.depth == 1]
        rentals = {n.price: plan.chi[n.index] for n in depth1}
        # the cheap state should rent at least as often as the expensive one
        assert rentals[0.05] >= rentals[0.2]

    def test_expected_cost_matches_scenario_average(self):
        tree = branched_tree(0.06, 0.05, 0.1, 0.6, 3)
        demand = np.array([0.4, 0.3, 0.5, 0.2])
        inst = SRRPInstance(demand=demand, costs=on_demand_schedule(VM, 4), tree=tree)
        plan = solve_srrp(inst)
        # recompute (13) by walking scenarios
        total = 0.0
        c = inst.costs
        for leaf in tree.leaves():
            d = plan.decisions_for_scenario(leaf.index)
            path = tree.path(leaf.index)
            cost = 0.0
            for k, node in enumerate(path):
                t = node.depth
                cost += (
                    c.transfer_in[t] * inst.phi * d["alpha"][k]
                    + c.holding[t] * d["beta"][k]
                    + c.transfer_out[t] * demand[t]
                    + node.price * d["chi"][k]
                )
            total += leaf.abs_prob * cost
        assert total == pytest.approx(plan.expected_cost, abs=1e-6)


class TestStochasticValue:
    def test_srrp_hedges_against_price_spike_risk(self):
        """When tomorrow may be expensive, SRRP pre-builds more at the root
        than deterministic planning at the mean price would."""
        demand = np.full(4, 0.5)
        lam = VM.on_demand_price
        p_spike = 0.5
        tree = branched_tree(0.06, 0.06, lam, 1 - p_spike, 3)
        srrp = solve_srrp(
            SRRPInstance(demand=demand, costs=on_demand_schedule(VM, 4), tree=tree)
        )
        mean_price = (1 - p_spike) * 0.06 + p_spike * lam
        det = solve_drrp(
            DRRPInstance(
                demand=demand,
                costs=spot_schedule(VM, np.array([0.06] + [mean_price] * 3)),
            )
        )
        assert srrp.first_alpha >= det.alpha[0] - 1e-9

    def test_expected_cost_below_worst_case(self):
        tree = branched_tree(0.06, 0.05, 0.2, 0.7, 3)
        demand = np.full(4, 0.4)
        inst = SRRPInstance(demand=demand, costs=on_demand_schedule(VM, 4), tree=tree)
        plan = solve_srrp(inst)
        worst = solve_drrp(
            DRRPInstance(demand=demand, costs=spot_schedule(VM, np.array([0.06, 0.2, 0.2, 0.2])))
        )
        best = solve_drrp(
            DRRPInstance(demand=demand, costs=spot_schedule(VM, np.array([0.06, 0.05, 0.05, 0.05])))
        )
        assert best.total_cost - 1e-9 <= plan.expected_cost <= worst.total_cost + 1e-9

    def test_backends_agree_on_small_tree(self):
        tree = branched_tree(0.06, 0.05, 0.2, 0.5, 2)
        inst = SRRPInstance(
            demand=np.full(3, 0.4), costs=on_demand_schedule(VM, 3), tree=tree
        )
        a = solve_srrp(inst, backend="scipy")
        b = solve_srrp(inst, backend="simplex")
        assert a.expected_cost == pytest.approx(b.expected_cost, abs=1e-5)
