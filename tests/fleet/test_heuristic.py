"""The heuristic tier against its lower bound and the exact MILP.

The acceptance bar for the whole tier: the heuristic's cost is always a
valid upper bound (>= the MILP optimum, since the MILP is exact), the
Wagner–Whitin relaxation is always a valid lower bound (certified
escalation gap), and the exact-Fraction accounting re-prices to the same
objective a certificate walk computes.
"""

from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from repro.core.drrp import solve_drrp
from repro.core.lotsizing import solve_wagner_whitin
from repro.fleet import HeuristicInfeasible, generate_tenants, solve_heuristic
from repro.fleet.heuristic import _float_sum
from repro.fleet.planner import _knock
from repro.verify import certify_drrp_plan


def close(a, b, tol=1e-6):
    return abs(a - b) <= tol * (1 + abs(b))


class TestSolveHeuristic:
    def test_plan_is_feasible_and_exactly_priced(self):
        for tenant in generate_tenants(12, seed=4, horizon=16):
            res = solve_heuristic(tenant.instance)
            res.plan.validate(tenant.instance)
            report = certify_drrp_plan(tenant.instance, res.plan)
            assert report.ok, report.failures
            assert Fraction(res.plan.extra["exact_objective"]) == res.exact_objective
            assert close(float(res.exact_objective), res.objective)

    def test_objective_between_lower_bound_and_heuristic_claim(self):
        for tenant in generate_tenants(12, seed=8, horizon=16):
            res = solve_heuristic(tenant.instance)
            ww = solve_wagner_whitin(tenant.instance)
            assert res.lower_bound <= ww.objective + 1e-9
            assert float(res.exact_objective) >= res.lower_bound - 1e-9
            assert res.gap >= 0.0

    def test_heuristic_never_beats_the_milp(self):
        ratios = []
        for tenant in generate_tenants(20, seed=0, horizon=16):
            res = solve_heuristic(tenant.instance)
            milp = solve_drrp(tenant.instance, backend="auto")
            assert float(res.exact_objective) >= float(milp.objective) - 1e-6
            ratios.append(float(res.exact_objective) / max(float(milp.objective), 1e-9))
        # The paper-quality bar the bench gates on, on a small cohort.
        assert float(np.mean(ratios)) <= 1.05

    def test_matches_ww_exactly_on_uncapacitated_single_setup(self):
        # One cheap setup slot and huge setups elsewhere: both the DP and
        # the greedy must find the single-setup plan, so they agree.
        tenant = generate_tenants(1, seed=2, horizon=10)[0]
        inst = tenant.instance
        compute = np.full(10, 500.0)
        compute[0] = 0.5
        inst = replace(inst, costs=inst.costs.with_compute(compute))
        res = solve_heuristic(inst)
        ww = solve_wagner_whitin(inst)
        assert close(float(res.exact_objective), ww.objective)

    def test_respects_knocked_slots(self):
        tenant = generate_tenants(1, seed=6, horizon=12)[0]
        knocked = _knock(tenant.instance, (3, 4))
        res = solve_heuristic(knocked)
        assert res.plan.alpha[3] <= 1e-12 and res.plan.alpha[4] <= 1e-12
        rate = knocked.bottleneck_rate
        assert np.all(rate * res.plan.alpha <= knocked.bottleneck_capacity + 1e-6)

    def test_infeasible_when_every_productive_slot_is_knocked(self):
        tenant = generate_tenants(1, seed=1, horizon=8)[0]
        inst = tenant.instance
        assert float(inst.demand[0]) > float(inst.initial_storage)
        knocked = _knock(inst, tuple(range(8)))
        with pytest.raises(HeuristicInfeasible):
            solve_heuristic(knocked)


def test_setup_cost_sum_is_numpys_to_the_bit():
    # The search compares candidate costs without a tolerance beyond
    # _TINY, so its setup-cost sum must round exactly as np.sum does,
    # including numpy's pairwise blocks at 8 and 128 terms.
    rng = np.random.default_rng(3)
    for n in [*range(40), 127, 128, 129, 136, 200, 257, 300]:
        values = rng.uniform(0.0, 100.0, n) * 10.0 ** rng.integers(-6, 6, n)
        assert _float_sum(values.tolist()) == float(np.sum(values))
