"""LP sensitivity (duals/reduced costs) and B&B warm starts."""

import numpy as np
import pytest

from repro.solver import (
    BranchAndBoundOptions,
    Model,
    SolverStatus,
    branch_and_bound,
    lp_sensitivity,
)
from repro.solver.scipy_backend import solve_lp_scipy


class TestLPSensitivity:
    def _diet_lp(self):
        # min 2x + 3y  s.t. x + y >= 4, x <= 10, y <= 10
        m = Model()
        x = m.add_var("x", ub=10)
        y = m.add_var("y", ub=10)
        m.add_constr(x + y >= 4)
        m.set_objective(2 * x + 3 * y)
        return m

    def test_shadow_price_of_binding_row(self):
        p = self._diet_lp().compile()
        rep = lp_sensitivity(p)
        # constraint compiled as -x - y <= -4; relaxing b_ub by 1 unit
        # (allowing one unit less coverage) saves $2 -> marginal is +2
        assert rep.objective == pytest.approx(8.0)
        assert abs(rep.duals_ub[0]) == pytest.approx(2.0)

    def test_dual_matches_finite_difference(self):
        m = self._diet_lp()
        base = lp_sensitivity(m.compile())
        m2 = Model()
        x = m2.add_var("x", ub=10)
        y = m2.add_var("y", ub=10)
        m2.add_constr(x + y >= 5)  # one more unit of requirement
        m2.set_objective(2 * x + 3 * y)
        bumped = lp_sensitivity(m2.compile())
        fd = bumped.objective - base.objective
        # marginal cost of the requirement = |dual| of the row
        assert fd == pytest.approx(abs(base.duals_ub[0]), abs=1e-9)

    def test_reduced_cost_of_nonbasic_variable(self):
        p = self._diet_lp().compile()
        rep = lp_sensitivity(p)
        # y stays at 0: its reduced cost is c_y - c_x = 1 (cost of forcing
        # one unit of y into the solution)
        assert rep.x[1] == pytest.approx(0.0)
        assert rep.reduced_costs[1] == pytest.approx(1.0)

    def test_equality_duals(self):
        m = Model()
        x = m.add_var("x")
        y = m.add_var("y")
        m.add_constr(x + y == 6)
        m.set_objective(x + 4 * y)
        rep = lp_sensitivity(m.compile())
        assert rep.duals_eq[0] == pytest.approx(1.0)  # served by cheap x

    def test_maximize_sign_flip(self):
        m = Model()
        x = m.add_var("x", ub=5)
        m.add_constr(x <= 3)
        m.set_objective(x, sense="max")
        rep = lp_sensitivity(m.compile())
        assert rep.objective == pytest.approx(3.0)
        # one more unit of the cap is worth +1 in the maximize sense
        assert rep.duals_ub[0] == pytest.approx(1.0)

    def test_infeasible_raises(self):
        m = Model()
        x = m.add_var("x", ub=1)
        m.add_constr(x >= 3)
        with pytest.raises(RuntimeError):
            lp_sensitivity(m.compile())

    def test_binding_rows_helper(self):
        p = self._diet_lp().compile()
        rep = lp_sensitivity(p)
        assert 0 in rep.binding_ub_rows()


class TestWarmStart:
    def _knapsack(self):
        m = Model()
        xs = [m.add_var(f"x{i}", vtype="binary") for i in range(8)]
        values = [9, 7, 6, 5, 5, 4, 3, 2]
        weights = [5, 4, 3, 3, 2, 2, 2, 1]
        m.add_constr(sum(w * x for w, x in zip(weights, xs)) <= 10)
        m.set_objective(sum(v * x for v, x in zip(values, xs)), sense="max")
        return m

    def test_feasible_incumbent_accepted(self):
        p = self._knapsack().compile()
        x0 = np.zeros(8)
        x0[7] = 1.0  # take the lightest item: feasible
        res = branch_and_bound(
            p, solve_lp_scipy, BranchAndBoundOptions(initial_incumbent=x0)
        )
        assert res.status is SolverStatus.OPTIMAL
        assert res.objective >= 2.0  # never worse than the seed

    def test_infeasible_incumbent_warns_and_is_ignored(self):
        p = self._knapsack().compile()
        x0 = np.ones(8)  # overweight
        with pytest.warns(UserWarning, match="initial_incumbent"):
            res = branch_and_bound(
                p, solve_lp_scipy, BranchAndBoundOptions(initial_incumbent=x0)
            )
        assert res.status is SolverStatus.OPTIMAL

    def test_wrong_shape_rejected_loudly(self):
        # Regression: a wrong-shaped warm start used to be dropped silently,
        # discarding valid Wagner-Whitin seeds on any bookkeeping slip.
        p = self._knapsack().compile()
        with pytest.raises(ValueError, match="initial_incumbent"):
            branch_and_bound(
                p, solve_lp_scipy, BranchAndBoundOptions(initial_incumbent=np.zeros(3))
            )

    def test_optimal_incumbent_short_circuits(self):
        p = self._knapsack().compile()
        # solve once to learn the optimum, then re-solve seeded with it
        ref = branch_and_bound(p, solve_lp_scipy)
        seeded = branch_and_bound(
            p, solve_lp_scipy, BranchAndBoundOptions(initial_incumbent=np.round(ref.x))
        )
        assert seeded.objective == pytest.approx(ref.objective, abs=1e-6)
        assert seeded.nodes <= ref.nodes

    def test_drrp_warm_start_path(self):
        from repro.core import DRRPInstance, solve_drrp

        inst = DRRPInstance.example(horizon=10)
        cold = solve_drrp(inst, backend="simplex")
        warm = solve_drrp(inst, backend="simplex", warm_start=True)
        assert warm.total_cost == pytest.approx(cold.total_cost, abs=1e-6)
        # the WW seed is optimal, so the warm run never needs more nodes
        assert warm.extra["nodes"] <= cold.extra["nodes"]
