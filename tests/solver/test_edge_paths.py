"""Edge-path coverage: limits, reprs, error statuses, small conversions."""

import math

import numpy as np
import pytest

from repro.solver import (
    BranchAndBoundOptions,
    Deadline,
    Model,
    SolverResult,
    SolverStatus,
    branch_and_bound,
    solve,
    solve_compiled,
)
from repro.solver.model import CompiledProblem
from repro.solver.scipy_backend import solve_lp_scipy
from repro.solver.simplex import solve_lp_simplex
from repro.verify.certify import certify_result


class TestSimplexLimits:
    def test_iteration_limit_status(self):
        rng = np.random.default_rng(0)
        m = Model()
        xs = [m.add_var(f"x{i}", ub=10) for i in range(8)]
        for i in range(10):
            row = rng.uniform(-1, 1, 8)
            m.add_constr(sum(float(row[j]) * xs[j] for j in range(8)) <= 5.0)
        m.set_objective(sum(-x for x in xs))
        p = m.compile()
        res = solve_lp_simplex(p, max_iter=1)
        assert res.status in (SolverStatus.ITERATION_LIMIT, SolverStatus.OPTIMAL)

    # A problem with no rows is answered by a bound inspection, cold or
    # warm; every optimum must still certify exactly.

    @staticmethod
    def _box(c, lb=None, ub=None):
        n = len(c)
        return CompiledProblem(
            c=np.asarray(c, float), c0=0.0,
            A_ub=np.zeros((0, n)), b_ub=np.zeros(0),
            A_eq=np.zeros((0, n)), b_eq=np.zeros(0),
            lb=np.zeros(n) if lb is None else np.asarray(lb, float),
            ub=np.full(n, np.inf) if ub is None else np.asarray(ub, float),
            integrality=np.zeros(n, dtype=int), maximize=False,
        )

    def test_raw_interface_empty_constraints(self):
        p = self._box([1.0, 2.0])
        res = solve_lp_simplex(p)
        assert res.status is SolverStatus.OPTIMAL
        assert res.objective == 0.0 and res.iterations == 0
        assert certify_result(p, res).verdict == "certified"

    def test_raw_interface_unbounded_free_direction(self):
        res = solve_lp_simplex(self._box([-1.0]))
        assert res.status is SolverStatus.UNBOUNDED

    def test_zero_row_costs_pick_the_bounds(self):
        # A negative cost sits at its upper bound (a mirrored column at its
        # finite ub), a positive one at its lower bound.
        p = self._box([-1.0, 2.0, -1.0], lb=[0.0, -1.0, -np.inf], ub=[2.0, 3.0, 5.0])
        res = solve_lp_simplex(p)
        assert res.status is SolverStatus.OPTIMAL
        assert res.x.tolist() == [2.0, -1.0, 5.0]
        assert res.objective == -9.0
        assert res.extra["basis"].at_upper.tolist() == [True, False, False]
        assert certify_result(p, res).verdict == "certified"

    def test_zero_row_warm_resolve(self):
        p = self._box([-1.0, 2.0], ub=[2.0, 3.0])
        basis = solve_lp_simplex(p).extra["basis"]
        child = CompiledProblem(
            c=p.c, c0=p.c0, A_ub=p.A_ub, b_ub=p.b_ub, A_eq=p.A_eq, b_eq=p.b_eq,
            lb=np.array([0.0, 1.0]), ub=np.array([1.0, 3.0]),
            integrality=p.integrality, maximize=False,
        )
        res = solve_lp_simplex(child, warm_start=basis)
        assert res.status is SolverStatus.OPTIMAL
        assert res.extra["warm"] == {"used": True, "mode": "primal"}
        assert res.x.tolist() == [1.0, 1.0]
        assert certify_result(child, res).verdict == "certified"


class TestBranchBoundLimits:
    def _model(self):
        rng = np.random.default_rng(1)
        m = Model()
        xs = [m.add_var(f"x{i}", vtype="binary") for i in range(16)]
        vals = rng.integers(3, 30, 16)
        wts = rng.integers(2, 12, 16)
        m.add_constr(sum(int(w) * x for w, x in zip(wts, xs)) <= int(wts.sum() // 3))
        m.set_objective(sum(int(v) * x for v, x in zip(vals, xs)), sense="max")
        return m.compile()

    def test_time_limit(self):
        res = branch_and_bound(self._model(), solve_lp_scipy, deadline=Deadline(0.0))
        assert res.status in (
            SolverStatus.TIME_LIMIT, SolverStatus.FEASIBLE, SolverStatus.OPTIMAL
        )

    def test_node_limit_zero(self):
        res = branch_and_bound(
            self._model(), solve_lp_scipy, BranchAndBoundOptions(node_limit=0)
        )
        assert res.status in (SolverStatus.NODE_LIMIT, SolverStatus.FEASIBLE)

    def test_root_infeasible(self):
        m = Model()
        x = m.add_var("x", vtype="binary")
        m.add_constr(x >= 2)
        res = branch_and_bound(m.compile(), solve_lp_scipy)
        assert res.status is SolverStatus.INFEASIBLE

    def test_root_unbounded(self):
        m = Model()
        x = m.add_var("x", vtype="integer")  # unbounded above
        y = m.add_var("y")
        m.add_constr(y <= 1)
        m.set_objective(-x)
        res = branch_and_bound(m.compile(), solve_lp_scipy)
        assert res.status is SolverStatus.UNBOUNDED


class TestResultTypes:
    def test_value_of_without_solution(self):
        m = Model()
        x = m.add_var("x", ub=1)
        res = SolverResult(status=SolverStatus.INFEASIBLE)
        with pytest.raises(ValueError):
            res.value_of(x)

    def test_gap_with_nan(self):
        res = SolverResult(status=SolverStatus.ERROR)
        assert res.gap == math.inf

    def test_status_has_solution(self):
        assert SolverStatus.OPTIMAL.has_solution
        assert SolverStatus.FEASIBLE.has_solution
        assert not SolverStatus.INFEASIBLE.has_solution


class TestReprsAndMisc:
    def test_model_repr(self):
        m = Model("demo")
        m.add_var("x", vtype="integer")
        m.add_constr(m.variables[0] <= 3)
        text = repr(m)
        assert "demo" in text and "int=1" in text

    def test_linexpr_repr(self):
        m = Model()
        x = m.add_var("cost")
        assert "cost" in repr(2 * x + 1)

    def test_variable_repr(self):
        m = Model()
        v = m.add_var("alpha", lb=1, ub=2, vtype="integer")
        assert "alpha" in repr(v) and "integer" in repr(v)

    def test_constraint_repr(self):
        m = Model()
        x = m.add_var("x")
        assert "<=" in repr(x <= 4)

    def test_presolve_infeasible_through_solve(self):
        m = Model()
        x = m.add_var("x", ub=1)
        m.add_constr(x >= 5)
        res = solve(m)  # presolve catches it before any backend runs
        assert res.status is SolverStatus.INFEASIBLE

    def test_solve_compiled_respects_maximize(self):
        m = Model()
        x = m.add_var("x", ub=7)
        m.set_objective(x, sense="max")
        res = solve_compiled(m.compile())
        assert res.objective == pytest.approx(7.0)

    def test_compiled_num_properties(self):
        m = Model()
        m.add_var("a", vtype="binary")
        m.add_var("b")
        m.add_constr(m.variables[0] + m.variables[1] <= 2)
        p = m.compile()
        assert p.num_vars == 2
        assert p.num_constraints == 1
