"""Model.compile(): fresh arrays per call, edits show, rows fold to <= form."""

import numpy as np

from repro.solver import compile_cache_stats, reset_compile_cache
from repro.solver.model import Model


def _toy_model(rhs=4.0):
    m = Model("toy")
    x = m.add_var("x", lb=0.0, ub=10.0)
    y = m.add_var("y", lb=0.0, ub=10.0, vtype="integer")
    m.add_constr(x + 2.0 * y <= rhs)
    m.set_objective(-x - y)
    return m


_ARRAYS = ("c", "A_ub", "b_ub", "A_eq", "b_eq", "lb", "ub", "integrality")


class TestCompileCorrectness:
    def test_new_variable_shows_on_recompile(self):
        m = _toy_model()
        p1 = m.compile()
        z = m.add_var("z", lb=0.0, ub=1.0)
        m.set_objective(-z)
        p2 = m.compile()
        assert p2.num_vars == p1.num_vars + 1
        assert p2.c[-1] == -1.0

    def test_added_constraint_shows_on_recompile(self):
        m = _toy_model()
        p1 = m.compile()
        m.add_constr(m.variables[0] <= 1.5)
        p2 = m.compile()
        assert p2.num_constraints == p1.num_constraints + 1
        assert p2.b_ub[-1] == 1.5

    def test_recompile_is_a_fresh_equal_problem(self):
        # Callers mutate compiled arrays in place (branching, presolve), so
        # a recompile must equal the first compile without sharing memory.
        m = _toy_model()
        p1 = m.compile()
        p2 = m.compile()
        assert p1 is not p2
        for name in _ARRAYS:
            assert np.array_equal(getattr(p1, name), getattr(p2, name))
            assert not np.shares_memory(getattr(p1, name), getattr(p2, name))

    def test_mutating_a_compile_leaves_the_next_intact(self):
        m = _toy_model()
        p1 = m.compile()
        p1.c[:] = 999.0
        p1.A_ub[:] = 999.0
        p1.b_ub[:] = 999.0
        p2 = m.compile()
        assert p2.c[0] == -1.0
        assert p2.A_ub[0, 0] == 1.0 and p2.b_ub[0] == 4.0

    def test_equal_models_compile_to_independent_arrays(self):
        a = _toy_model().compile()
        b = _toy_model().compile()
        for name in _ARRAYS:
            assert np.array_equal(getattr(a, name), getattr(b, name))
            assert not np.shares_memory(getattr(a, name), getattr(b, name))
        b.c[:] = 7.0
        assert a.c[0] == -1.0

    def test_values_come_from_each_model(self):
        a = _toy_model(rhs=4.0).compile()
        b = _toy_model(rhs=9.0).compile()
        assert a.b_ub[0] == 4.0
        assert b.b_ub[0] == 9.0

    def test_each_result_carries_its_own_variables(self):
        m1 = Model("a")
        v1 = m1.add_var("first", lb=0.0, ub=1.0)
        m1.set_objective(v1)
        m2 = Model("b")
        v2 = m2.add_var("second", lb=0.0, ub=1.0)
        m2.set_objective(v2)
        p1 = m1.compile()
        p2 = m2.compile()
        assert p1.variables[0].name == "first"
        assert p2.variables[0].name == "second"

    def test_ge_rows_fold_to_ub_form(self):
        m = Model()
        x = m.add_var("x", lb=0.0, ub=5.0)
        y = m.add_var("y", lb=0.0, ub=5.0)
        m.add_constr(x + y >= 2.0)
        m.add_constr(x - y <= 1.0)
        m.set_objective(x + y)
        p = m.compile()
        # >= row stored negated in <= form
        assert p.A_ub.shape == (2, 2)
        rows = {tuple(r): rhs for r, rhs in zip(p.A_ub, p.b_ub)}
        assert rows[(-1.0, -1.0)] == -2.0
        assert rows[(1.0, -1.0)] == 1.0

    def test_recompile_solves_the_same(self):
        from repro.solver import SolverStatus, solve

        m = _toy_model()
        r1 = solve(m, backend="simplex")
        r2 = solve(m, backend="simplex")
        assert r1.status is SolverStatus.OPTIMAL
        assert r1.objective == r2.objective


def test_every_compile_is_a_full_build():
    reset_compile_cache()
    m = _toy_model()
    m.compile()
    m.compile()
    other = Model("other")
    x = other.add_var("x", lb=0.0)
    other.add_constr(x <= 3.0)
    other.set_objective(x)
    other.compile()
    stats = compile_cache_stats()
    assert stats["compiles"] == 3
    assert stats["full_builds"] == 3


def test_counter_reports_no_cache_hits_and_resets():
    reset_compile_cache()
    _toy_model().compile()
    _toy_model().compile()
    assert compile_cache_stats() == {
        "compiles": 2, "instance_hits": 0, "shape_hits": 0, "full_builds": 2,
    }
    reset_compile_cache()
    assert compile_cache_stats() == {
        "compiles": 0, "instance_hits": 0, "shape_hits": 0, "full_builds": 0,
    }
