"""Model.compile() memoization: invalidation, shape sharing, no aliasing."""

import numpy as np

from repro.solver.model import Model


def _toy_model(rhs=4.0):
    m = Model("toy")
    x = m.add_var("x", lb=0.0, ub=10.0)
    y = m.add_var("y", lb=0.0, ub=10.0, vtype="integer")
    m.add_constr(x + 2.0 * y <= rhs)
    m.set_objective(-x - y)
    return m


class TestInstanceCache:
    def test_second_compile_is_cached(self):
        m = _toy_model()
        p1 = m.compile()
        p2 = m.compile()
        assert p1 is not p2  # defensive copies, never the same object
        assert np.array_equal(p1.c, p2.c)
        assert np.array_equal(p1.A_ub, p2.A_ub)

    def test_mutation_invalidates(self):
        m = _toy_model()
        p1 = m.compile()
        z = m.add_var("z", lb=0.0, ub=1.0)
        m.set_objective(-z)
        p2 = m.compile()
        assert p2.num_vars == p1.num_vars + 1
        assert p2.c[-1] == -1.0

    def test_add_constr_invalidates(self):
        m = _toy_model()
        p1 = m.compile()
        x = m.variables[0]
        m.add_constr(x <= 1.5)
        p2 = m.compile()
        assert p2.num_constraints == p1.num_constraints + 1

    def test_returned_arrays_are_not_aliased(self):
        m = _toy_model()
        p1 = m.compile()
        p1.c[:] = 999.0
        p1.A_ub[:] = 999.0
        p1.b_ub[:] = 999.0
        p2 = m.compile()
        assert not np.array_equal(p1.c, p2.c)
        assert p2.c[0] == -1.0


class TestSharedShapeCache:
    def test_structurally_equal_models_share_compilation(self):
        # Two distinct Model instances with identical structure share the
        # module-level shape cache; results must still be independent.
        a = _toy_model().compile()
        b = _toy_model().compile()
        assert np.array_equal(a.c, b.c)
        assert np.array_equal(a.A_ub, b.A_ub)
        b.c[:] = 7.0
        assert a.c[0] == -1.0

    def test_different_rhs_do_not_collide(self):
        a = _toy_model(rhs=4.0).compile()
        b = _toy_model(rhs=9.0).compile()
        assert a.b_ub[0] == 4.0
        assert b.b_ub[0] == 9.0

    def test_names_do_not_affect_shared_compilation(self):
        # Variable names differ but structure matches: sharing is allowed,
        # and the variables list on each result is the owner's.
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


class TestCompileCorrectness:
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

    def test_solution_unchanged_by_caching(self):
        from repro.solver import SolverStatus, solve

        m = _toy_model()
        r1 = solve(m, backend="simplex")
        r2 = solve(m, backend="simplex")  # cached compile
        assert r1.status is SolverStatus.OPTIMAL
        assert r1.objective == r2.objective
