"""Branch-and-bound correctness: knapsacks, lot-sizing-like MILPs,
randomized cross-check against scipy.optimize.milp, and option handling."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.solver import (
    BranchAndBoundOptions,
    Model,
    SolverResult,
    SolverStatus,
    branch_and_bound,
    solve,
)
from repro.solver import branch_bound
from repro.solver.scipy_backend import solve_lp_scipy, solve_milp_scipy
from repro.solver.simplex import solve_lp_simplex


def bb_highs(m, **kwargs):
    """Our branch-and-bound driver over HiGHS LP relaxations."""
    return branch_and_bound(m.compile(), solve_lp_scipy, **kwargs)


def knapsack_model(values, weights, cap):
    m = Model("knapsack")
    xs = [m.add_var(f"x{i}", vtype="binary") for i in range(len(values))]
    m.add_constr(sum(w * x for w, x in zip(weights, xs)) <= cap)
    m.set_objective(sum(v * x for v, x in zip(values, xs)), sense="max")
    return m


class TestKnapsack:
    def test_small_knapsack_exact(self):
        m = knapsack_model([10, 13, 7, 8], [3, 4, 2, 3], 7)
        r = bb_highs(m)
        assert r.status is SolverStatus.OPTIMAL
        assert r.objective == pytest.approx(23.0)

    def test_simplex_backend_agrees(self):
        m = knapsack_model([10, 13, 7, 8], [3, 4, 2, 3], 7)
        r = solve(m, backend="simplex")
        assert r.objective == pytest.approx(23.0)

    def test_all_items_fit(self):
        m = knapsack_model([1, 2, 3], [1, 1, 1], 10)
        r = bb_highs(m)
        assert r.objective == pytest.approx(6.0)
        assert np.allclose(np.round(r.x), 1.0)

    def test_nothing_fits(self):
        m = knapsack_model([5, 5], [10, 10], 3)
        r = bb_highs(m)
        assert r.objective == pytest.approx(0.0)


class TestFixedChargeStructure:
    """Miniature of the DRRP structure: continuous flow + forcing binaries."""

    def _model(self, setup_cost):
        m = Model("lot")
        T = 4
        demand = [2.0, 1.0, 3.0, 2.0]
        alpha = [m.add_var(f"a{t}") for t in range(T)]
        beta = [m.add_var(f"b{t}") for t in range(T)]
        chi = [m.add_var(f"c{t}", vtype="binary") for t in range(T)]
        B = 100.0
        hold = 0.3
        for t in range(T):
            prev = beta[t - 1] if t else 0.0
            m.add_constr(prev + alpha[t] - beta[t] == demand[t])
            m.add_constr(alpha[t] <= B * chi[t])
        m.set_objective(
            sum(setup_cost * chi[t] + hold * beta[t] for t in range(T))
        )
        return m

    def test_high_setup_consolidates(self):
        r = bb_highs(self._model(setup_cost=10.0))
        chi = np.round(r.x[8:12])
        assert chi.sum() < 4  # consolidation happened

    def test_zero_setup_produces_just_in_time(self):
        r = bb_highs(self._model(setup_cost=0.0))
        beta = r.x[4:8]
        assert np.allclose(beta, 0.0, atol=1e-6)  # no inventory held

    def test_backends_agree(self):
        m = self._model(setup_cost=3.0)
        objs = [solve(m, backend=be).objective for be in ("scipy", "simplex")]
        objs.append(bb_highs(m).objective)
        assert max(objs) - min(objs) < 1e-5


class TestOptionsAndLimits:
    def _hard_model(self, n=14, seed=3):
        rng = np.random.default_rng(seed)
        vals = rng.integers(5, 30, n).astype(float)
        wts = rng.integers(3, 15, n).astype(float)
        return knapsack_model(list(vals), list(wts), float(wts.sum() // 3))

    def test_node_limit_returns_feasible_or_limit(self):
        m = self._hard_model()
        opts = BranchAndBoundOptions(node_limit=3)
        r = branch_and_bound(m.compile(), solve_lp_scipy, opts)
        assert r.status in (SolverStatus.FEASIBLE, SolverStatus.NODE_LIMIT, SolverStatus.OPTIMAL)

    def test_gap_termination_bounds_error(self):
        m = self._hard_model()
        exact = solve_milp_scipy(m.compile())
        opts = BranchAndBoundOptions(rel_gap=0.10)
        r = branch_and_bound(m.compile(), solve_lp_scipy, opts)
        assert r.status.has_solution
        # within 10% of true optimum (maximization)
        assert r.objective >= exact.objective * 0.9 - 1e-9

    def test_infeasible_mip(self):
        m = Model()
        x = m.add_var("x", vtype="integer", lb=0, ub=10)
        m.add_constr(2 * x == 3)  # no integer solution
        m.set_objective(x)
        r = bb_highs(m)
        assert r.status is SolverStatus.INFEASIBLE

    def test_pure_lp_passthrough(self):
        m = Model()
        x = m.add_var("x", ub=2)
        m.set_objective(-x)
        r = bb_highs(m)
        assert r.status is SolverStatus.OPTIMAL and r.objective == pytest.approx(-2.0)

    def test_result_gap_property(self):
        m = knapsack_model([4, 5], [1, 1], 2)
        r = bb_highs(m)
        assert r.gap <= 1e-6


class TestUnsolvedChildren:
    """A child LP that ends without an answer (``ERROR``,
    ``ITERATION_LIMIT``) leaves its subtree unexplored: the search must
    not report it as pruned, and must not report ``OPTIMAL`` or
    ``INFEASIBLE`` on that basis."""

    VALUES = [25, 11, 7, 12, 15, 25, 16, 7, 13, 20, 25, 23]
    WEIGHTS = [14, 5, 13, 3, 9, 6, 5, 10, 6, 9, 6, 4]
    CAP = 30

    def _optimum(self):
        # 2^12 assignments: brute force is the exact oracle.
        v, w = np.array(self.VALUES), np.array(self.WEIGHTS)
        bits = (np.arange(2 ** len(v))[:, None] >> np.arange(len(v))) & 1
        return float((bits @ v)[bits @ w <= self.CAP].max())

    @staticmethod
    def _failing(calls, status):
        """The simplex LP solver, except that the LP calls numbered in
        ``calls`` (1 = root) return ``status`` with no solution."""
        count = [0]

        def lp(problem, warm_start=None):
            count[0] += 1
            if count[0] in calls:
                return SolverResult(status=status)
            return solve_lp_simplex(problem, warm_start=warm_start)

        return lp

    def test_both_root_children_error(self, monkeypatch):
        # Without the rounding heuristic nothing but the children could
        # yield an incumbent.
        monkeypatch.setattr(branch_bound, "_try_rounding", lambda *args: None)
        problem = knapsack_model(self.VALUES, self.WEIGHTS, self.CAP).compile()
        r = branch_and_bound(problem, self._failing({2, 3}, SolverStatus.ERROR))
        assert r.status is SolverStatus.ERROR
        assert r.x is None

    def test_iteration_limit_child_keeps_its_bound(self):
        problem = knapsack_model(self.VALUES, self.WEIGHTS, self.CAP).compile()
        opt = self._optimum()
        assert opt == 114.0
        r = branch_and_bound(
            problem, self._failing({2}, SolverStatus.ITERATION_LIMIT)
        )
        assert r.status is SolverStatus.FEASIBLE
        assert r.objective <= opt + 1e-9
        # Maximization: the reported bound still covers the true optimum.
        assert r.bound >= opt - 1e-9

    def test_unfailing_solver_is_optimal(self):
        problem = knapsack_model(self.VALUES, self.WEIGHTS, self.CAP).compile()
        r = branch_and_bound(problem, self._failing(set(), SolverStatus.ERROR))
        assert r.status is SolverStatus.OPTIMAL
        assert r.objective == pytest.approx(self._optimum())


@st.composite
def random_milp(draw):
    """Random mixed problems with a guaranteed feasible integer point."""
    n = draw(st.integers(2, 5))
    m_rows = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    c = rng.integers(-8, 9, size=n).astype(float)
    A = rng.integers(-4, 5, size=(m_rows, n)).astype(float)
    x0 = rng.integers(0, 3, size=n).astype(float)  # integer anchor point
    b = A @ x0 + rng.integers(0, 4, size=m_rows).astype(float)
    ub = x0 + rng.integers(1, 5, size=n).astype(float)
    n_int = draw(st.integers(1, n))
    return c, A, b, ub, n_int


class TestRandomizedAgainstHiGHS:
    @given(random_milp())
    @settings(max_examples=40, deadline=None)
    def test_bb_matches_scipy_milp(self, data):
        c, A, b, ub, n_int = data
        m = Model()
        xs = []
        for j in range(len(c)):
            vt = "integer" if j < n_int else "continuous"
            xs.append(m.add_var(f"x{j}", lb=0, ub=float(ub[j]), vtype=vt))
        for i in range(A.shape[0]):
            m.add_constr(sum(float(A[i, j]) * xs[j] for j in range(len(xs))) <= float(b[i]))
        m.set_objective(sum(float(c[j]) * xs[j] for j in range(len(xs))))
        p = m.compile()
        ref = solve_milp_scipy(p)
        ours = branch_and_bound(p, solve_lp_scipy)
        assert ref.status is SolverStatus.OPTIMAL
        assert ours.status is SolverStatus.OPTIMAL
        assert ours.objective == pytest.approx(ref.objective, abs=1e-5)
        assert p.is_feasible(ours.x, tol=1e-5)

    @given(random_milp())
    @settings(max_examples=15, deadline=None)
    def test_pure_simplex_bb_matches_too(self, data):
        c, A, b, ub, n_int = data
        m = Model()
        xs = []
        for j in range(len(c)):
            vt = "integer" if j < n_int else "continuous"
            xs.append(m.add_var(f"x{j}", lb=0, ub=float(ub[j]), vtype=vt))
        for i in range(A.shape[0]):
            m.add_constr(sum(float(A[i, j]) * xs[j] for j in range(len(xs))) <= float(b[i]))
        m.set_objective(sum(float(c[j]) * xs[j] for j in range(len(xs))))
        p = m.compile()
        ref = solve_milp_scipy(p)
        ours = branch_and_bound(p, solve_lp_simplex)
        assert ours.status is SolverStatus.OPTIMAL
        assert ours.objective == pytest.approx(ref.objective, abs=1e-5)
