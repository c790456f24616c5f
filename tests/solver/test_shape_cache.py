"""The structural shape cache: same-shape models share one compiled skeleton.

Distinct from the instance cache in ``test_model_cache.py``, which
memoizes an *unmodified* model; the shape cache covers models with
the same constraint structure but different coefficients — a fleet of
same-horizon DRRP tenants — and must reproduce exactly what a cold
compile builds.
"""

import numpy as np

from repro.solver import (
    compile_cache_stats,
    reset_compile_cache,
    reset_compile_cache_stats,
)
from repro.solver.model import Model


def _lot_model(seed):
    """A small DRRP-shaped model; structure fixed, values seeded."""
    rng = np.random.default_rng(seed)
    T = 5
    m = Model(f"lot-{seed}")
    alpha = [m.add_var(f"a{t}", lb=0.0) for t in range(T)]
    beta = [m.add_var(f"b{t}", lb=0.0) for t in range(T)]
    chi = [m.add_var(f"x{t}", lb=0.0, ub=1.0, vtype="binary") for t in range(T)]
    demand = rng.uniform(0.5, 2.0, T)
    for t in range(T):
        prev = beta[t - 1] if t else 0.0
        m.add_constr(prev + alpha[t] - beta[t] == float(demand[t]))
        m.add_constr(alpha[t] - float(demand[t:].sum()) * chi[t] <= 0.0)
    m.set_objective(
        sum(float(rng.uniform(0.5, 3.0)) * v for v in alpha + beta + chi)
    )
    return m


def _assert_identical(p, q):
    assert np.array_equal(p.c, q.c)
    assert p.c0 == q.c0
    assert np.array_equal(p.A_ub, q.A_ub) and np.array_equal(p.b_ub, q.b_ub)
    assert np.array_equal(p.A_eq, q.A_eq) and np.array_equal(p.b_eq, q.b_eq)
    assert np.array_equal(p.lb, q.lb) and np.array_equal(p.ub, q.ub)
    assert np.array_equal(p.integrality, q.integrality)
    assert p.maximize == q.maximize


class TestShapeFastPath:
    def test_fast_path_matches_cold_compile(self):
        # Prime the shape cache with one model, then compile nine others
        # of the same shape: each fast-path result must equal the matrices
        # a from-scratch build produces for that model.
        _lot_model(0).compile()
        for seed in range(1, 10):
            m = _lot_model(seed)
            fast = m.compile()
            cold = _lot_model(seed)._compile_uncached()
            _assert_identical(fast, cold)

    def test_same_shape_different_values_hit_shape_cache(self):
        _lot_model(100).compile()  # prime
        reset_compile_cache_stats()
        for seed in range(101, 105):
            _lot_model(seed).compile()
        stats = compile_cache_stats()
        assert stats["compiles"] == 4
        assert stats["shape_hits"] == 4
        assert stats["full_builds"] == 0

    def test_different_shapes_build_fresh(self):
        # Full reset: the LRUs are process-wide, and an earlier test may
        # have cached a model of this same (tiny) shape.
        reset_compile_cache()
        m = Model("other")
        x = m.add_var("x", lb=0.0)
        m.add_constr(x <= 3.0)
        m.set_objective(x)
        m.compile()
        stats = compile_cache_stats()
        assert stats["full_builds"] >= 1

    def test_stats_layers_are_disjoint_and_complete(self):
        reset_compile_cache_stats()
        m = _lot_model(7)
        m.compile()   # shape or full, depending on prior tests
        m.compile()   # instance hit
        stats = compile_cache_stats()
        assert stats["compiles"] == 2
        assert stats["instance_hits"] == 1
        assert stats["shape_hits"] + stats["full_builds"] == 1

    def test_shape_reuse_solves_to_the_right_optimum(self):
        from repro.solver import solve_compiled

        _lot_model(200).compile()  # prime the skeleton
        for seed in (201, 202):
            m = _lot_model(seed)
            fast = solve_compiled(m.compile(), backend="simplex", use_presolve=False)
            cold = solve_compiled(
                _lot_model(seed)._compile_uncached(),
                backend="simplex", use_presolve=False,
            )
            assert abs(fast.objective - cold.objective) <= 1e-9
