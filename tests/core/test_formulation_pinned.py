"""Pinned DRRP/SRRP formulations and exact-DP plans.

``build_drrp_model`` and ``solve_wagner_whitin`` sit on the hot path of
every planning workload, and ``build_srrp_model`` / ``solve_srrp_tree_dp``
answer every SRRP request.  Refactors of the shared row builders and plan
pricing must leave them bit-for-bit unchanged, so this file pins, for a
seeded uncapacitated DRRP (with initial storage), a capacitated DRRP and
an SRRP tree instance:

* a digest of the compiled model: ``c``, ``c0``, ``A_ub``, ``b_ub``,
  ``A_eq``, ``b_eq``, bounds, integrality, and the variable and row names
  in order;
* a digest of the raw bytes of the Wagner-Whitin, no-plan and tree-DP
  plans: the decision arrays plus every cost field.

The values were recorded with NumPy's bundled OpenBLAS on x86-64.  A change
here is a change of the formulation or of a cost's float summing order.
"""

import hashlib
import struct

import numpy as np
import pytest

from repro.core import (
    CostSchedule,
    DRRPInstance,
    SRRPInstance,
    bid_adjusted_stage_distributions,
    build_drrp_model,
    build_srrp_model,
    build_tree,
    solve_noplan,
    solve_srrp_tree_dp,
    solve_wagner_whitin,
)
from repro.stats.empirical import EmpiricalDistribution


def _costs(rng: np.random.Generator, T: int) -> CostSchedule:
    return CostSchedule(
        compute=rng.uniform(0.05, 0.9, T),
        storage=rng.uniform(0.0, 0.02, T),
        io=rng.uniform(0.001, 0.05, T),
        transfer_in=rng.uniform(0.0, 0.12, T),
        transfer_out=rng.uniform(0.1, 0.2, T),
    )


def _uncapacitated() -> DRRPInstance:
    rng = np.random.default_rng(2201)
    T = 14
    demand = rng.uniform(0.0, 3.0, T)
    demand[[4, 9]] = 0.0
    return DRRPInstance(
        demand=demand,
        costs=_costs(rng, T),
        phi=0.6,
        initial_storage=float(demand[:2].sum() + 0.4 * demand[2]),
        vm_name="pin-u",
    )


def _capacitated() -> DRRPInstance:
    rng = np.random.default_rng(2202)
    T = 10
    demand = rng.uniform(0.2, 2.5, T)
    return DRRPInstance(
        demand=demand,
        costs=_costs(rng, T),
        phi=0.45,
        initial_storage=0.7,
        bottleneck_rate=1.3,
        bottleneck_capacity=rng.uniform(3.0, 6.0, T),
        vm_name="pin-c",
    )


def _srrp() -> SRRPInstance:
    rng = np.random.default_rng(2203)
    T = 4
    lam = 0.34
    base = EmpiricalDistribution(lam * rng.uniform(0.05, 0.9, 200))
    stages = bid_adjusted_stage_distributions(
        base, lam * rng.uniform(0.2, 0.6, T - 1), lam, max_branching=3
    )
    tree = build_tree(float(base.values[17]), stages)
    demand = rng.uniform(0.1, 2.0, T)
    demand[2] = 0.0
    return SRRPInstance(
        demand=demand,
        costs=_costs(rng, T),
        tree=tree,
        phi=0.55,
        initial_storage=float(demand[0] + 0.3 * demand[1]),
        vm_name="pin-s",
    )


def _model_digest(model) -> str:
    p = model.compile()
    h = hashlib.sha256()
    for arr in (p.c, p.A_ub, p.b_ub, p.A_eq, p.b_eq, p.lb, p.ub, p.integrality):
        a = np.ascontiguousarray(arr)
        h.update(repr((a.dtype.str, a.shape)).encode())
        h.update(a.tobytes())
    h.update(struct.pack("<d", p.c0))
    h.update("\x00".join(v.name for v in p.variables).encode())
    h.update(b"\x01")
    h.update("\x00".join(c.name for c in model.constraints).encode())
    return h.hexdigest()[:16]


def _plan_digest(plan, cost_fields) -> str:
    h = hashlib.sha256()
    for arr in (plan.alpha, plan.beta, plan.chi):
        a = np.ascontiguousarray(arr, dtype=float)
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    for name in cost_fields:
        h.update(struct.pack("<d", float(getattr(plan, name))))
    return h.hexdigest()[:16]


RENTAL_FIELDS = (
    "compute_cost", "inventory_cost", "transfer_in_cost", "transfer_out_cost", "objective",
)

MODELS = {
    "drrp-uncapacitated": (lambda: build_drrp_model(_uncapacitated())[0], "35f7779545907390"),
    "drrp-capacitated": (lambda: build_drrp_model(_capacitated())[0], "09f2c224da5d60dd"),
    "srrp": (lambda: build_srrp_model(_srrp())[0], "e26407151689bd77"),
}

PLANS = {
    "wagner-whitin": (lambda: solve_wagner_whitin(_uncapacitated()), RENTAL_FIELDS, "2ce00998f959d1e5"),
    "no-plan-uncapacitated": (lambda: solve_noplan(_uncapacitated()), RENTAL_FIELDS, "a75a0d6201f3d9bb"),
    "no-plan-capacitated": (lambda: solve_noplan(_capacitated()), RENTAL_FIELDS, "9082b513cf523c70"),
    "tree-dp": (lambda: solve_srrp_tree_dp(_srrp()), ("expected_cost",), "e1af082f9b0d1ef1"),
}


@pytest.mark.parametrize("name", sorted(MODELS))
def test_compiled_model_is_pinned(name):
    build, expected = MODELS[name]
    assert _model_digest(build()) == expected


@pytest.mark.parametrize("name", sorted(PLANS))
def test_exact_plan_is_pinned(name):
    solve, fields, expected = PLANS[name]
    assert _plan_digest(solve(), fields) == expected
