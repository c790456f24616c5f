"""Ablation: solver backends on the DRRP MILP.

DESIGN.md swaps the paper's CPLEX for a solver stack with several engines;
this bench times them on identical 12 h DRRP instances and checks they
agree on the optimum (12 h, not 24: the pure-Python stack's lot-sizing
relaxation still explores thousands of B&B nodes at 24 h — quantifying
that gap is the point of the ablation):

* ``scipy``        — HiGHS branch-and-cut (the default);
* ``simplex``      — fully from-scratch (pure-Python simplex + B&B);
* ``simplex+cuts`` — the same with Gomory root cuts.
"""

import numpy as np
import pytest

from repro.core import DRRPInstance, NormalDemand, on_demand_schedule, solve_drrp
from repro.market import ec2_catalog


def make_instance(seed=11, horizon=12):
    vm = ec2_catalog()["m1.large"]
    return DRRPInstance(
        demand=NormalDemand().sample(horizon, seed),
        costs=on_demand_schedule(vm, horizon),
        vm_name=vm.name,
    )


REFERENCE = {}


@pytest.mark.parametrize("backend", ["scipy", "simplex", "simplex+cuts"])
def test_bench_solver_backend(benchmark, backend):
    inst = make_instance()
    plan = benchmark.pedantic(
        lambda: solve_drrp(inst, backend=backend), rounds=1, iterations=1
    )
    REFERENCE.setdefault("objective", plan.total_cost)
    assert plan.total_cost == pytest.approx(REFERENCE["objective"], abs=1e-5)
    plan.validate(inst)
