"""Zero/expired deadline edges: every entry point degrades, none raises.

Satellite contract: ``time_limit=0`` or an already-expired ``Deadline``
returns the Wagner-Whitin incumbent with ``TIME_LIMIT`` status from the
plan entry point, and an honest non-exception status from branch-and-bound
and Benders.
"""

import numpy as np
import pytest

from repro.core.drrp import DRRPInstance, solve_drrp
from repro.core.lotsizing import solve_wagner_whitin
from repro.solver import BranchAndBoundOptions
from repro.solver.benders import solve_benders
from repro.solver.interface import solve_compiled
from repro.solver.result import SolverStatus
from repro.solver.scipy_backend import scipy_available
from repro.solver.telemetry import Deadline
from repro.verify.generators import planted_milp, random_two_stage

BACKENDS = ["simplex"] + (["scipy"] if scipy_available() else [])


@pytest.fixture
def instance():
    return DRRPInstance.example(horizon=12, seed=3)


class TestPlanEntryPoint:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_time_limit_zero_returns_ww_incumbent(self, instance, backend):
        plan = solve_drrp(instance, backend=backend, time_limit=0)
        assert plan.status is SolverStatus.TIME_LIMIT
        ww = solve_wagner_whitin(instance)
        assert plan.objective == pytest.approx(ww.objective)
        assert np.allclose(plan.chi, ww.chi)
        plan.validate(instance)

    def test_expired_deadline_object(self, instance):
        plan = solve_drrp(instance, backend="auto", deadline=Deadline(0.0))
        assert plan.status is SolverStatus.TIME_LIMIT
        assert plan.extra.get("fallback") == "wagner-whitin"

    def test_cli_plan_time_limit_zero_exits_cleanly(self, capsys):
        from repro.cli import main

        # a usable-but-not-optimal incumbent is exit 3, not 0 (and not 1:
        # the plan still printed)
        code = main(["plan", "--horizon", "8", "--time-limit", "0"])
        assert code == 3
        out = capsys.readouterr().out
        assert "DRRP cost" in out

    def test_capacitated_instance_still_raises(self, instance):
        # no WW fallback exists under a bottleneck that can bind: an honest
        # error beats silently ignoring the capacity constraint
        capped = DRRPInstance(
            demand=instance.demand,
            costs=instance.costs,
            bottleneck_rate=1.0,
            bottleneck_capacity=np.full(instance.horizon, 1.5 * float(instance.demand.max())),
            vm_name=instance.vm_name,
        )
        assert capped.open_slots is None
        with pytest.raises(RuntimeError, match="time_limit"):
            solve_drrp(capped, backend="auto", time_limit=0)

    def test_never_binding_cap_gets_the_ww_incumbent(self, instance):
        # a cap above the total demand cannot bind: the DP answers it
        capped = DRRPInstance(
            demand=instance.demand,
            costs=instance.costs,
            bottleneck_rate=1.0,
            bottleneck_capacity=np.full(instance.horizon, 1e6),
            vm_name=instance.vm_name,
        )
        plan = solve_drrp(capped, backend="auto", time_limit=0)
        assert plan.status is SolverStatus.TIME_LIMIT
        assert plan.extra["fallback"] == "wagner-whitin"
        assert plan.objective == solve_wagner_whitin(instance).objective


class TestBranchAndBoundEntryPoint:
    def test_expired_no_incumbent_returns_time_limit(self):
        case = planted_milp(np.random.default_rng(0))
        res = solve_compiled(case.instance, backend="simplex", use_presolve=False, time_limit=0)
        assert res.status is SolverStatus.TIME_LIMIT
        assert res.x is None

    def test_expired_with_warm_start_keeps_incumbent(self):
        case = planted_milp(np.random.default_rng(0))
        res = solve_compiled(
            case.instance, backend="simplex", use_presolve=False, time_limit=0,
            bb_options=BranchAndBoundOptions(initial_incumbent=case.x_star),
        )
        assert res.status is SolverStatus.FEASIBLE
        assert res.x is not None
        assert res.objective == pytest.approx(case.optimum)


class TestBendersEntryPoint:
    def test_expired_deadline_does_not_raise(self):
        case = random_two_stage(np.random.default_rng(4))
        res = solve_benders(case.instance, deadline=Deadline(0.0))
        assert res.status is SolverStatus.TIME_LIMIT
