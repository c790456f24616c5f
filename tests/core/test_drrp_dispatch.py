"""``solve_drrp(backend="auto")`` on uncapacitated DRRP is the exact
Wagner-Whitin DP: differential checks against the MILP backends, and the
dispatch rules (what still reaches the MILP, deadlines, telemetry).

The corpus is seeded and spans horizons 1-168, with initial storage that
covers the first slots and zero-demand slots inside the horizon.  The
pure-Python branch-and-bound needs seconds to minutes per instance past a
dozen slots, so the simplex leg runs on the corpus' short horizons; the
HiGHS leg runs on all of it.
"""

import warnings

import numpy as np
import pytest

import repro.core.drrp as drrp_mod
import repro.solver.interface as interface_mod
from repro.core import (
    DRRPInstance,
    NormalDemand,
    on_demand_schedule,
    solve_drrp,
    solve_wagner_whitin,
    spot_schedule,
)
from repro.solver import BranchAndBoundOptions, Deadline, EventRecorder, SolverStatus
from repro.market import ec2_catalog

SIMPLEX_MAX_HORIZON = 12


def _instance(rng: np.random.Generator, T: int) -> DRRPInstance:
    vms = sorted(ec2_catalog().values(), key=lambda vm: vm.name)
    vm = vms[int(rng.integers(len(vms)))]
    demand = NormalDemand(mean=float(rng.uniform(0.2, 2.0)), std=0.3).sample(
        T, int(rng.integers(1 << 30))
    )
    if T >= 3:
        # a run of idle slots strictly inside the horizon
        start = int(rng.integers(1, T - 1))
        demand[start:start + int(rng.integers(1, max(T // 4, 1) + 1))] = 0.0
    demand[-1] = max(float(demand[-1]), 0.05)
    style = int(rng.integers(3))
    if style == 0:
        eps = 0.0
    elif style == 1:
        # covers the first k slots exactly, plus part of the next one
        k = int(rng.integers(1, max(T // 3, 1) + 1))
        eps = float(demand[:k].sum()) + float(rng.uniform(0, 0.5)) * float(demand[min(k, T - 1)])
    else:
        eps = float(rng.uniform(0, 1.5))
    if rng.random() < 0.5:
        costs = on_demand_schedule(vm, T)
    else:
        costs = spot_schedule(vm, vm.on_demand_price * rng.uniform(0.1, 1.2, T))
    return DRRPInstance(demand=demand, costs=costs, phi=float(rng.uniform(0.1, 1.0)),
                        initial_storage=eps, vm_name=vm.name)


def _corpus() -> list[DRRPInstance]:
    rng = np.random.default_rng(20121)
    horizons = (
        [1, 2, 168]
        + [int(h) for h in rng.integers(1, SIMPLEX_MAX_HORIZON + 1, 130)]
        + [int(h) for h in rng.integers(SIMPLEX_MAX_HORIZON + 1, 49, 55)]
        + [int(h) for h in rng.integers(49, 169, 20)]
    )
    return [_instance(rng, T) for T in horizons]


CORPUS = _corpus()
SHORT = [inst for inst in CORPUS if inst.horizon <= SIMPLEX_MAX_HORIZON]


def _rel(a: float, b: float) -> float:
    return (a - b) / max(abs(b), 1e-12)


def test_corpus_covers_the_cases():
    assert len(CORPUS) >= 200 and len(SHORT) >= 100
    assert {1, 168} <= {inst.horizon for inst in CORPUS}
    covered = [inst for inst in CORPUS
               if inst.initial_storage >= inst.demand[0] > 0]
    idle_inside = [inst for inst in CORPUS
                   if inst.horizon >= 3 and np.any(inst.demand[1:-1] == 0.0)]
    assert len(covered) >= 40 and len(idle_inside) >= 150


def test_auto_plans_are_feasible_and_exact():
    for inst in CORPUS:
        plan = solve_drrp(inst, backend="auto")
        assert plan.status is SolverStatus.OPTIMAL
        plan.validate(inst)
        assert plan.extra["nodes"] == 0 and plan.extra["iterations"] == 0
        assert plan.extra["wall_time"] >= 0.0
        assert plan.objective == solve_wagner_whitin(inst).objective


def test_auto_matches_the_simplex_milp():
    for inst in SHORT:
        auto = solve_drrp(inst, backend="auto")
        milp = solve_drrp(inst, backend="simplex")
        assert milp.status is SolverStatus.OPTIMAL
        assert abs(_rel(auto.objective, milp.objective)) <= 1e-9, inst.horizon


def test_auto_is_never_worse_than_highs():
    pytest.importorskip("scipy")
    for inst in CORPUS:
        auto = solve_drrp(inst, backend="auto")
        milp = solve_drrp(inst, backend="scipy")
        assert milp.status is SolverStatus.OPTIMAL
        assert _rel(auto.objective, milp.objective) <= 1e-4, inst.horizon


class TestDispatch:
    @pytest.fixture()
    def builds(self, monkeypatch):
        """Count MILP builds: every MILP path goes through the model builder."""
        calls = []
        real = drrp_mod.build_drrp_model

        def spy(instance):
            calls.append(instance.horizon)
            return real(instance)

        monkeypatch.setattr(drrp_mod, "build_drrp_model", spy)
        return calls

    def test_uncapacitated_auto_builds_no_milp(self, builds):
        solve_drrp(CORPUS[5], backend="auto")
        assert builds == []

    def test_capacitated_instances_reach_the_milp(self, builds):
        inst = next(i for i in SHORT if i.horizon >= 6)
        capped = DRRPInstance(
            demand=inst.demand, costs=inst.costs, phi=inst.phi,
            initial_storage=inst.initial_storage, bottleneck_rate=1.0,
            bottleneck_capacity=np.full(inst.horizon, float(inst.demand.max()) * 1.5),
            vm_name=inst.vm_name,
        )
        rec = EventRecorder()
        plan = solve_drrp(capped, backend="auto", listener=rec)
        assert builds == [inst.horizon]
        plan.validate(capped)
        phases = {ev.data["phase"] for ev in rec.of_kind("phase_end")}
        assert "presolve" in phases and "wagner_whitin" not in phases

    def test_bb_options_and_explicit_backends_reach_the_milp(self, builds):
        inst = SHORT[0]
        solve_drrp(inst, backend="auto", bb_options=BranchAndBoundOptions())
        solve_drrp(inst, backend="simplex")
        assert builds == [inst.horizon, inst.horizon]

    @pytest.mark.parametrize("budget", [{"time_limit": 0}, {"deadline": Deadline(0.0)},
                                        {"deadline": 0.0}])
    def test_expired_deadline_gives_the_time_limit_fallback(self, builds, budget):
        inst = CORPUS[7]
        plan = solve_drrp(inst, backend="auto", **budget)
        assert plan.status is SolverStatus.TIME_LIMIT
        assert plan.extra["fallback"] == "wagner-whitin"
        assert plan.objective == solve_wagner_whitin(inst).objective
        assert builds == []

    def test_negative_time_limit_still_rejected(self):
        with pytest.raises(ValueError):
            solve_drrp(CORPUS[7], backend="auto", time_limit=-1.0)

    def test_no_scipy_needed(self, monkeypatch):
        monkeypatch.setattr(interface_mod, "scipy_available", lambda: False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            plan = solve_drrp(CORPUS[9], backend="auto")
        assert plan.status is SolverStatus.OPTIMAL


class TestTelemetry:
    def test_one_solve_pair_with_duration(self):
        rec = EventRecorder()
        plan = solve_drrp(CORPUS[11], backend="auto", listener=rec)
        starts, ends = rec.of_kind("solve_start"), rec.of_kind("solve_end")
        assert len(starts) == 1 and len(ends) == 1
        assert starts[0].data["backend"] == "auto"
        end = ends[0].data
        assert end["status"] == "optimal" and end["objective"] == plan.objective
        assert (end["nodes"], end["iterations"]) == (0, 0)
        assert end["duration"] is not None and end["duration"] >= 0.0
        phases = rec.of_kind("phase_end")
        assert [ev.data["phase"] for ev in phases] == ["wagner_whitin"]
        kinds = [ev.kind for ev in rec.events]
        assert kinds == ["solve_start", "phase_start", "phase_end", "solve_end"]

    def test_expired_deadline_is_observed(self):
        rec = EventRecorder()
        solve_drrp(CORPUS[11], backend="auto", listener=rec, time_limit=0)
        assert len(rec.of_kind("solve_start")) == 1
        (end,) = rec.of_kind("solve_end")
        assert end.data["status"] == "time_limit" and end.data["duration"] >= 0.0
        assert len(rec.of_kind("deadline_exceeded")) == 1
