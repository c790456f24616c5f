"""``solve_drrp(backend="auto")`` on uncapacitated DRRP is the exact
Wagner-Whitin DP: differential checks against the MILP backends, and the
dispatch rules (what still reaches the MILP, deadlines, telemetry).

The corpus is seeded and spans horizons 1-168, with initial storage that
covers the first slots and zero-demand slots inside the horizon.  The
pure-Python branch-and-bound needs seconds to minutes per instance past a
dozen slots, so the simplex leg runs on the corpus' short horizons; the
HiGHS leg runs on all of it.

The knocked corpus holds the same instances with slots knocked out the two
ways the library does it — fleet pool repair (``_knock``) and spot
evictions (``apply_interruptions``) — plus finite caps that cannot bind.
``auto`` answers them with the masked Wagner-Whitin DP, checked the same
way, and an instance whose first net demand precedes every open slot must
fail exactly as the infeasible MILP does.
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
from repro.core.lotsizing import DRRPInfeasible
from repro.fleet.planner import _knock
from repro.solver import BranchAndBoundOptions, Deadline, EventRecorder, SolverStatus
from repro.market import InterruptionEvent, apply_interruptions, ec2_catalog

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


def _first_net_demand(inst: DRRPInstance) -> int:
    return int(np.nonzero(inst.net_demand > 1e-12)[0][0])


def _knocked(rng: np.random.Generator, inst: DRRPInstance) -> tuple[str, DRRPInstance]:
    """``inst`` with slots knocked out, labelled by how."""
    T = inst.horizon
    slots = sorted(int(s) for s in rng.choice(T, size=int(rng.integers(1, T // 2 + 2)), replace=False))
    style = int(rng.integers(4))
    if style == 0:
        return "pool-repair", _knock(inst, tuple(slots))
    if style == 1:
        salvage = float(rng.uniform(0, 0.5)) if rng.random() < 0.5 else 0.0
        events = [InterruptionEvent(slot=s, spot_price=1.0, bid=0.0, salvaged_gb=salvage)
                  for s in slots]
        return "eviction", apply_interruptions(inst, events)
    if style == 2:
        # a finite cap exactly at the never-binding bound P x total net demand
        rate = float(rng.uniform(0.5, 3.0))
        cap = np.full(T, rate * float(inst.net_demand.sum()))
        cap[slots] = 0.0
        return "finite-cap", DRRPInstance(
            demand=inst.demand, costs=inst.costs, phi=inst.phi,
            initial_storage=inst.initial_storage, bottleneck_rate=rate,
            bottleneck_capacity=cap, vm_name=inst.vm_name,
        )
    # every slot up to the first net demand knocked: no plan exists
    return "no-open-slot", _knock(inst, tuple(range(_first_net_demand(inst) + 1)))


def _knocked_corpus() -> list[tuple[str, DRRPInstance]]:
    rng = np.random.default_rng(2012_5)
    return [_knocked(rng, inst) for inst in CORPUS[::2] if inst.net_demand.sum() > 1e-12]


KNOCKED = _knocked_corpus()


def _infeasible(inst: DRRPInstance) -> bool:
    return not inst.open_slots[: _first_net_demand(inst) + 1].any()


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


@pytest.fixture()
def builds(monkeypatch):
    """Count MILP builds: every MILP path goes through the model builder."""
    calls = []
    real = drrp_mod.build_drrp_model

    def spy(instance):
        calls.append(instance.horizon)
        return real(instance)

    monkeypatch.setattr(drrp_mod, "build_drrp_model", spy)
    return calls


class TestDispatch:
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


class TestKnocked:
    def test_corpus_covers_the_cases(self):
        styles = [style for style, _ in KNOCKED]
        assert len(KNOCKED) >= 90
        for style in ("pool-repair", "eviction", "finite-cap", "no-open-slot"):
            assert styles.count(style) >= 10, style
        assert all(inst.open_slots is not None for _, inst in KNOCKED)
        infeasible = [style for style, inst in KNOCKED if _infeasible(inst)]
        assert set(infeasible) > {"no-open-slot"}  # random knocks starve some too
        assert sum(1 for _, inst in KNOCKED if not _infeasible(inst)) >= 45

    def test_auto_masks_the_knocked_slots_exactly(self, builds):
        for style, inst in KNOCKED:
            if _infeasible(inst):
                continue
            plan = solve_drrp(inst, backend="auto")
            assert plan.status is SolverStatus.OPTIMAL
            plan.validate(inst)
            assert not np.any(plan.chi[~inst.open_slots] > 0.5), style
            assert np.all(plan.alpha[~inst.open_slots] == 0.0), style
            rate = inst.bottleneck_rate
            assert np.all(rate * plan.alpha <= inst.bottleneck_capacity * (1 + 1e-12)), style
        assert builds == []

    def test_auto_matches_the_simplex_milp(self):
        for style, inst in KNOCKED:
            if inst.horizon > SIMPLEX_MAX_HORIZON or _infeasible(inst):
                continue
            auto = solve_drrp(inst, backend="auto")
            milp = solve_drrp(inst, backend="simplex")
            assert milp.status is SolverStatus.OPTIMAL
            assert abs(_rel(auto.objective, milp.objective)) <= 1e-9, (style, inst.horizon)

    def test_auto_matches_highs_at_zero_gap(self):
        pytest.importorskip("scipy")
        for style, inst in KNOCKED:
            if _infeasible(inst):
                continue
            auto = solve_drrp(inst, backend="auto")
            milp = solve_drrp(inst, backend="scipy", mip_rel_gap=0.0)
            assert milp.status is SolverStatus.OPTIMAL
            assert abs(_rel(auto.objective, milp.objective)) <= 1e-9, (style, inst.horizon)

    @pytest.mark.parametrize("backend", ["simplex", "scipy"])
    def test_infeasible_fails_as_the_milp_does(self, backend):
        if backend == "scipy":
            pytest.importorskip("scipy")
        for style, inst in KNOCKED:
            if not _infeasible(inst) or (backend == "simplex" and inst.horizon > SIMPLEX_MAX_HORIZON):
                continue
            with pytest.raises(RuntimeError) as milp:
                solve_drrp(inst, backend=backend)
            rec = EventRecorder()
            with pytest.raises(DRRPInfeasible) as auto:
                solve_drrp(inst, backend="auto", listener=rec)
            assert str(auto.value) == str(milp.value) == "DRRP solve failed with status infeasible"
            assert [ev.kind for ev in rec.events] == [
                "solve_start", "phase_start", "phase_end", "solve_end"
            ]
            end = rec.of_kind("solve_end")[0].data
            assert end["status"] == "infeasible" and end["objective"] is None, style

    def test_expired_deadline_gives_the_masked_fallback(self, builds):
        style, inst = next(k for k in KNOCKED if k[0] == "pool-repair" and not _infeasible(k[1]))
        plan = solve_drrp(inst, backend="auto", time_limit=0)
        assert plan.status is SolverStatus.TIME_LIMIT
        assert plan.extra["fallback"] == "wagner-whitin"
        assert plan.objective == solve_wagner_whitin(inst).objective
        assert builds == []

    def test_no_closed_slot_is_the_plain_dp_bit_for_bit(self):
        for inst in CORPUS[:40]:
            capped = DRRPInstance(
                demand=inst.demand, costs=inst.costs, phi=inst.phi,
                initial_storage=inst.initial_storage, bottleneck_rate=1.0,
                bottleneck_capacity=np.full(inst.horizon, float(inst.demand.sum()) + 1.0),
                vm_name=inst.vm_name,
            )
            plain, masked = solve_wagner_whitin(inst), solve_wagner_whitin(capped)
            for field in ("alpha", "beta", "chi"):
                assert getattr(plain, field).tobytes() == getattr(masked, field).tobytes()
            assert plain.objective == masked.objective

    def test_a_cap_that_can_bind_is_not_masked(self, builds):
        style, inst = next(k for k in KNOCKED if k[0] == "finite-cap" and not _infeasible(k[1]))
        cap = inst.bottleneck_capacity.copy()
        cap[cap > 0] = np.nextafter(cap[cap > 0], 0.0)
        tighter = DRRPInstance(
            demand=inst.demand, costs=inst.costs, phi=inst.phi,
            initial_storage=inst.initial_storage, bottleneck_rate=inst.bottleneck_rate,
            bottleneck_capacity=cap, vm_name=inst.vm_name,
        )
        assert tighter.open_slots is None
        with pytest.raises(ValueError):
            solve_wagner_whitin(tighter)
        solve_drrp(tighter, backend="auto")
        assert builds == [inst.horizon]
