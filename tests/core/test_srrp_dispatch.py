"""``solve_srrp(backend="auto")`` on a tree with nonnegative prices is the
exact production-path tree DP: differential checks against the MILP
backends, and the dispatch rules (what still reaches the MILP, deadlines,
telemetry).

The corpus is seeded and spans 2-6 stages with branching 2-3, bid-adjusted
stage distributions with and without out-of-bid collapse onto the
on-demand price, initial storage that covers 0-3 stages, and zero-demand
stages.  The pure-Python branch-and-bound needs from 0.03 s to minutes per
40-vertex tree (4 stages, branching 3), so the simplex leg runs on the
trees of at most 31 vertices; the HiGHS leg runs on all of them.
"""

import warnings

import numpy as np
import pytest

import repro.core.srrp as srrp_mod
import repro.solver.interface as interface_mod
from repro.core import (
    CostSchedule,
    DRRPInstance,
    SRRPInstance,
    bid_adjusted_stage_distributions,
    build_tree,
    on_demand_schedule,
    solve_srrp,
    solve_srrp_tree_dp,
    solve_wagner_whitin,
    spot_schedule,
)
from repro.market import ec2_catalog
from repro.solver import BranchAndBoundOptions, Deadline, EventRecorder, SolverStatus
from repro.stats.empirical import EmpiricalDistribution

SIMPLEX_MAX_VERTICES = 31
VMS = sorted(ec2_catalog().values(), key=lambda vm: vm.name)


def _instance(rng: np.random.Generator, T: int, branching: int, collapse: bool) -> SRRPInstance:
    vm = VMS[int(rng.integers(len(VMS)))]
    lam = vm.on_demand_price
    base = EmpiricalDistribution(lam * rng.uniform(0.05, 0.9, 200))
    # Bids inside the support move the mass above them onto λ (eq. 10);
    # a bid at the top of the support keeps the base distribution.
    if collapse:
        bids = lam * rng.uniform(0.2, 0.6, T - 1)
    else:
        bids = np.full(T - 1, float(base.values.max()))
    stages = bid_adjusted_stage_distributions(base, bids, lam, max_branching=branching)
    tree = build_tree(float(base.values[int(rng.integers(base.support_size))]), stages)
    demand = rng.uniform(0.1, 2.0, T)
    for _ in range(int(rng.integers(0, 3))):
        demand[int(rng.integers(T))] = 0.0
    covered = int(rng.integers(0, 4))
    eps = float(demand[:covered].sum())
    if covered < T and rng.random() < 0.5:
        eps += float(rng.uniform(0, 1)) * float(demand[covered])
    if rng.random() < 0.5:
        costs = on_demand_schedule(vm, T)
    else:
        costs = spot_schedule(vm, lam * rng.uniform(0.1, 1.2, T))
    return SRRPInstance(demand=demand, costs=costs, tree=tree,
                        phi=float(rng.uniform(0.1, 1.0)), initial_storage=eps,
                        vm_name=vm.name)


def _corpus() -> list[tuple[SRRPInstance, bool]]:
    rng = np.random.default_rng(2008)
    out = []
    for T in range(2, 7):
        for branching in (2, 3):
            for collapse in (False, True):
                for _ in range(6 if T <= 4 else 3):
                    out.append((_instance(rng, T, branching, collapse), collapse))
    return out


CASES = _corpus()
CORPUS = [inst for inst, _ in CASES]
SMALL = [inst for inst in CORPUS if inst.tree.num_nodes <= SIMPLEX_MAX_VERTICES]


def _chain(rng: np.random.Generator, T: int) -> tuple[SRRPInstance, DRRPInstance]:
    """One price path as a single-scenario tree, and the same DRRP."""
    vm = VMS[int(rng.integers(len(VMS)))]
    prices = vm.on_demand_price * rng.uniform(0.1, 1.2, T)
    tree = build_tree(float(prices[0]), [(np.array([p]), np.array([1.0])) for p in prices[1:]])
    demand = rng.uniform(0.1, 2.0, T)
    if T >= 3:
        demand[int(rng.integers(1, T - 1))] = 0.0
    eps = float(demand[: int(rng.integers(0, 4))].sum())
    costs = spot_schedule(vm, prices)
    phi = float(rng.uniform(0.1, 1.0))
    return (SRRPInstance(demand=demand, costs=costs, tree=tree, phi=phi, initial_storage=eps),
            DRRPInstance(demand=demand, costs=costs, phi=phi, initial_storage=eps))


def _negative_price_tree() -> SRRPInstance:
    """Two stages; one leaf has a negative price.  Generating at the root
    for both stages is cheapest, which leaves that leaf nothing to
    generate, so only renting it with α = 0 collects its price."""
    tree = build_tree(0.05, [(np.array([-0.4, 0.2]), np.array([0.5, 0.5]))])
    costs = CostSchedule(compute=np.zeros(2), storage=np.full(2, 0.01), io=np.zeros(2),
                         transfer_in=np.array([0.1, 1.0]), transfer_out=np.zeros(2))
    return SRRPInstance(demand=np.array([0.5, 0.8]), costs=costs, tree=tree)


def _rel(a: float, b: float) -> float:
    return (a - b) / max(abs(b), 1e-12)


def test_corpus_covers_the_cases():
    sizes = {inst.tree.num_nodes for inst in CORPUS}
    assert len(SMALL) >= 50 and max(sizes) >= 121
    assert {inst.horizon for inst in CORPUS} == {2, 3, 4, 5, 6}
    lam = {vm.name: vm.on_demand_price for vm in VMS}
    collapsed = [inst for inst, collapse in CASES
                 if collapse and any(n.price == lam[inst.vm_name] for n in inst.tree.nodes)]
    covered = [inst for inst in CORPUS if inst.initial_storage >= inst.demand[0] > 0]
    idle = [inst for inst in CORPUS if np.any(inst.demand == 0.0)]
    assert len(collapsed) >= 30 and len(covered) >= 20 and len(idle) >= 40


def test_auto_plans_are_feasible_and_exact():
    for inst in CORPUS:
        plan = solve_srrp(inst, backend="auto")
        assert plan.status is SolverStatus.OPTIMAL
        plan.validate(inst)
        assert plan.extra["nodes"] == 0 and plan.extra["iterations"] == 0
        assert plan.extra["tree_size"] == inst.tree.num_nodes
        assert plan.extra["wall_time"] >= 0.0
        assert plan.expected_cost == solve_srrp_tree_dp(inst).expected_cost


def test_auto_matches_the_simplex_milp():
    for inst in SMALL:
        auto = solve_srrp(inst, backend="auto")
        milp = solve_srrp(inst, backend="simplex")
        assert milp.status is SolverStatus.OPTIMAL
        assert abs(_rel(auto.expected_cost, milp.expected_cost)) <= 1e-9, inst.tree.num_nodes


def test_auto_is_never_above_highs():
    pytest.importorskip("scipy")
    for inst in CORPUS:
        auto = solve_srrp(inst, backend="auto")
        milp = solve_srrp(inst, backend="scipy")
        assert milp.status is SolverStatus.OPTIMAL
        assert _rel(auto.expected_cost, milp.expected_cost) <= 1e-9, inst.tree.num_nodes


def test_chain_tree_reproduces_wagner_whitin():
    rng = np.random.default_rng(56)
    for T in [1, 2, 3] + [int(h) for h in rng.integers(4, 25, 60)]:
        srrp, drrp = _chain(rng, T)
        plan = solve_srrp(srrp, backend="auto")
        ww = solve_wagner_whitin(drrp)
        plan.validate(srrp)
        assert abs(_rel(plan.expected_cost, ww.objective)) <= 1e-9, T
        np.testing.assert_array_equal(plan.chi, ww.chi)


class TestDispatch:
    @pytest.fixture()
    def builds(self, monkeypatch):
        """Count MILP builds: every MILP path goes through the model builder."""
        calls = []
        real = srrp_mod.build_srrp_model

        def spy(instance):
            calls.append(instance.tree.num_nodes)
            return real(instance)

        monkeypatch.setattr(srrp_mod, "build_srrp_model", spy)
        return calls

    def test_auto_builds_no_milp(self, builds):
        solve_srrp(CORPUS[5], backend="auto")
        assert builds == []

    def test_negative_price_trees_reach_the_milp(self, builds):
        inst = _negative_price_tree()
        plan = solve_srrp(inst, backend="auto")
        assert builds == [inst.tree.num_nodes]
        plan.validate(inst)
        assert plan.chi[1] == 1.0 and plan.alpha[1] == 0.0
        assert plan.expected_cost < solve_srrp_tree_dp(inst).expected_cost - 0.1

    def test_bb_options_and_explicit_backends_reach_the_milp(self, builds):
        inst = SMALL[0]
        solve_srrp(inst, backend="auto", bb_options=BranchAndBoundOptions())
        solve_srrp(inst, backend="simplex")
        assert builds == [inst.tree.num_nodes] * 2

    @pytest.mark.parametrize("budget", [{"time_limit": 0}, {"deadline": Deadline(0.0)},
                                        {"deadline": 0.0}])
    def test_expired_deadline_gives_the_time_limit_fallback(self, builds, budget):
        inst = CORPUS[7]
        plan = solve_srrp(inst, backend="auto", **budget)
        assert plan.status is SolverStatus.TIME_LIMIT
        assert plan.extra["fallback"] == "tree-dp"
        assert plan.expected_cost == solve_srrp_tree_dp(inst).expected_cost
        assert builds == []

    @pytest.mark.parametrize("backend", ["simplex", "scipy"])
    def test_explicit_backend_without_incumbent_falls_back(self, backend):
        if backend == "scipy":
            pytest.importorskip("scipy")
        inst = SMALL[3]
        plan = solve_srrp(inst, backend=backend, time_limit=0)
        assert plan.status is SolverStatus.TIME_LIMIT
        assert plan.extra["fallback"] == "tree-dp"
        plan.validate(inst)
        assert plan.expected_cost == solve_srrp_tree_dp(inst).expected_cost

    def test_negative_time_limit_still_rejected(self):
        with pytest.raises(ValueError):
            solve_srrp(CORPUS[7], backend="auto", time_limit=-1.0)

    def test_no_scipy_needed(self, monkeypatch):
        monkeypatch.setattr(interface_mod, "scipy_available", lambda: False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            plan = solve_srrp(CORPUS[9], backend="auto")
        assert plan.status is SolverStatus.OPTIMAL


class TestTelemetry:
    def test_one_solve_pair_with_duration(self):
        rec = EventRecorder()
        plan = solve_srrp(CORPUS[11], backend="auto", listener=rec)
        starts, ends = rec.of_kind("solve_start"), rec.of_kind("solve_end")
        assert len(starts) == 1 and len(ends) == 1
        assert starts[0].data["backend"] == "auto"
        assert starts[0].data["method"] == "tree-dp"
        end = ends[0].data
        assert end["status"] == "optimal" and end["objective"] == plan.expected_cost
        assert (end["nodes"], end["iterations"]) == (0, 0)
        assert end["duration"] is not None and end["duration"] >= 0.0
        phases = rec.of_kind("phase_end")
        assert [ev.data["phase"] for ev in phases] == ["tree_dp"]
        kinds = [ev.kind for ev in rec.events]
        assert kinds == ["solve_start", "phase_start", "phase_end", "solve_end"]

    def test_expired_deadline_is_observed(self):
        rec = EventRecorder()
        solve_srrp(CORPUS[11], backend="auto", listener=rec, time_limit=0)
        assert len(rec.of_kind("solve_start")) == 1
        (end,) = rec.of_kind("solve_end")
        assert end.data["status"] == "time_limit" and end.data["duration"] >= 0.0
        (exceeded,) = rec.of_kind("deadline_exceeded")
        assert exceeded.data["where"] == "solve_srrp"
