"""Parallel Benders fan-out and per-scenario warm starts.

Serial and multi-worker runs must land on the same optimum as the
extensive form; the fan-out only changes *where* subproblems run, never
what they return.
"""

import numpy as np
import pytest

from repro.solver import SolverStatus
from repro.solver.benders import (
    BendersOptions,
    Scenario,
    TwoStageProblem,
    extensive_form,
    solve_benders,
)
from repro.solver.telemetry import EventRecorder


def _complete_recourse(seed=0, n=4, m=6, ny0=10, S=8):
    """Two-stage program with elastic recourse: W = [W0 I -I]."""
    rng = np.random.default_rng(seed)
    scenarios = []
    for _ in range(S):
        W0 = rng.uniform(0.1, 1.0, (m, ny0))
        W = np.hstack([W0, np.eye(m), -np.eye(m)])
        T = rng.uniform(0.0, 0.5, (m, n))
        h = rng.uniform(2.0, 8.0, m)
        q = np.concatenate([rng.uniform(0.5, 2.0, ny0), np.full(2 * m, 6.0)])
        y_ub = np.concatenate([rng.uniform(0.5, 3.0, ny0), np.full(2 * m, np.inf)])
        scenarios.append(Scenario(prob=1.0 / S, q=q, W=W, T=T, h=h, y_ub=y_ub))
    return TwoStageProblem(
        c=rng.uniform(1.0, 4.0, n), lb=np.zeros(n), ub=np.full(n, 5.0),
        integrality=np.zeros(n, dtype=int), scenarios=scenarios,
    )


class TestSimplexSubproblems:
    def test_serial_matches_extensive_form(self):
        from repro.solver import solve_compiled

        for seed in (0, 3):
            tsp = _complete_recourse(seed=seed)
            res = solve_benders(tsp, options=BendersOptions(n_workers=1))
            ref = solve_compiled(extensive_form(tsp))
            assert res.status is SolverStatus.OPTIMAL
            assert ref.status is SolverStatus.OPTIMAL
            assert res.objective == pytest.approx(ref.objective, rel=1e-6)

    def test_scenarios_warm_start_across_iterations(self):
        tsp = _complete_recourse(seed=5)
        res = solve_benders(tsp, options=BendersOptions(n_workers=1))
        iters = res.nodes
        # iteration 1 is cold for every scenario; each later iteration
        # should warm-start every scenario from its previous basis
        assert res.extra["subproblem_warm_hits"] == len(tsp.scenarios) * (iters - 1)


class TestParallelFanOut:
    def test_parallel_matches_serial(self):
        tsp = _complete_recourse(seed=1)
        serial = solve_benders(tsp, options=BendersOptions(n_workers=1))
        fanned = solve_benders(tsp, options=BendersOptions(n_workers=3))
        assert fanned.status is SolverStatus.OPTIMAL
        assert fanned.objective == pytest.approx(serial.objective, rel=1e-8)
        assert fanned.extra["workers"] == 3
        assert serial.extra["workers"] == 1

    def test_parallel_telemetry(self):
        tsp = _complete_recourse(seed=2)
        rec = EventRecorder()
        res = solve_benders(tsp, options=BendersOptions(n_workers=2), listener=rec)
        assert res.status is SolverStatus.OPTIMAL
        rounds = rec.of_kind("benders_parallel")
        assert len(rounds) == res.nodes  # one fan-out event per iteration
        for ev in rounds:
            assert ev.data["workers"] == 2
            assert ev.data["scenarios"] == len(tsp.scenarios)
        # warm hits reported per round: 0 on the first, all scenarios after
        assert rounds[0].data["warm_hits"] == 0
        assert all(
            ev.data["warm_hits"] == len(tsp.scenarios) for ev in rounds[1:]
        )

    def test_serial_emits_no_parallel_events(self):
        tsp = _complete_recourse(seed=4)
        rec = EventRecorder()
        solve_benders(tsp, options=BendersOptions(n_workers=1), listener=rec)
        assert rec.kinds().get("benders_parallel", 0) == 0

    def test_workers_capped_by_scenario_count(self):
        tsp = _complete_recourse(seed=6, S=2)
        res = solve_benders(tsp, options=BendersOptions(n_workers=16))
        assert res.status is SolverStatus.OPTIMAL
        assert res.extra["workers"] == 2


class TestWithoutScipy:
    def test_auto_master_degrades_once(self, monkeypatch):
        import repro.solver.interface as interface_mod
        from repro.solver import solve_compiled

        monkeypatch.setattr(interface_mod, "scipy_available", lambda: False)
        tsp = _complete_recourse(seed=0)
        rec = EventRecorder()
        with pytest.warns(RuntimeWarning, match="falling back"):
            res = solve_benders(tsp, options=BendersOptions(n_workers=1), listener=rec)
        assert res.status is SolverStatus.OPTIMAL
        assert res.nodes >= 2  # several master solves, one degradation
        degraded = rec.of_kind("backend_degraded")
        assert len(degraded) == 1
        assert degraded[0].data["to_backend"] == "simplex"
        ref = solve_compiled(extensive_form(tsp), backend="simplex")
        assert res.objective == pytest.approx(ref.objective, rel=1e-6)


class TestDeadline:
    def test_zero_budget_returns_time_limit(self):
        from repro.solver.telemetry import Deadline

        tsp = _complete_recourse(seed=7)
        res = solve_benders(
            tsp, options=BendersOptions(n_workers=2), deadline=Deadline(0.0)
        )
        assert res.status in (SolverStatus.TIME_LIMIT, SolverStatus.FEASIBLE)
