"""Process audits: healthy solver streams pass, corrupted evidence fails."""

import numpy as np
import pytest

from repro.solver.benders import solve_benders
from repro.solver.interface import solve_compiled
from repro.solver.scipy_backend import scipy_available
from repro.solver.telemetry import EventRecorder, SolveEvent
from repro.verify.audits import all_passed, audit_bb_events, audit_benders_cuts
from repro.verify.generators import planted_milp, random_two_stage

needs_scipy = pytest.mark.skipif(not scipy_available(), reason="scipy not installed")


def ev(kind, **data):
    return SolveEvent(kind=kind, t=0.0, data=data)


class TestBBAudit:
    def test_real_bb_stream_passes(self, rng):
        for _ in range(4):
            case = planted_milp(rng)
            rec = EventRecorder()
            solve_compiled(case.instance, backend="simplex", use_presolve=False, listener=rec)
            checks = audit_bb_events(rec.events)
            assert all_passed(checks), [c.detail for c in checks if not c.passed]

    def test_decreasing_bounds_flagged(self):
        events = [ev("node_close", node=0, bound=5.0), ev("node_close", node=1, bound=3.0)]
        checks = audit_bb_events(events)
        bad = [c for c in checks if not c.passed]
        assert [c.name for c in bad] == ["bounds_monotone"]

    def test_unjustified_prune_flagged(self):
        events = [ev("node_prune", node=4, bound=1.0, incumbent=10.0)]
        checks = audit_bb_events(events)
        assert any(c.name == "prunes_justified" and not c.passed for c in checks)

    def test_worsening_incumbent_flagged(self):
        events = [ev("incumbent", objective=3.0), ev("incumbent", objective=7.0)]
        checks = audit_bb_events(events)
        assert any(c.name == "incumbents_improve" and not c.passed for c in checks)
        # ...but it is the expected direction under maximize
        assert all_passed(audit_bb_events(events, maximize=True))


@needs_scipy
class TestBendersCutAudit:
    def test_real_cut_records_pass(self, rng):
        for _ in range(4):
            case = random_two_stage(rng)
            bd = solve_benders(case.instance)
            checks = audit_benders_cuts(
                case.instance, bd.extra["cut_records"], bd.extra["penalty"]
            )
            assert all_passed(checks), [c.detail for c in checks if not c.passed]
            assert len(checks) == len(bd.extra["cut_records"])

    def test_dual_infeasible_cut_flagged(self, rng):
        case = random_two_stage(rng)
        bd = solve_benders(case.instance)
        rec = dict(bd.extra["cut_records"][0])
        rec["dual"] = np.asarray(rec["dual"]) * 100.0 + 10.0
        checks = audit_benders_cuts(case.instance, [rec], bd.extra["penalty"])
        assert not all_passed(checks)

    def test_negative_mu_flagged(self, rng):
        case = random_two_stage(rng)
        bd = solve_benders(case.instance)
        rec = dict(bd.extra["cut_records"][0])
        rec["mu"] = np.full(case.instance.scenarios[0].q.shape[0], -1.0)
        checks = audit_benders_cuts(case.instance, [rec], bd.extra["penalty"])
        failing = [c for c in checks if not c.passed]
        assert failing and "mu_nonneg" in failing[0].name


@needs_scipy
class TestBendersBoundDualRegression:
    """Regression for the finite-y_ub cut bug the oracle originally caught:
    with binding recourse upper bounds, cuts built from the equality duals
    alone overshoot and Benders converges to a wrong (higher) objective."""

    def test_binding_y_ub_converges_to_extensive_form(self):
        from repro.solver.benders import extensive_form

        rng = np.random.default_rng(1)
        worst = 0.0
        for _ in range(12):
            case = random_two_stage(rng)
            ef = solve_compiled(extensive_form(case.instance), backend="auto", use_presolve=False)
            bd = solve_benders(case.instance)
            assert bd.status.has_solution
            worst = max(worst, abs(ef.objective - bd.objective) / (1 + abs(ef.objective)))
        assert worst <= 1e-6
