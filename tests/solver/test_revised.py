"""Revised-simplex engine: degeneracy, refactorization, certificates.

The engine's answers are checked against exact certificates
(:func:`repro.verify.certify_result`) and, where SciPy is installed,
against HiGHS.  Coverage:

* Beale's cycling LP terminates, cold and warm.
* Degenerate ratio-test ties and bound-flip-only iterations reach the
  certified optimum.
* Stress-small refactorization budget (``_MAX_UPDATES = 1``) keeps the
  factorization honest without changing the answer.
* Agreement with HiGHS on objectives, plus exact dual certificates and
  Farkas rays, over the planted generator families.
* A rejected warm basis falls back cold *loudly* — the
  ``warm_start_rejected`` event names the reason.
* Numerical trouble on a cold solve is a typed ``ERROR`` with a
  ``numerical_trouble`` event, through ``solve_compiled`` too.
* Differential fuzz oracle (all families, smoke-scale budget) certifies
  against the revised backend.
"""

import numpy as np
import pytest

from repro.solver import SolverStatus, scipy_available, solve_compiled
from repro.solver.model import CompiledProblem
from repro.solver import revised
from repro.solver.revised import NumericalTrouble, revised_solve
from repro.solver.simplex import solve_lp_simplex, standardize
from repro.solver.telemetry import EventRecorder, Telemetry
from repro.verify.certify import certify_result
from repro.verify.fuzz import FuzzConfig, run_fuzz
from repro.verify.generators import FAMILIES, planted_lp


def _lp(c, A, b, ub=None):
    n = len(c)
    return CompiledProblem(
        c=np.asarray(c, float), c0=0.0,
        A_ub=np.asarray(A, float), b_ub=np.asarray(b, float),
        A_eq=np.zeros((0, n)), b_eq=np.zeros(0),
        lb=np.zeros(n),
        ub=np.full(n, np.inf) if ub is None else np.asarray(ub, float),
        integrality=np.zeros(n, dtype=int), maximize=False,
    )


def _beale():
    return _lp(
        c=[-0.75, 150.0, -0.02, 6.0],
        A=[
            [0.25, -60.0, -0.04, 9.0],
            [0.5, -90.0, -0.02, 3.0],
            [0.0, 0.0, 1.0, 0.0],
        ],
        b=[0.0, 0.0, 1.0],
    )


def _assert_checked(problem, res):
    """``res`` certifies exactly and, when SciPy is installed, matches HiGHS
    on status and objective."""
    if res.status is not SolverStatus.UNBOUNDED:
        report = certify_result(problem, res)
        assert report.verdict == "certified", report.to_dict()
    if scipy_available():
        from repro.solver.scipy_backend import solve_lp_scipy

        ref = solve_lp_scipy(problem)
        assert ref.status is res.status
        if res.status is SolverStatus.OPTIMAL:
            assert res.objective == pytest.approx(ref.objective, abs=1e-7)


class TestBealeCyclingRevised:
    """The stall-triggered Dantzig->Bland switch must terminate Beale's
    cycling LP on the factored path — cold and warm."""

    def test_cold_terminates_at_optimum(self):
        p = _beale()
        res = solve_lp_simplex(p)
        assert res.status is SolverStatus.OPTIMAL
        assert res.objective == pytest.approx(-0.05, abs=1e-9)
        _assert_checked(p, res)

    def test_warm_terminates_at_optimum(self):
        p = _beale()
        basis = solve_lp_simplex(p).extra["basis"]
        p2 = CompiledProblem(
            c=p.c, c0=p.c0, A_ub=p.A_ub, b_ub=p.b_ub, A_eq=p.A_eq,
            b_eq=p.b_eq, lb=p.lb, ub=np.array([np.inf, np.inf, 0.5, np.inf]),
            integrality=p.integrality, maximize=p.maximize,
        )
        warm = solve_lp_simplex(p2, warm_start=basis)
        assert warm.status is SolverStatus.OPTIMAL
        assert warm.extra["warm"]["used"] is True
        _assert_checked(p2, warm)

    def test_warm_resolve_is_free(self):
        p = _beale()
        cold = solve_lp_simplex(p)
        warm = solve_lp_simplex(p, warm_start=cold.extra["basis"])
        assert warm.status is SolverStatus.OPTIMAL
        assert warm.iterations == 0
        assert warm.objective == pytest.approx(cold.objective)


class TestDegenerateAndBoundFlips:
    def test_degenerate_ratio_ties_agree(self):
        # Duplicated rows force exact ties in the leaving-row ratio test;
        # the tie-break must still terminate at the certified optimum.
        p = _lp(
            c=[-1.0, -1.0],
            A=[[1.0, 0.0], [1.0, 0.0], [1.0, 1.0]],
            b=[1.0, 1.0, 2.0],
        )
        rev = solve_lp_simplex(p)
        assert rev.status is SolverStatus.OPTIMAL
        assert rev.objective == pytest.approx(-2.0, abs=1e-9)
        _assert_checked(p, rev)

    def test_bound_flip_only_iterations(self):
        # Upper bounds bind before any constraint: the optimum is reached
        # purely by nonbasic bound flips (0 -> ub) with no basis change.
        p = _lp(
            c=[-1.0, -1.0],
            A=[[1.0, 1.0]],
            b=[10.0],
            ub=[2.0, 2.0],
        )
        rev = solve_lp_simplex(p)
        assert rev.status is SolverStatus.OPTIMAL
        assert rev.objective == pytest.approx(-4.0, abs=1e-12)
        assert np.allclose(rev.x, [2.0, 2.0])
        _assert_checked(p, rev)

    def test_at_upper_statuses_survive_roundtrip(self):
        p = _lp(
            c=[-1.0, -1.0],
            A=[[1.0, 1.0]],
            b=[10.0],
            ub=[2.0, 2.0],
        )
        cold = solve_lp_simplex(p)
        warm = solve_lp_simplex(p, warm_start=cold.extra["basis"])
        assert warm.status is SolverStatus.OPTIMAL
        assert warm.iterations == 0
        assert np.allclose(warm.x, [2.0, 2.0])


class TestRefactorizationPolicy:
    def test_tiny_update_budget_same_answer(self, monkeypatch):
        # An update budget of 1 forces a refactorization on essentially
        # every pivot; the answer must not move and the factor must report
        # the extra work honestly.
        def solve(sf):
            rec = EventRecorder()
            out = revised_solve(sf, telemetry=Telemetry(rec))
            refacts = [
                ev.data["refactorizations"]
                for ev in rec.of_kind("phase_end")
                if "refactorizations" in ev.data
            ]
            return out, max(refacts)

        rng = np.random.default_rng(17)
        for _ in range(5):
            case = planted_lp(rng)
            sf = standardize(case.instance)
            if sf.A.shape[0] == 0:
                continue
            default, default_refacts = solve(sf)
            with monkeypatch.context() as patch:
                patch.setattr(revised, "_MAX_UPDATES", 1)
                stressed, stressed_refacts = solve(sf)
            assert stressed[0] == default[0]
            if stressed[0] == "optimal":
                assert stressed[2] == pytest.approx(default[2], abs=1e-8)
            assert stressed_refacts > default_refacts


class TestCrossEngineAgreement:
    """The two LP engines of the stack — the revised simplex and HiGHS —
    agree, and the revised engine's certificates check exactly."""

    def test_planted_lps_certify_on_both_engines(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            case = planted_lp(rng)
            rev = solve_lp_simplex(case.instance)
            if rev.status is SolverStatus.OPTIMAL:
                assert rev.objective == pytest.approx(case.optimum, abs=1e-6)
            _assert_checked(case.instance, rev)

    def test_farkas_rays_certify_on_both_engines(self):
        # lb=0 with row -x1 <= -2 and ub=1: provably empty.
        p = _lp(c=[1.0], A=[[-1.0]], b=[-2.0], ub=[1.0])
        res = solve_lp_simplex(p)
        assert res.status is SolverStatus.INFEASIBLE
        assert res.extra.get("farkas_certificate") is not None
        _assert_checked(p, res)

    def test_unbounded_agrees(self):
        p = _lp(c=[-1.0, 0.0], A=[[0.0, 1.0]], b=[1.0])
        res = solve_lp_simplex(p)
        assert res.status is SolverStatus.UNBOUNDED
        _assert_checked(p, res)


class TestNumericalTrouble:
    """A cold solve that loses its basis is a typed ``ERROR`` plus one
    ``numerical_trouble`` event, never a wrong answer or a traceback."""

    @pytest.fixture
    def singular(self, monkeypatch):
        import repro.solver.simplex as simplex_mod

        def broken(*args, **kwargs):
            raise NumericalTrouble("singular basis on scheduled refactorization")

        monkeypatch.setattr(simplex_mod, "revised_solve", broken)

    def test_cold_lp_returns_error_and_event(self, singular):
        p = _lp([-3.0, -2.0], [[1.0, 1.0], [2.0, 1.0]], [4.0, 6.0])
        rec = EventRecorder()
        res = solve_lp_simplex(p, telemetry=Telemetry(rec))
        assert res.status is SolverStatus.ERROR
        assert res.x is None
        assert res.extra["reason"] == "singular basis on scheduled refactorization"
        events = rec.of_kind("numerical_trouble")
        assert len(events) == 1
        assert events[0].data["where"] == "simplex"
        assert events[0].data["reason"] == res.extra["reason"]
        assert not rec.of_kind("backend_degraded")

    def test_solve_compiled_lp(self, singular):
        p = _lp([-3.0, -2.0], [[1.0, 1.0], [2.0, 1.0]], [4.0, 6.0])
        rec = EventRecorder()
        res = solve_compiled(p, backend="simplex", use_presolve=False, listener=rec)
        assert res.status is SolverStatus.ERROR
        assert "singular" in res.extra["reason"]
        assert len(rec.of_kind("numerical_trouble")) == 1
        assert rec.of_kind("solve_end")[-1].data["status"] == "error"

    def test_solve_compiled_milp(self, singular):
        p = _lp([-3.0, -2.0], [[1.0, 1.0], [2.0, 1.0]], [4.5, 6.5])
        p = CompiledProblem(
            c=p.c, c0=p.c0, A_ub=p.A_ub, b_ub=p.b_ub, A_eq=p.A_eq, b_eq=p.b_eq,
            lb=p.lb, ub=p.ub, integrality=np.ones(2, dtype=int), maximize=False,
        )
        res = solve_compiled(p, backend="simplex", use_presolve=False)
        assert res.status is SolverStatus.ERROR
        assert res.x is None

    def test_milp_root_failure_keeps_reason_and_emits_once(self, singular):
        p = _lp([-3.0, -2.0], [[1.0, 1.0], [2.0, 1.0]], [4.5, 6.5])
        p = CompiledProblem(
            c=p.c, c0=p.c0, A_ub=p.A_ub, b_ub=p.b_ub, A_eq=p.A_eq, b_eq=p.b_eq,
            lb=p.lb, ub=p.ub, integrality=np.ones(2, dtype=int), maximize=False,
        )
        rec = EventRecorder()
        res = solve_compiled(p, backend="simplex", use_presolve=False, listener=rec)
        assert res.status is SolverStatus.ERROR
        assert res.extra["reason"] == "singular basis on scheduled refactorization"
        events = rec.of_kind("numerical_trouble")
        assert len(events) == 1
        assert events[0].data["where"] == "simplex"
        assert events[0].data["reason"] == res.extra["reason"]


class TestLoudWarmRejection:
    def test_layout_mismatch_emits_event(self):
        p1 = _lp([-3.0, -2.0], [[1.0, 1.0], [2.0, 1.0]], [4.0, 6.0])
        p2 = _lp([-1.0, -1.0, -1.0], [[1.0, 1.0, 1.0]], [3.0])
        basis = solve_lp_simplex(p1).extra["basis"]
        rec = EventRecorder()
        res = solve_lp_simplex(p2, warm_start=basis, telemetry=Telemetry(rec))
        assert res.status is SolverStatus.OPTIMAL
        assert res.extra["warm"] == {
            "used": False, "reason": "layout_mismatch",
        }
        events = rec.of_kind("warm_start_rejected")
        assert len(events) == 1
        assert events[0].data["where"] == "simplex"
        assert events[0].data["reason"] == "layout_mismatch"

    def test_accepted_warm_start_stays_quiet(self):
        p = _lp([-3.0, -2.0], [[1.0, 1.0], [2.0, 1.0]], [4.0, 6.0])
        basis = solve_lp_simplex(p).extra["basis"]
        rec = EventRecorder()
        res = solve_lp_simplex(p, warm_start=basis, telemetry=Telemetry(rec))
        assert res.extra["warm"]["used"] is True
        assert not rec.of_kind("warm_start_rejected")


def _eq_lp(c, A_eq, b_eq, lb, ub):
    n = len(c)
    return CompiledProblem(
        c=np.asarray(c, float), c0=0.0,
        A_ub=np.zeros((0, n)), b_ub=np.zeros(0),
        A_eq=np.asarray(A_eq, float), b_eq=np.asarray(b_eq, float),
        lb=np.asarray(lb, float), ub=np.asarray(ub, float),
        integrality=np.zeros(n, dtype=int), maximize=False,
    )


def _child(p, lb=None, ub=None):
    """A branch-and-bound child: ``p`` with new bounds, same data objects."""
    return CompiledProblem(
        c=p.c, c0=p.c0, A_ub=p.A_ub, b_ub=p.b_ub, A_eq=p.A_eq, b_eq=p.b_eq,
        lb=p.lb if lb is None else np.asarray(lb, float),
        ub=p.ub if ub is None else np.asarray(ub, float),
        integrality=p.integrality, maximize=p.maximize,
    )


class TestWarmInfeasibilityProofs:
    """An infeasible child is proven by the warm dual repair itself: the
    BTRAN row of the blocked leaving row is a Farkas ray, exported exactly
    as the cold phase-1 rays are."""

    @pytest.fixture
    def directions(self, monkeypatch):
        """Record the violation direction of every ray the dual proposes."""
        from repro.solver.revised import _Core

        seen = []
        original = _Core.farkas_ray

        def spy(core, row, over, arow):
            ray = original(core, row, over, arow)
            seen.append((over, ray is not None))
            return ray

        monkeypatch.setattr(_Core, "farkas_ray", spy)
        return seen

    def _assert_warm_proof(self, child, basis):
        rec = EventRecorder()
        res = solve_lp_simplex(child, warm_start=basis, telemetry=Telemetry(rec))
        assert res.status is SolverStatus.INFEASIBLE
        assert res.extra["warm"] == {"used": True, "mode": "dual"}
        assert not rec.of_kind("warm_start_rejected")
        report = certify_result(child, res)
        assert report.verdict == "certified", report.to_dict()
        assert solve_lp_simplex(child).status is SolverStatus.INFEASIBLE

    def test_basic_above_its_upper_bound(self, directions):
        # x1 + x2 = 1.5 on [0,1]^2; the parent ends with x2 = 0.5 basic.
        # Branching x2 <= 0 leaves it above its new bound, and x1 already
        # sits at its upper bound: no column can bring x2 down.
        p = _eq_lp([1.0, 2.0], [[1.0, 1.0]], [1.5], lb=[0, 0], ub=[1, 1])
        parent = solve_lp_simplex(p)
        assert parent.x == pytest.approx([1.0, 0.5])
        self._assert_warm_proof(_child(p, ub=[1, 0]), parent.extra["basis"])
        assert directions == [(True, True)]

    def test_basic_below_zero(self, directions):
        # x1 + x2 = 1.5 with x1 in [0,1], x2 in [0,2]; the parent ends with
        # x2 = 1.5 basic.  Branching x2 >= 2 shifts the row to a negative
        # rhs, and x1 at its lower bound cannot lift x2 any higher.
        p = _eq_lp([2.0, 1.0], [[1.0, 1.0]], [1.5], lb=[0, 0], ub=[1, 2])
        parent = solve_lp_simplex(p)
        assert parent.x == pytest.approx([0.0, 1.5])
        self._assert_warm_proof(_child(p, lb=[0, 2]), parent.extra["basis"])
        assert directions == [(False, True)]

    def test_tiny_coefficient_on_unbounded_column_falls_back_cold(self, directions):
        # Same as the upper-bound case plus x3 >= 0 with no upper bound and
        # a coefficient below the dual's eligibility tolerance.  The dual
        # finds no entering column, but x3 could carry the row anywhere, so
        # the ray fails the float check and the solve falls back cold.
        p = _eq_lp(
            [1.0, 2.0, 1.0], [[1.0, 1.0, 1e-11]], [1.5],
            lb=[0, 0, 0], ub=[1, 1, np.inf],
        )
        parent = solve_lp_simplex(p)
        child = _child(p, ub=[1, 0, np.inf])
        rec = EventRecorder()
        res = solve_lp_simplex(child, warm_start=parent.extra["basis"], telemetry=Telemetry(rec))
        assert directions == [(True, False)]
        assert res.extra["warm"] == {"used": False, "reason": "repair_failed"}
        events = rec.of_kind("warm_start_rejected")
        assert len(events) == 1
        assert events[0].data["reason"] == "repair_failed"

    def test_branched_corpus_warm_and_cold_agree(self, directions):
        # Random bounded LPs with equality rows, each branched on every
        # variable both ways around its parent value: the warm re-solve and
        # a cold solve must agree on which children are infeasible, and
        # every warm proof must certify.
        rng = np.random.default_rng(2024)
        proofs = agree = 0
        for _ in range(30):
            n, m_eq, m_ub = 6, 3, 2
            A_eq = rng.integers(-3, 4, size=(m_eq, n)).astype(float)
            A_ub = rng.integers(-3, 4, size=(m_ub, n)).astype(float)
            ub = rng.integers(1, 4, size=n).astype(float)
            x0 = rng.uniform(0.0, ub)
            p = CompiledProblem(
                c=rng.normal(size=n), c0=0.0,
                A_ub=A_ub, b_ub=A_ub @ x0 + rng.uniform(0.0, 1.0, size=m_ub),
                A_eq=A_eq, b_eq=A_eq @ x0,
                lb=np.zeros(n), ub=ub,
                integrality=np.zeros(n, dtype=int), maximize=False,
            )
            parent = solve_lp_simplex(p)
            assert parent.status is SolverStatus.OPTIMAL
            for j in range(n):
                down_ub, up_lb = p.ub.copy(), p.lb.copy()
                down_ub[j] = np.floor(parent.x[j] - 0.5)
                up_lb[j] = np.ceil(parent.x[j] + 0.5)
                for child in (_child(p, ub=down_ub), _child(p, lb=up_lb)):
                    if np.any(child.lb > child.ub):
                        continue
                    warm = solve_lp_simplex(child, warm_start=parent.extra["basis"])
                    cold = solve_lp_simplex(child)
                    infeasible = cold.status is SolverStatus.INFEASIBLE
                    assert (warm.status is SolverStatus.INFEASIBLE) == infeasible
                    agree += 1
                    if infeasible and warm.extra["warm"]["used"]:
                        proofs += 1
                        assert certify_result(child, warm).verdict == "certified"
        assert agree > 200
        assert proofs >= 100
        assert {over for over, _ in directions} == {True, False}


class TestFuzzOracleRevisedBackend:
    @pytest.mark.skipif(not scipy_available(), reason="the fuzz oracle compares against HiGHS")
    def test_all_families_mini_campaign_certifies(self):
        assert len(FAMILIES) == 10
        report = run_fuzz(FuzzConfig(seed=41, max_cases=20, shrink=False))
        assert report.cases == 20
        assert report.ok, report.to_dict()
