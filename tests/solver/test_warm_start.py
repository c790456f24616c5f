"""Warm-start correctness: basis reuse, cycling regression, cross-backend.

Warm starts are a pure optimization — every test here pins the invariant
that a warm solve returns *exactly* the result a cold solve would, just
faster.  Coverage:

* LP level: the exported ``SimplexBasis`` round-trips, repairs after
  branching-style bound changes, and falls back cold on layout mismatch.
* Degenerate cycling: the Dantzig->Bland stall switch terminates Beale's
  classic cycling LP, cold and warm.
* B&B level: warm and cold searches agree with the planted optimum on
  the ``repro.verify`` generator families, and the ``lp_warm``/``lp_cold``
  telemetry tells the truth.
* Oracle level: a seeded mini fuzz campaign (warm starts on by default)
  certifies cleanly.
"""

import numpy as np
import pytest

from repro.solver import BranchAndBoundOptions, SolverStatus, solve_compiled
from repro.solver.model import CompiledProblem
from repro.solver.scipy_backend import scipy_available
from repro.solver.simplex import solve_lp_simplex
from repro.solver.telemetry import EventRecorder
from repro.verify.generators import planted_lp, planted_milp


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


class TestSimplexBasisRoundTrip:
    def test_optimal_result_carries_basis(self):
        p = _lp([-3.0, -2.0], [[1.0, 1.0], [2.0, 1.0]], [4.0, 6.0])
        res = solve_lp_simplex(p)
        assert res.status is SolverStatus.OPTIMAL
        assert res.extra["basis"] is not None
        assert res.extra["warm"] == {"used": False, "reason": "no_warm_start"}

    def test_resolve_from_own_basis_is_free(self):
        p = _lp([-3.0, -2.0], [[1.0, 1.0], [2.0, 1.0]], [4.0, 6.0])
        cold = solve_lp_simplex(p)
        warm = solve_lp_simplex(p, warm_start=cold.extra["basis"])
        assert warm.status is SolverStatus.OPTIMAL
        assert warm.extra["warm"]["used"] is True
        assert warm.objective == pytest.approx(cold.objective)
        assert np.allclose(warm.x, cold.x)
        # identical problem, optimal basis supplied: no pivots needed
        assert warm.iterations == 0

    def test_warm_after_bound_tightening_matches_cold(self):
        # Branching tightens one variable bound; the parent basis stays
        # dual feasible and must repair to the same optimum a cold solve
        # finds.
        rng = np.random.default_rng(7)
        for _ in range(20):
            case = planted_lp(rng)
            p = case.instance
            parent = solve_lp_simplex(p)
            assert parent.status is SolverStatus.OPTIMAL
            child = p.copy() if hasattr(p, "copy") else p
            ub2 = p.ub.copy()
            j = int(np.argmax(np.abs(parent.x - np.round(parent.x)))) \
                if parent.x is not None else 0
            ub2[j] = max(p.lb[j], np.floor(parent.x[j]))
            tightened = CompiledProblem(
                c=p.c, c0=p.c0, A_ub=p.A_ub, b_ub=p.b_ub,
                A_eq=p.A_eq, b_eq=p.b_eq, lb=p.lb, ub=ub2,
                integrality=p.integrality, maximize=p.maximize,
            )
            warm = solve_lp_simplex(tightened, warm_start=parent.extra["basis"])
            cold = solve_lp_simplex(tightened)
            assert warm.status is cold.status
            if cold.status is SolverStatus.OPTIMAL:
                assert warm.objective == pytest.approx(cold.objective, abs=1e-8)

    def test_layout_mismatch_falls_back_cold(self):
        p1 = _lp([-3.0, -2.0], [[1.0, 1.0], [2.0, 1.0]], [4.0, 6.0])
        p2 = _lp([-1.0, -1.0, -1.0], [[1.0, 1.0, 1.0]], [3.0])
        basis = solve_lp_simplex(p1).extra["basis"]
        res = solve_lp_simplex(p2, warm_start=basis)
        assert res.status is SolverStatus.OPTIMAL
        assert res.extra["warm"]["used"] is False
        assert res.extra["warm"]["reason"] == "layout_mismatch"


class TestLayoutReuse:
    """A warm re-solve of the same constraint data runs only the bound step
    of standardization, on the layout its basis carries."""

    def _child(self, p, ub):
        return CompiledProblem(
            c=p.c, c0=p.c0, A_ub=p.A_ub, b_ub=p.b_ub, A_eq=p.A_eq, b_eq=p.b_eq,
            lb=p.lb, ub=np.asarray(ub, float), integrality=p.integrality,
            maximize=p.maximize,
        )

    def test_child_of_same_arrays_reuses_layout(self):
        p = _lp([-3.0, -2.0], [[1.0, 1.0], [2.0, 1.0]], [4.0, 6.0])
        basis = solve_lp_simplex(p).extra["basis"]
        res = solve_lp_simplex(self._child(p, [1.0, np.inf]), warm_start=basis)
        sf = res.extra["standard_form"]
        assert sf.layout is basis.layout
        assert sf.A is basis.layout.A  # no row flipped: the matrix is shared
        assert not sf.A.flags.writeable
        assert res.extra["basis"].layout is basis.layout
        assert res.objective == pytest.approx(solve_lp_simplex(self._child(p, [1.0, np.inf])).objective)

    def test_equal_but_distinct_arrays_rebuild_the_layout(self):
        p = _lp([-3.0, -2.0], [[1.0, 1.0], [2.0, 1.0]], [4.0, 6.0])
        basis = solve_lp_simplex(p).extra["basis"]
        q = p.copy()
        res = solve_lp_simplex(q, warm_start=basis)
        assert res.extra["warm"]["used"] is True  # matched by layout check
        assert res.extra["standard_form"].layout is not basis.layout

    def test_pickled_basis_drops_layout_and_still_warm_starts(self):
        import pickle

        p = _lp([-3.0, -2.0], [[1.0, 1.0], [2.0, 1.0]], [4.0, 6.0])
        basis = solve_lp_simplex(p).extra["basis"]
        back = pickle.loads(pickle.dumps(basis))
        assert back.layout is None and basis.layout is not None
        res = solve_lp_simplex(self._child(p, [1.0, np.inf]), warm_start=back)
        assert res.status is SolverStatus.OPTIMAL
        assert res.extra["warm"]["used"] is True


class TestCyclingRegression:
    """Beale's degenerate LP cycles under naive Dantzig pricing; the
    stall-triggered switch to Bland's rule must terminate it — from a
    cold start and from a warm basis alike."""

    def _beale(self):
        return _lp(
            c=[-0.75, 150.0, -0.02, 6.0],
            A=[
                [0.25, -60.0, -0.04, 9.0],
                [0.5, -90.0, -0.02, 3.0],
                [0.0, 0.0, 1.0, 0.0],
            ],
            b=[0.0, 0.0, 1.0],
        )

    def test_cold_solve_terminates_at_optimum(self):
        res = solve_lp_simplex(self._beale())
        assert res.status is SolverStatus.OPTIMAL
        assert res.objective == pytest.approx(-0.05, abs=1e-9)

    def test_warm_solve_terminates_at_optimum(self):
        p = self._beale()
        basis = solve_lp_simplex(p).extra["basis"]
        # Perturb a bound so the warm path has real pivoting to do on the
        # same degenerate geometry.
        p2 = CompiledProblem(
            c=p.c, c0=p.c0, A_ub=p.A_ub, b_ub=p.b_ub, A_eq=p.A_eq,
            b_eq=p.b_eq, lb=p.lb, ub=np.array([np.inf, np.inf, 0.5, np.inf]),
            integrality=p.integrality, maximize=p.maximize,
        )
        warm = solve_lp_simplex(p2, warm_start=basis)
        cold = solve_lp_simplex(p2)
        assert warm.status is SolverStatus.OPTIMAL
        assert warm.objective == pytest.approx(cold.objective, abs=1e-9)


class TestBranchBoundWarmStarts:
    def test_generator_families_warm_equals_cold_equals_planted(self):
        rng = np.random.default_rng(11)
        for _ in range(15):
            case = planted_milp(rng)
            warm = solve_compiled(
                case.instance, backend="simplex",
                bb_options=BranchAndBoundOptions(warm_start_lps=True),
            )
            cold = solve_compiled(
                case.instance, backend="simplex",
                bb_options=BranchAndBoundOptions(warm_start_lps=False),
            )
            assert warm.status is SolverStatus.OPTIMAL
            assert cold.status is SolverStatus.OPTIMAL
            assert warm.objective == pytest.approx(case.optimum, abs=1e-6)
            assert cold.objective == pytest.approx(case.optimum, abs=1e-6)

    @pytest.mark.skipif(not scipy_available(), reason="needs scipy")
    def test_cross_backend_agreement(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            case = planted_milp(rng)
            warm = solve_compiled(case.instance, backend="simplex")
            highs = solve_compiled(case.instance, backend="scipy")
            assert warm.objective == pytest.approx(highs.objective, abs=1e-6)

    def test_telemetry_and_counters(self):
        rng = np.random.default_rng(3)
        case = planted_milp(rng, n=10, m=8)
        rec = EventRecorder()
        res = solve_compiled(
            case.instance, backend="simplex", listener=rec,
            bb_options=BranchAndBoundOptions(warm_start_lps=True),
        )
        assert res.status is SolverStatus.OPTIMAL
        kinds = rec.kinds()
        n_warm = kinds.get("lp_warm", 0)
        n_cold = kinds.get("lp_cold", 0)
        # extra counters mirror the event stream exactly
        assert res.extra["lp_warm"] == n_warm
        assert res.extra["lp_cold"] == n_cold
        # root is always cold; children warm when any branching happened
        assert n_cold >= 1
        if res.nodes > 1:
            assert n_warm > 0
        for ev in rec.of_kind("lp_warm"):
            assert ev.data["mode"] in ("primal", "dual")

    def test_warm_disabled_emits_only_cold(self):
        rng = np.random.default_rng(5)
        case = planted_milp(rng, n=8, m=6)
        rec = EventRecorder()
        res = solve_compiled(
            case.instance, backend="simplex", listener=rec,
            bb_options=BranchAndBoundOptions(warm_start_lps=False),
        )
        assert res.status is SolverStatus.OPTIMAL
        assert rec.kinds().get("lp_warm", 0) == 0
        assert res.extra["lp_warm"] == 0
        assert res.extra["lp_cold"] == rec.kinds().get("lp_cold", 0)


class TestFuzzOracleWithWarmStarts:
    def test_mini_campaign_certifies(self):
        # Warm starts are on by default in the simplex B&B, so the
        # differential oracle exercises them on every MILP case.
        from repro.verify.fuzz import FuzzConfig, run_fuzz

        report = run_fuzz(FuzzConfig(
            seed=13, max_cases=40, families=("lp", "milp"), shrink=False,
        ))
        assert report.cases == 40
        assert report.ok, report.to_dict()
