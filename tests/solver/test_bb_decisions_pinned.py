"""Pinned branch-and-bound decisions on the pure-Python stack.

Rolling-DRRP campaigns with ``backend="simplex"`` replan through
:func:`repro.solver.branch_and_bound` over the warm-started revised
simplex.  Speed work on that path (warm infeasibility proofs, bound-only
re-standardization, leaner node plumbing) must not change one decision,
so this file pins, for every B&B solve of three seeded 48-slot campaigns,
the status, node count, ``repr`` of the objective and a digest of the
returned ``x`` bytes, plus each campaign's realized ``total_cost`` and
how many child LPs were infeasible.  Iteration and pivot counts are
deliberately not pinned: they are what the speed work reduces.

The values were recorded with NumPy's bundled OpenBLAS on x86-64.  A
change here is a behaviour change of the search.  The file imports
nothing from SciPy; a 48-slot campaign runs without it.
"""

import hashlib

import pytest

import repro.solver.interface as interface_mod
from repro.sim.engine import CampaignConfig, run_campaign
from repro.sim.horizon import HorizonConfig
from repro.solver import SolverStatus

# campaign seed -> (repr of realized total_cost, infeasible child LPs,
#                   per B&B solve: (status, nodes, repr(objective),
#                                   sha256(x.tobytes())[:16]))
CAMPAIGNS = {
    11: (
        "12.099293485521924", 42,
        (
            ("optimal", 55, "7.05061908537631", "db76d878c67b0200"),
            ("optimal", 52, "6.030300045928162", "c1b93fa57459fad8"),
            ("optimal", 45, "5.184981983396462", "297ce41347e03d69"),
            ("optimal", 46, "4.264238117766464", "ac6330e6c4187185"),
            ("optimal", 9, "3.3784833534286065", "a080b05edc4f263f"),
            ("optimal", 28, "2.5808730600166943", "0b56baed5f396816"),
            ("optimal", 30, "1.8201338704194916", "0e39ddd149e3fa81"),
            ("optimal", 10, "0.8177016223043914", "32b786892680ce3e"),
        ),
    ),
    12: (
        "10.597044651784636", 35,
        (
            ("optimal", 53, "7.687249490664149", "0ea81337f25d1859"),
            ("optimal", 52, "6.512658545801434", "4867bd54376bff39"),
            ("optimal", 30, "5.5717284458097875", "fb7dfe3e52407d35"),
            ("optimal", 34, "4.71368430602551", "50b2d83952276076"),
            ("optimal", 25, "3.528143020162883", "e2be8235b531e1b8"),
            ("optimal", 32, "2.591658383532721", "ecd0ccd7646f500d"),
            ("optimal", 5, "1.6978456800215826", "ab3075ef954f590c"),
            ("optimal", 20, "0.9536752018040334", "8021ea8b21ae6932"),
        ),
    ),
    13: (
        "8.841623179480925", 31,
        (
            ("optimal", 48, "7.499716623422136", "87885ed9730a792c"),
            ("optimal", 35, "6.669342276959683", "56e0920608f1fec6"),
            ("optimal", 35, "5.6839491849972745", "3df174c5442620b0"),
            ("optimal", 33, "4.719450681602886", "cdfb343851873c87"),
            ("optimal", 31, "3.667068971347549", "8ba8317533e9c298"),
            ("optimal", 33, "2.8318769510937996", "bfe0a838cdbc68ce"),
            ("optimal", 25, "1.953565212372963", "669ff89413a5e5f2"),
            ("optimal", 15, "1.0326511254656365", "7ce64fa3bf2af049"),
        ),
    ),
}


def _digest(x) -> str:
    return hashlib.sha256(x.tobytes()).hexdigest()[:16]


@pytest.mark.parametrize("seed", sorted(CAMPAIGNS))
def test_campaign_bb_decisions_pinned(seed, monkeypatch):
    solves, infeasible = [], []
    bb, lp = interface_mod.branch_and_bound, interface_mod.solve_lp_simplex

    def recording_bb(*args, **kwargs):
        res = bb(*args, **kwargs)
        solves.append((res.status.value, res.nodes, repr(res.objective), _digest(res.x)))
        return res

    def recording_lp(*args, **kwargs):
        res = lp(*args, **kwargs)
        if res.status is SolverStatus.INFEASIBLE:
            infeasible.append(res.extra["warm"])
        return res

    monkeypatch.setattr(interface_mod, "branch_and_bound", recording_bb)
    monkeypatch.setattr(interface_mod, "solve_lp_simplex", recording_lp)
    result = run_campaign(CampaignConfig(
        slots=48, seed=seed,
        horizon=HorizonConfig(prediction=48, control=6, coarse_block=4),
        backend="simplex", policies=("rolling-drrp",),
    ))

    total_cost, n_infeasible, expected = CAMPAIGNS[seed]
    assert solves == list(expected)
    assert repr(result.outcomes["rolling-drrp"].result.total_cost) == total_cost
    # The corpus must exercise infeasible children (the warm-proof path).
    assert len(infeasible) == n_infeasible > 0
