"""Pinned fleet decisions: the planner's choices, to the last bit.

The heuristic tier searches on floats and accounts exactly; speed work on
either side must not change a single decision.  These values were
recorded from the planner and are asserted exactly: the fleet's exact
total cost, its repair trajectory, every tenant's rental slots, and per
instance the heuristic's exact objective, search rounds and escalation
verdicts.  A change here is a behaviour change, never noise.
"""

import numpy as np
import pytest

from repro.fleet import (
    FleetConfig,
    HeuristicInfeasible,
    generate_tenants,
    plan_fleet,
    solve_heuristic,
    uniform_pools,
)
from repro.fleet.planner import _knock
from repro.fleet.tenants import SLAS

# seed -> (total_cost_exact, repair_rounds, escalated, knockouts,
#          per-tenant chi as one "0"/"1" character per slot)
FLEETS = {
    0: (
        "18296877238813695748037616812223911337/166153499473114484112975882535043072",
        4, 1, 4,
        (
            "100100100100100100100100",
            "101010111010101011010110",
            "100101010100101001001001",
            "100000001000000010000000",
            "111111011011011010011101",
            "100100001100100100100100",
            "111111111111110101010101",
            "100010001001000100100010",
            "101010101010010010010010",
            "100010010010010100101000",
        ),
    ),
    2: (
        "1286001740780187086141426551846897163/10384593717069655257060992658440192",
        2, 2, 45,
        (
            "100110000000011000001001",
            "111111111111111111111111",
            "101010010010010100100100",
            "100000100001000100001001",
            "111111111111100110010111",
            "100001000010001000000100",
            "100000000010000001100000",
            "100010000100000010000000",
            "100001000100001000100001",
            "011001111101111111111110",
        ),
    ),
    3: (
        "2439485338221962581433016911311533001/20769187434139310514121985316880384",
        4, 2, 24,
        (
            "101010101010110101011010",
            "111111111111111111111111",
            "111111111111111111111111",
            "100001000100010001000010",
            "111111111111111111111111",
            "100101001001010101010001",
            "100000010001001000100000",
            "111111111111111111111111",
            "100001000000000010000100",
            "101010101010101010101001",
        ),
    ),
    7: (
        "2505065584011214243696278712898223415/20769187434139310514121985316880384",
        5, 2, 20,
        (
            "111111111111111111111111",
            "110000000000100100000100",
            "111111111111111111111111",
            "101010101101001001001001",
            "101010101010101010101010",
            "100101010010010000001000",
            "111111111111111111111111",
            "111111111111111111111111",
            "100101010010010010010010",
            "100001000100010000100000",
        ),
    ),
    9: (
        "114082780888257810046699170758498969/1298074214633706907132624082305024",
        1, 0, 1,
        (
            "100010010010001000100100",
            "100100101010010010101010",
            "100001000100010001000110",
            "111111111111111111111111",
            "100100100100100100100101",
            "111111111111111111111111",
            "111011101110111111111101",
            "100101001010010001001000",
            "100010010001000100010000",
            "100001000100100010001000",
        ),
    ),
    11: (
        "948937613523628086632026177318603873/10384593717069655257060992658440192",
        1, 0, 1,
        (
            "100001000100010001001000",
            "100110010100100100110110",
            "111111111111111111111111",
            "110101010100101010010100",
            "100000001000000010000000",
            "111111111111111111111111",
            "100010001001000100001000",
            "101010101010010101010100",
            "100101010101001000100100",
            "101010101010101010101010",
        ),
    ),
}

# (exact_objective, rounds, gap > premium tolerance, gap > standard
# tolerance), or None where the knocked slots leave no feasible setup.
HEURISTIC = [
    ("12185021704312062257599353415626255/1298074214633706907132624082305024", 1, False, False),
    ("15188010767368265170327408137122231/1298074214633706907132624082305024", 1, True, True),
    ("73134192562116436288882231287378719/5192296858534827628530496329220096", 1, False, False),
    None,
    ("14850362129943500754866092830629353/649037107316853453566312041152512", 2, False, False),
    ("16484349629642988046990868493978637/649037107316853453566312041152512", 1, True, True),
    ("16750635146155824068191664249997475/1298074214633706907132624082305024", 1, True, True),
    ("16657182759798093702495232759396739/1298074214633706907132624082305024", 3, True, False),
    ("22441706712372233200071026750346755/10384593717069655257060992658440192", 4, True, False),
    None,
    ("44531072357171715541939276471291531/5192296858534827628530496329220096", 1, False, False),
    ("45218932311973226374808863194684707/5192296858534827628530496329220096", 1, True, False),
    ("1615954444162523316501934461030181/324518553658426726783156020576256", 1, True, False),
    ("1620277701651183749772246058592009/324518553658426726783156020576256", 2, True, False),
    ("10194651658883595644486695333104359/2596148429267413814265248164610048", 3, False, False),
    ("10777439510706950667204798772764197/2596148429267413814265248164610048", 3, True, True),
    ("84406351566326447962486323549288709/20769187434139310514121985316880384", 3, True, False),
    ("84252336800947652158796519113641093/20769187434139310514121985316880384", 4, True, False),
    ("4900645101339270226652993515071197/649037107316853453566312041152512", 1, False, False),
    ("4987401107805770266103455635394719/649037107316853453566312041152512", 1, True, False),
    ("723789587309060397230154761745076607/166153499473114484112975882535043072", 2, False, False),
    ("739376750378222442730097254741509759/166153499473114484112975882535043072", 3, True, True),
    ("1181436189549071586674750843097371/162259276829213363391578010288128", 1, False, False),
    ("1204116064032601340204991772293495/162259276829213363391578010288128", 1, True, False),
    None,
]


def _corpus():
    rng = np.random.default_rng(13)
    for tenant in generate_tenants(12, seed=21, horizon=24):
        yield tenant.instance
        slots = rng.choice(24, size=int(rng.integers(1, 8)), replace=False)
        yield _knock(tenant.instance, tuple(sorted(int(s) for s in slots)))
    # Every slot up to the first demand knocked: no setup can serve it.
    yield _knock(tenant.instance, tuple(range(3)))


@pytest.mark.parametrize("seed", sorted(FLEETS))
def test_fleet_decisions_are_pinned(seed):
    total, rounds, escalated, knockouts, chis = FLEETS[seed]
    tenants = generate_tenants(10, seed=seed, horizon=24)
    plan = plan_fleet(tenants, uniform_pools(tenants, utilization=0.6), FleetConfig(workers=1))
    assert str(plan.total_cost_exact) == total
    assert (plan.repair_rounds, plan.escalated, plan.knockouts) == (rounds, escalated, knockouts)
    assert tuple("".join("1" if c > 0.5 else "0" for c in o.plan.chi) for o in plan.outcomes) == chis


def test_heuristic_decisions_are_pinned():
    premium = SLAS["premium"].gap_tolerance
    standard = SLAS["standard"].gap_tolerance
    got = []
    for instance in _corpus():
        try:
            res = solve_heuristic(instance)
        except HeuristicInfeasible:
            got.append(None)
            continue
        got.append((str(res.exact_objective), res.rounds, res.gap > premium, res.gap > standard))
    assert got == HEURISTIC
