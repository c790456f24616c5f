"""Pinned Wagner-Whitin plans over a seeded corpus.

``solve_wagner_whitin`` answers every uncapacitated ``/v1/plan`` request
and certifies every fleet heuristic plan, so rewrites of its inner loop
must keep each plan bit for bit.  The corpus mixes random and flat
(on-demand) cost series, zero-demand slots, initial storage that covers
the first slots, and knocked-out (capacity 0) slots as fleet repair
builds them.  Each case pins a digest of the raw bytes of α, β and χ plus
``repr`` of the objective, or ``"infeasible"`` when the knocks leave no
setup slot before some net demand.

The values were recorded with NumPy's bundled OpenBLAS on x86-64.
"""

import hashlib

import numpy as np
import pytest

from repro.core import CostSchedule, DRRPInstance, on_demand_schedule, solve_wagner_whitin
from repro.core.lotsizing import DRRPInfeasible
from repro.market import ec2_catalog


def _case(seed: int) -> DRRPInstance:
    rng = np.random.default_rng(9000 + seed)
    T = int(rng.integers(1, 31)) if seed < 36 else (168 if seed < 40 else 400)
    demand = rng.uniform(0.0, 2.0, T)
    demand[rng.random(T) < 0.3] = 0.0
    if seed % 3 == 0:
        # Flat prices: many near-equal candidates, so the earliest-wins
        # tie-break decides the plan.
        vm = sorted(ec2_catalog().items())[seed % len(ec2_catalog())][1]
        costs = on_demand_schedule(vm, T)
        demand = np.where(demand > 0.0, 0.4, 0.0)
    else:
        costs = CostSchedule(
            compute=rng.uniform(0.01, 2.0, T),
            storage=rng.uniform(0.0, 0.2, T),
            io=rng.uniform(0.0, 0.1, T),
            transfer_in=rng.uniform(0.0, 0.3, T),
            transfer_out=rng.uniform(0.0, 0.2, T),
        )
    initial = float(demand[: int(rng.integers(0, 3))].sum()) if seed % 2 else 0.0
    kwargs = {}
    if seed % 4 in (1, 2) and T > 1:
        cap = np.full(T, float(demand.sum()) + initial + 1.0)
        cap[rng.choice(T, size=int(rng.integers(1, max(2, T // 2))), replace=False)] = 0.0
        kwargs = {"bottleneck_rate": 1.0, "bottleneck_capacity": cap}
    return DRRPInstance(
        demand=demand,
        costs=costs,
        phi=float(rng.uniform(0.1, 1.0)),
        initial_storage=initial,
        vm_name="vm",
        **kwargs,
    )


def _fingerprint(instance: DRRPInstance) -> str:
    try:
        plan = solve_wagner_whitin(instance)
    except DRRPInfeasible:
        return "infeasible"
    h = hashlib.sha256()
    for arr in (plan.alpha, plan.beta, plan.chi):
        h.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
    h.update(repr(plan.objective).encode())
    return h.hexdigest()[:16]


PINNED = {
    0: "0a90113aef497042",
    1: "6b3dfc59293ae02f",
    2: "7a206e9c5d3a7198",
    3: "8b6a69a092328938",
    4: "9b790a890a692081",
    5: "0528e5146504e3fc",
    6: "0b8326fd74bb9d71",
    7: "e65fad4bde68709e",
    8: "b8f7821aea5424a4",
    9: "a4007aac95a1afb6",
    10: "c4adb6ee75f0e076",
    11: "1feae9a2561eacf4",
    12: "f65d73bcc61c2d7a",
    13: "2b39d5959bb83f7c",
    14: "396a1a4cfcf0c8f3",
    15: "1cfeab47e16549f0",
    16: "4d6de5daee392979",
    17: "2ed2cd04b89189ac",
    18: "bb78136edb39baa5",
    19: "7f08231aa811e864",
    20: "a08b4c832d6a2e86",
    21: "29ce8465498c4223",
    22: "infeasible",
    23: "2114c13b5a994765",
    24: "b678e0768de9cbfa",
    25: "f747e5a025a33a4c",
    26: "84fcdd5745635060",
    27: "878d3e58ca7d275a",
    28: "5cb073598afc8ca5",
    29: "29998e22d3a12f0b",
    30: "2976bd5de7d41fa7",
    31: "2b796fcee4e6ef1a",
    32: "8a7619e950b41959",
    33: "f3961e6474342041",
    34: "ec777df5f709eadb",
    35: "919645dc6104bb71",
    36: "c4a9c4f85146b3ae",
    37: "c261a2d498d424be",
    38: "cd57fb7991a4b408",
    39: "84857c054bc410cf",
    40: "ce9093e67565c427",
    41: "6bef26ee1917aa3f",
}


@pytest.mark.parametrize("seed", sorted(PINNED))
def test_plan_bytes_pinned(seed):
    assert _fingerprint(_case(seed)) == PINNED[seed]


def test_corpus_exercises_masks_zero_demand_and_infeasibility():
    cases = [_case(seed) for seed in sorted(PINNED)]
    assert any(c.bottleneck_rate is not None for c in cases)
    assert any((c.demand == 0.0).any() for c in cases)
    assert any(c.initial_storage > 0.0 for c in cases)
    assert "infeasible" in PINNED.values()
