"""Every degraded DRRP answer is a certified plan or a typed refusal.

A seeded corpus of requests goes through
:func:`repro.service.executor.degraded_request`:

* knocked requests, with slots knocked out the two ways the library does
  it — fleet pool repair (``_knock``) and spot evictions
  (``apply_interruptions``) — some of them with no open slot before the
  first net demand;
* capacitated requests whose caps cannot bind, can bind but fit every
  slot's net demand, or fall below some slot's net demand.

Each answer must pass :func:`repro.verify.certify.certify_drrp_plan`; a
``wagner-whitin`` answer must equal the MILP optimum to 1e-9 and say
``optimal``, a ``no-plan`` answer must cost no less and say ``feasible``.
Anything else must raise :class:`DegradeRefused`.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import DRRPInstance, NormalDemand, on_demand_schedule, solve_drrp
from repro.fleet.planner import _knock
from repro.market import InterruptionEvent, apply_interruptions, ec2_catalog
from repro.serialize import instance_payload
from repro.service.encoding import normalize_request
from repro.service.executor import DegradeRefused, degraded_request
from repro.solver import SolverStatus
from repro.verify.certify import certify_drrp_plan


def _instance(rng: np.random.Generator) -> DRRPInstance:
    T = int(rng.integers(1, 11))
    vm = ec2_catalog()["m1.large"]
    demand = NormalDemand(mean=float(rng.uniform(0.2, 2.0)), std=0.3).sample(
        T, int(rng.integers(1 << 30))
    )
    demand[-1] = max(float(demand[-1]), 0.05)
    eps = float(rng.uniform(0, 1.0)) if rng.random() < 0.3 else 0.0
    return DRRPInstance(demand=demand, costs=on_demand_schedule(vm, T),
                        phi=float(rng.uniform(0.1, 1.0)), initial_storage=eps,
                        vm_name=vm.name)


def _knocked(rng: np.random.Generator, inst: DRRPInstance) -> DRRPInstance:
    T = inst.horizon
    slots = sorted(int(s) for s in rng.choice(T, size=int(rng.integers(1, T // 2 + 2)),
                                               replace=False))
    style = int(rng.integers(3))
    if style == 0:
        return _knock(inst, tuple(slots))
    if style == 1:
        events = [InterruptionEvent(slot=s, spot_price=1.0, bid=0.0, salvaged_gb=0.0)
                  for s in slots]
        return apply_interruptions(inst, events)
    first = int(np.nonzero(inst.net_demand > 1e-12)[0][0])
    return _knock(inst, tuple(range(first + 1)))


def _capacitated(rng: np.random.Generator, inst: DRRPInstance) -> DRRPInstance:
    rate = float(rng.uniform(0.5, 3.0))
    style = rng.random()
    if style < 0.25:
        cap = rate * float(inst.net_demand.sum())  # cannot bind
    else:
        # at or above every slot's net demand (no-plan fits), or below one
        scale = rng.uniform(1.0, 2.0) if style < 0.7 else rng.uniform(0.6, 1.0)
        cap = rate * float(inst.net_demand.max()) * scale
    return DRRPInstance(demand=inst.demand, costs=inst.costs, phi=inst.phi,
                        initial_storage=inst.initial_storage, bottleneck_rate=rate,
                        bottleneck_capacity=np.full(inst.horizon, cap), vm_name=inst.vm_name)


def _corpus() -> list[DRRPInstance]:
    rng = np.random.default_rng(2027)
    out = []
    while len(out) < 120:
        inst = _instance(rng)
        if inst.net_demand.sum() <= 1e-12:
            continue
        make = _knocked if len(out) % 2 == 0 else _capacitated
        out.append(make(rng, inst))
    return out


CORPUS = _corpus()


def _answer(inst: DRRPInstance):
    request = normalize_request({"kind": "drrp", "instance": instance_payload(inst)})
    try:
        return degraded_request(request)
    except DegradeRefused:
        return None


@pytest.fixture(scope="module")
def answers():
    return [(inst, _answer(inst)) for inst in CORPUS]


def test_corpus_covers_every_outcome(answers):
    planners = [a["degraded"] if a else "refused" for _, a in answers]
    for planner in ("wagner-whitin", "no-plan", "refused"):
        assert planners.count(planner) >= 15, planner


def test_answers_certify_or_refuse(answers):
    for inst, answer in answers:
        if answer is None:
            if inst.open_slots is not None:
                # the exact DP refuses only what no plan can answer
                with pytest.raises(RuntimeError, match="infeasible"):
                    solve_drrp(inst, backend="simplex")
            continue
        plan = SimpleNamespace(alpha=answer["alpha"], beta=answer["beta"],
                               chi=answer["chi"], objective=answer["total_cost"])
        report = certify_drrp_plan(inst, plan)
        assert report.verdict == "certified", [c.detail for c in report.failures()]
        milp = solve_drrp(inst, backend="simplex")
        assert milp.status is SolverStatus.OPTIMAL
        gap = (answer["total_cost"] - milp.objective) / max(abs(milp.objective), 1e-12)
        if answer["degraded"] == "wagner-whitin":
            assert answer["status"] == "optimal"
            assert abs(gap) <= 1e-9, inst.horizon
        else:
            assert answer["degraded"] == "no-plan"
            assert answer["status"] == "feasible"
            assert gap >= -1e-9, inst.horizon
