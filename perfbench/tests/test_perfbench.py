"""Tests of the benchmark's own logic (run: ``python3 -m pytest perfbench/tests``)."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
import pytest

from common import (REFERENCE_KERNEL_S, ROOT, HostSpeed, Tally, min_samples_for,
                    percentile, samples_beyond)
from layers import FLEET, PER_LAYER, layer_metrics
from run import END_TO_END
from tracing import Span, Tracer, attribute, installed
from workloads import WORKLOADS, CampaignSimplex, Fleet, Pass, Service, service_requests

# -- percentile rule ---------------------------------------------------------


def test_percentile_interpolates():
    assert percentile([3.0, 1.0, 2.0], 0.5) == 2.0
    assert percentile([0.0, 10.0], 0.25) == 2.5


@pytest.mark.parametrize("n, q, beyond", [(100, 0.9, 10), (91, 0.9, 9), (92, 0.9, 10),
                                          (38, 0.75, 10), (37, 0.75, 9), (20, 0.5, 10)])
def test_samples_beyond(n, q, beyond):
    assert samples_beyond(n, q) == beyond


def test_min_samples_leaves_ten_beyond():
    for q in (0.5, 0.75, 0.9, 0.99):
        n = min_samples_for(q)
        assert samples_beyond(n, q) >= 10 > samples_beyond(n - 1, q)
    assert min_samples_for(0.9) == 92


def test_minimum_work_supports_p90():
    samples = {"fleet": Fleet.min_units * Fleet.tenants,
               "campaign-simplex": CampaignSimplex.min_units
               * (CampaignSimplex.slots // CampaignSimplex.control),
               "service": Service.min_units}
    for name in WORKLOADS:
        assert samples[name] >= min_samples_for(0.9), name


# -- self-time arithmetic ----------------------------------------------------


def _span(sid, start, end, parent=None, lane="L", layer=None):
    return Span(sid, layer or sid, "op", start, end, parent, "run",
                lane if parent is None else None)


def test_self_time_nested_and_siblings():
    spans = [
        _span("A", 0.0, 10.0),
        _span("B", 2.0, 5.0, "A"),
        _span("C", 3.0, 4.0, "B"),
        _span("D", 6.0, 8.0, "A"),
        _span("E", 10.5, 11.0),
    ]
    owned, unattributed, wall = attribute(spans, {"L": (0.0, 12.0)})
    assert owned == pytest.approx({("A", "op"): 5.0, ("B", "op"): 2.0, ("C", "op"): 1.0,
                                   ("D", "op"): 2.0, ("E", "op"): 0.5})
    assert unattributed == pytest.approx(1.5)
    assert wall == 12.0
    assert sum(owned.values()) + unattributed == pytest.approx(wall)


def test_children_are_clipped_to_parent_and_window():
    spans = [
        _span("A", 1.0, 4.0),
        _span("B", 3.0, 6.0, "A"),  # a linked child outliving its parent
        _span("X", 0.0, 9.0, lane="other"),  # not a lane of this pass
    ]
    owned, unattributed, wall = attribute(spans, {"L": (0.0, 5.0)})
    assert owned == pytest.approx({("A", "op"): 2.0, ("B", "op"): 1.0})
    assert unattributed == pytest.approx(2.0)


def test_overlapping_linked_children_partition_the_lane():
    # A client request with a server submit span and a queue wait that
    # starts inside it (other threads): every instant has one owner.
    spans = [
        _span("R", 0.0, 10.0),
        _span("submit", 1.0, 3.0, "R"),
        _span("wait", 2.5, 4.0, "R"),
        _span("job", 4.0, 9.0, "R"),
        _span("solve", 5.0, 8.0, "job"),
    ]
    owned, unattributed, wall = attribute(spans, {"L": (0.0, 10.0)})
    assert owned == pytest.approx({("R", "op"): 2.0, ("submit", "op"): 1.5,
                                   ("wait", "op"): 1.5, ("job", "op"): 2.0,
                                   ("solve", "op"): 3.0})
    assert unattributed == 0.0


def test_tracer_wrap_nests_and_restores():
    import math

    tracer = Tracer("run", prefix="t")
    original = math.hypot
    with installed(tracer, [("math:hypot", "outer", "hypot", None, None)]):
        with tracer.span("root", "loop"):
            assert math.hypot(3, 4) == 5.0
    assert math.hypot is original
    root, call = sorted(tracer.spans, key=lambda s: s.start)
    assert call.parent == root.sid and root.parent is None
    assert root.lane == tracer.lane()


# -- failure accounting ------------------------------------------------------


@dataclass
class _Result:
    plan: dict
    cached: bool = False
    coalesced: bool = False
    latency_s: float = 0.0


def test_error_rate_counts_refused_and_wrong_outputs():
    from repro.core import solve_drrp
    from repro.service.encoding import build_instance, normalize_request

    wl = Service(seed=5)
    wl.payloads, wl.ids = service_requests(5, 40)
    drrp = [i for i, p in enumerate(wl.payloads) if p["kind"] == "drrp"]
    first = {}
    for i in drrp:
        first.setdefault(wl.ids[i], i)
    right, within_gap, within_tol, below, other = list(first.values())[:5]

    def optimum(i):
        return solve_drrp(build_instance(normalize_request(wl.payloads[i])),
                          backend="auto").total_cost

    def answer(cost):
        return (0.01, "ok", _Result({"status": "optimal", "total_cost": cost}))

    a, b, c = optimum(right), optimum(within_gap), optimum(within_tol)
    p = Pass(scored=len(wl.payloads))
    p.extra["answers"] = {
        right: answer(a),
        within_gap: answer(b * (1 + 5e-5)),
        within_tol: answer(c * (1 - 2.4e-7)),  # within HiGHS's feasibility slack
        below: answer(optimum(below) * (1 - 1e-4)),
        other: answer(optimum(other) * 1.5 + 1.0),
        len(wl.payloads) - 1: (0.01, "refused", None),
    }
    wl.check(p)
    assert (p.tally.attempted, p.tally.failed) == (6, 3)
    assert p.tally.error_rate == pytest.approx(3 / 6)
    assert p.tally.reasons == {"refused": 1, "objective differs from the in-process solve": 2}
    assert p.props["suboptimal_share"] == pytest.approx(1 / 3)
    assert p.cost_ratio == pytest.approx((a + b * (1 + 5e-5) + c * (1 - 2.4e-7))
                                         / (a + b + c))


def test_repeats_may_differ_only_in_solver_telemetry():
    from repro.core import solve_drrp
    from repro.service.encoding import build_instance, normalize_request

    wl = Service(seed=5)
    wl.payloads, wl.ids = service_requests(5, 200)
    seen, repeats = {}, []
    for i, p in enumerate(wl.payloads):
        if p["kind"] == "drrp" and wl.ids[i] in seen:
            repeats.append((seen[wl.ids[i]], i))
        seen.setdefault(wl.ids[i], i)
    (a1, a2), (b1, b2) = repeats[:2]

    def answer(i, wall, chi):
        cost = solve_drrp(build_instance(normalize_request(wl.payloads[i])),
                          backend="auto").total_cost
        return (0.01, "ok", _Result({"status": "optimal", "total_cost": cost, "chi": chi,
                                     "solve": {"wall_time": wall}}))

    p = Pass(scored=0)
    p.extra["answers"] = {a1: answer(a1, 0.01, [1]), a2: answer(a2, 0.02, [1]),
                          b1: answer(b1, 0.01, [1]), b2: answer(b2, 0.01, [0])}
    wl.check(p)
    assert (p.tally.attempted, p.tally.failed) == (4, 1)
    assert p.tally.reasons == {"repeat returned a different plan": 1}


def test_host_slowdown_is_the_mean_sample_over_the_reference():
    host = HostSpeed()
    assert host.due()
    spent = host.sample()
    assert spent > 0 and len(host.samples) == 1 and not host.due()
    host.samples = [REFERENCE_KERNEL_S * f for f in (0.5, 2.0, 1.1)]
    assert host.slowdown == pytest.approx(1.2)


def test_tally():
    t = Tally()
    t.ok()
    t.fail("refused")
    t.wrong("bad plan")
    assert (t.attempted, t.failed, t.error_rate) == (2, 2, 1.0)


# -- seeded inputs ------------------------------------------------------------


def test_service_requests_are_seeded():
    a, ids_a = service_requests(7, 500)
    b, ids_b = service_requests(7, 500)
    c, _ = service_requests(8, 500)
    assert json.dumps(a) == json.dumps(b) and ids_a == ids_b
    assert json.dumps(a) != json.dumps(c)
    duplicates = sum(ids_a[i] in set(ids_a[:i]) for i in range(len(ids_a)))
    assert 0.2 < duplicates / len(ids_a) < 0.4
    for i, uid in enumerate(ids_a):
        assert a[i] is a[ids_a.index(uid)]


def test_fleet_inputs_are_seeded():
    def fingerprint(wl, k):
        tenants, pools = wl.generate(k)
        return ([t.instance.demand.tolist() for t in tenants]
                + [p.capacity.tolist() for p in pools.values()])

    assert fingerprint(Fleet(3), 2) == fingerprint(Fleet(3), 2)
    assert fingerprint(Fleet(3), 2) != fingerprint(Fleet(4), 2)
    assert fingerprint(Fleet(3), 2) != fingerprint(Fleet(3), 1)


def test_campaign_inputs_are_seeded():
    from repro.sim.engine import build_inputs

    def fingerprint(wl, k):
        inputs = build_inputs(wl.config(k))
        return np.concatenate([inputs.realized, inputs.demand]).tolist()

    assert fingerprint(CampaignSimplex(3), 1) == fingerprint(CampaignSimplex(3), 1)
    assert fingerprint(CampaignSimplex(3), 1) != fingerprint(CampaignSimplex(4), 1)


# -- traced counts repeat ------------------------------------------------------


def test_traced_fleet_counts_repeat():
    from repro.solver import reset_compile_cache

    def counted():
        wl = Fleet(seed=11)
        wl.tenants = 4
        wl.inputs = [wl.generate(k) for k in range(2)]
        reset_compile_cache()
        tracer = Tracer("run", prefix="c")
        with installed(tracer, FLEET):
            p = wl.run(units=2, tracer=tracer)
        wl.check(p)
        owned, unattributed, wall = attribute(tracer.spans, p.windows)
        assert sum(owned.values()) + unattributed == pytest.approx(wall)
        metrics = layer_metrics(tracer.spans, owned, unattributed, wall,
                                tracer.counts, p.extra)
        assert p.tally.failed == 0
        return {k: v for k, v in metrics.items() if not k.endswith(("_s", "_share"))}

    first, second = counted(), counted()
    assert first == second
    assert first["fleet.heuristic.calls"] >= 8


# -- the benchmark definition ---------------------------------------------------


def test_benchmark_json_matches_the_code():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == {
        name: unit for name, (unit, _) in END_TO_END.items()}
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == PER_LAYER
