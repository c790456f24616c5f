"""Closed-loop simulation benchmark: cost-of-planning curves + service legs.

Four seeded legs, all deterministic given the config:

* **campaign** — the full rolling-horizon campaign (oracle, no-plan,
  rolling DRRP) over the default 720-slot evaluation window.  The gated
  numbers are the *realized-cost / oracle-cost ratios* — pure arithmetic
  on solver outputs, so they transfer between machines (wall-clock replan
  latencies are recorded for humans but never compared across hosts).
* **service** — the same rolling planner routed through a live
  ``repro.service`` server: (1) its realized cost must equal the
  in-process planner's **bit for bit** (the JSON round trip is
  float-exact and both routes solve identical aggregated instances — any
  difference is a cache-correctness bug), and (2) an immediate replay of
  the same campaign against the same server must run (almost) entirely
  out of the plan cache.
* **backpressure** — a deliberately saturated server (``workers=0``,
  queue of one).  With ``on_overload="degrade"`` every replan must come
  back as an inline degraded plan; with the default reject mode the
  client must absorb the 429s and complete on its local fallback.  Either
  way the campaign finishes with demand met — the loop never stalls on a
  sick server.
* **bid-sweep** — the four bid-reactive planners (``bid-fixed``,
  ``bid-od-index``, ``bid-percentile``, ``bid-rebid``) under nonzero
  interruption loss.  Gated (machine-independent again): no policy beats
  the oracle, and at least one non-trivial bidding strategy must beat the
  naive fixed mean bid — the paper's point that bidding *policy* matters
  once out-of-bid interruptions carry a work-loss cost.

The record lands in ``BENCH_sim.json`` (``REPRO_BENCH_DIR`` honored);
the ``sim`` rows of :mod:`repro.bench.gates` are the CI gate.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, replace

import numpy as np

from .engine import CampaignConfig, run_campaign
from .horizon import HorizonConfig

__all__ = [
    "SimBenchConfig",
    "run_sim_bench",
    "summary_lines",
]


@dataclass(frozen=True)
class SimBenchConfig:
    """One benchmark run (defaults match the committed baseline)."""

    seed: int = 2012
    vm: str = "c1.medium"
    slots: int = 720
    estimation_slots: int = 1440
    prediction: int = 48
    control: int = 24
    coarse_block: int = 4
    backend: str = "auto"
    service_slots: int = 96       # service + backpressure legs (shorter loop)
    bid_slots: int = 120          # bid-sweep leg
    bid_interruption_loss: float = 0.5
    out: str | None = "BENCH_sim.json"

    def __post_init__(self) -> None:
        if self.slots < self.control:
            raise ValueError("campaign must cover at least one control window")
        if self.service_slots < self.control:
            raise ValueError("service leg must cover at least one control window")
        if self.bid_slots < self.control:
            raise ValueError("bid-sweep leg must cover at least one control window")

    def campaign_config(self, slots: int | None = None,
                        policies: tuple[str, ...] | None = None) -> CampaignConfig:
        return CampaignConfig(
            vm=self.vm,
            slots=self.slots if slots is None else slots,
            estimation_slots=self.estimation_slots,
            seed=self.seed,
            horizon=HorizonConfig(
                prediction=self.prediction,
                control=self.control,
                coarse_block=self.coarse_block,
            ),
            backend=self.backend,
            policies=policies or ("oracle", "no-plan", "rolling-drrp"),
        )


def _latency_summary(latencies: list[float]) -> dict:
    if not latencies:
        return {"count": 0}
    arr = np.asarray(latencies, dtype=float)
    return {
        "count": int(arr.size),
        "p50_s": float(np.quantile(arr, 0.50)),
        "p90_s": float(np.quantile(arr, 0.90)),
        "p99_s": float(np.quantile(arr, 0.99)),
        "max_s": float(arr.max()),
        "mean_s": float(arr.mean()),
    }


def _service_legs(cfg: SimBenchConfig) -> dict:
    """Consistency, cache-replay, and backpressure checks (see module doc)."""
    from repro.service import ServiceConfig, serve

    config = cfg.campaign_config(
        slots=cfg.service_slots,
        policies=("oracle", "rolling-drrp", "rolling-drrp-service"),
    )
    service, httpd = serve(port=0, config=ServiceConfig(workers=2), block=False)
    url = f"http://127.0.0.1:{httpd.server_address[1]}"
    try:
        first = run_campaign(config, service_url=url)
        # Replay: identical payloads against the same server — every replan
        # after the first campaign's solves should hit the plan cache.
        replay = run_campaign(
            replace(config, policies=("rolling-drrp-service",)), service_url=url
        )
    finally:
        httpd.shutdown()
        httpd.server_close()
        service.close()

    inproc = first.outcomes["rolling-drrp"]
    routed = first.outcomes["rolling-drrp-service"]
    replayed = replay.outcomes["rolling-drrp-service"]
    consistent = (
        inproc.result.total_cost == routed.result.total_cost
        and np.array_equal(inproc.result.generated, routed.result.generated)
        and np.array_equal(inproc.result.inventory, routed.result.inventory)
    )
    service_record = {
        "slots": cfg.service_slots,
        "consistent_with_in_process": bool(consistent),
        "in_process_cost": float(inproc.result.total_cost),
        "routed_cost": float(routed.result.total_cost),
        "requests": routed.service_requests,
        "first_pass_cache_hits": routed.cache_hits,
        "replay_requests": replayed.service_requests,
        "replay_cache_hits": replayed.cache_hits,
        "replay_cache_hit_rate": (
            replayed.cache_hits / replayed.service_requests
            if replayed.service_requests else 0.0
        ),
        "degraded_plans": routed.degraded_plans,
        "local_fallbacks": routed.local_fallbacks,
    }

    # Backpressure: a server that can never drain its queue.  Degrade mode
    # must answer every replan inline; reject mode must push the client to
    # its local fallback.  Both campaigns must still meet all demand.
    choked = ServiceConfig(workers=0, queue_size=1, default_time_limit=5.0)
    service, httpd = serve(port=0, config=choked, block=False)
    url = f"http://127.0.0.1:{httpd.server_address[1]}"
    bp_slots = min(cfg.service_slots, 2 * cfg.control)
    bp_config = replace(cfg.campaign_config(slots=bp_slots), policies=("oracle",))
    from repro.market.auction import MeanBids
    from repro.service.client import ServiceClient, drrp_payload
    from repro.sim.policies import ServiceDRRPPolicy

    client = ServiceClient(url, timeout=10.0)
    try:
        # Occupy the one queue slot (no workers will ever drain it) so
        # every replan below hits a saturated server, not an idle one.
        client.submit(drrp_payload([1.0], [0.1]))
        degrade_policy = ServiceDRRPPolicy(
            MeanBids(), client, horizon=bp_config.horizon,
            backend=cfg.backend, on_overload="degrade", name="svc-degrade",
            wait_s=1.0,
        )
        reject_policy = ServiceDRRPPolicy(
            MeanBids(), client, horizon=bp_config.horizon,
            backend=cfg.backend, name="svc-reject",
            max_retries=1, retry_cap_s=0.01, wait_s=1.0,
        )
        bp = run_campaign(
            bp_config,
            extra_policies={"svc-degrade": degrade_policy,
                            "svc-reject": reject_policy},
        )
    finally:
        client.close()
        httpd.shutdown()
        httpd.server_close()
        service.close()

    degrade_out = bp.outcomes["svc-degrade"]
    reject_out = bp.outcomes["svc-reject"]
    backpressure_record = {
        "slots": bp_slots,
        "degrade": {
            "replans": degrade_out.replans,
            "degraded_plans": degrade_out.degraded_plans,
            "forced_topups": int(degrade_out.result.forced_topups),
            "cost_over_oracle": float(
                degrade_out.result.total_cost / bp.oracle_cost
            ),
        },
        "reject": {
            "replans": reject_out.replans,
            "local_fallbacks": reject_out.local_fallbacks,
            "forced_topups": int(reject_out.result.forced_topups),
            "cost_over_oracle": float(
                reject_out.result.total_cost / bp.oracle_cost
            ),
        },
    }
    return {"service": service_record, "backpressure": backpressure_record}


def _bid_sweep_leg(cfg: SimBenchConfig) -> dict:
    """Score the bid-reactive planners against each other under eviction risk."""
    config = replace(
        cfg.campaign_config(
            slots=cfg.bid_slots,
            policies=("oracle", "bid-fixed", "bid-od-index",
                      "bid-percentile", "bid-rebid"),
        ),
        interruption_loss=cfg.bid_interruption_loss,
    )
    campaign = run_campaign(config)
    policies = {}
    for name, out in sorted(campaign.outcomes.items()):
        if not name.startswith("bid-"):
            continue
        policies[name] = {
            "ratio": float(campaign.ratios[name]),
            "interruptions": int(out.interruptions),
            "out_of_bid": int(out.result.out_of_bid_events),
            "replans": int(out.replans),
        }
    sweep = {
        "slots": cfg.bid_slots,
        "interruption_loss": cfg.bid_interruption_loss,
        "oracle_cost": float(campaign.oracle_cost),
        "policies": policies,
    }
    # The gate needs some strategy to beat the naive fixed mean bid; one
    # number lets a table row say so.
    rivals = [entry["ratio"] for name, entry in policies.items() if name != "bid-fixed"]
    if rivals:
        sweep["best_nonfixed_ratio"] = min(rivals)
    return sweep


def run_sim_bench(cfg: SimBenchConfig | None = None) -> dict:
    """Run all three legs and return (and optionally write) the record."""
    cfg = cfg or SimBenchConfig()
    campaign = run_campaign(cfg.campaign_config())
    legs = _service_legs(cfg)
    legs["bid_sweep"] = _bid_sweep_leg(cfg)

    rolling = campaign.outcomes["rolling-drrp"]
    record = {
        "benchmark": "sim",
        "seed": cfg.seed,
        "config": {
            "vm": cfg.vm,
            "slots": cfg.slots,
            "estimation_slots": cfg.estimation_slots,
            "prediction": cfg.prediction,
            "control": cfg.control,
            "coarse_block": cfg.coarse_block,
            "backend": cfg.backend,
            "service_slots": cfg.service_slots,
            "bid_slots": cfg.bid_slots,
            "bid_interruption_loss": cfg.bid_interruption_loss,
        },
        "cpu_count": os.cpu_count() or 1,
        "oracle_cost": float(campaign.oracle_cost),
        # The machine-independent gate: realized cost / oracle cost.
        "ratios": {k: float(v) for k, v in sorted(campaign.ratios.items())},
        "out_of_bid_events": {
            name: int(out.result.out_of_bid_events)
            for name, out in sorted(campaign.outcomes.items())
        },
        "replans": rolling.replans,
        "replan_latency": _latency_summary(rolling.replan_latencies),
        "manifest_digest": campaign.manifest.result_digest,
        "elapsed_s": campaign.elapsed,
        "created": time.time(),
        **legs,
    }
    if cfg.out:
        from repro.serialize import write_bench_record

        record["path"] = str(write_bench_record(record, cfg.out))
    return record


def summary_lines(record: dict) -> list[str]:
    ratios = record.get("ratios", {})
    lat = record.get("replan_latency", {})
    svc = record.get("service", {})
    bp = record.get("backpressure", {})
    ratio_text = ", ".join(f"{k} {v:.4f}x" for k, v in sorted(ratios.items()))
    lines = [
        f"campaign: {record['config']['slots']} slots on {record['config']['vm']}, "
        f"oracle ${record['oracle_cost']:.3f}; cost/oracle — {ratio_text}",
    ]
    if lat.get("count"):
        lines.append(
            f"replans: {record['replans']} windows, latency p50 "
            f"{lat['p50_s'] * 1e3:.0f} ms / p99 {lat['p99_s'] * 1e3:.0f} ms / "
            f"max {lat['max_s'] * 1e3:.0f} ms"
        )
    if svc:
        lines.append(
            f"service: {'consistent' if svc.get('consistent_with_in_process') else 'DIVERGED'} "
            f"over {svc.get('slots')} slots, replay cache hits "
            f"{svc.get('replay_cache_hits')}/{svc.get('replay_requests')}"
        )
    if bp:
        lines.append(
            f"backpressure: degrade {bp['degrade']['degraded_plans']}/"
            f"{bp['degrade']['replans']} degraded, reject "
            f"{bp['reject']['local_fallbacks']}/{bp['reject']['replans']} "
            "local fallbacks, all demand met"
        )
    sweep = record.get("bid_sweep", {})
    if sweep.get("policies"):
        bid_text = ", ".join(
            f"{name} {entry['ratio']:.4f}x ({entry['interruptions']} evictions)"
            for name, entry in sorted(sweep["policies"].items())
        )
        lines.append(
            f"bid sweep: {sweep['slots']} slots at loss "
            f"{sweep['interruption_loss']:.0%} — {bid_text}"
        )
    return lines
