"""The closed-loop campaign engine: trace → policies → scored outcomes.

One :func:`run_campaign` call is the paper's §V evaluation loop made
end-to-end: synthesize a spot-price market (:func:`repro.market.campaign_series`),
split it into an estimation history and a realized evaluation path, drive
every configured policy through :func:`repro.core.rolling.simulate_policy`
slot by slot, and score realized cost against the clairvoyant
:class:`~repro.core.rolling.OraclePolicy` (the paper's *ideal case cost*).

Every policy run is bracketed in a :func:`repro.obs.span`, per-replan
latencies feed a metrics histogram, and the whole campaign closes with a
:class:`~repro.obs.RunManifest` whose result digest covers the complete
per-slot decision record — two runs of the same config replay bit for bit
(``manifest.replays(other)``), which is the harness's reproducibility
contract.

Policies are named: the built-in roster covers the paper's baselines
(``oracle``, ``no-plan``, ``on-demand``), the rolling MPC planner with
the historical-mean forecaster (``rolling-drrp``), the same planner
routed through a live planning server (``rolling-drrp-service`` — pass
``service_url``), and four bid-reactive planners (``bid-fixed``,
``bid-od-index``, ``bid-percentile``, ``bid-rebid``) that record typed
interruption events and replan after each eviction
(:class:`~repro.sim.policies.InterruptedRollingDRRPPolicy`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.rolling import (
    NoPlanPolicy,
    OnDemandPolicy,
    OraclePolicy,
    Policy,
    SimulationResult,
    simulate_policy,
)
from repro.market.auction import MeanBids
from repro.market.catalog import CostRates, ec2_catalog
from repro.market.traces import campaign_series
from repro.obs.manifest import RunManifest
from repro.obs.metrics import MetricsAggregator, MetricsRegistry
from repro.obs.propagate import TraceContext, activate, current_trace
from repro.obs.spans import span
from repro.stats.empirical import EmpiricalDistribution

from .horizon import HorizonConfig
from .policies import (
    InterruptedRollingDRRPPolicy,
    RollingDRRPPolicy,
    ServiceDRRPPolicy,
)

__all__ = [
    "CampaignConfig",
    "CampaignInputs",
    "PolicyOutcome",
    "CampaignResult",
    "KNOWN_POLICIES",
    "build_inputs",
    "make_policy",
    "run_campaign",
]

#: Replan latency buckets (seconds) — weighted toward the sub-second solves
#: a healthy aggregated window takes.
_REPLAN_BUCKETS = (0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
                   1.0, 2.5, 5.0, 10.0, 30.0, float("inf"))

KNOWN_POLICIES = (
    "oracle",
    "no-plan",
    "on-demand",
    "rolling-drrp",
    "rolling-drrp-service",
    "bid-fixed",
    "bid-od-index",
    "bid-percentile",
    "bid-rebid",
)


@dataclass(frozen=True)
class CampaignConfig:
    """One seeded end-to-end campaign (defaults = the committed benchmark)."""

    vm: str = "c1.medium"
    slots: int = 720                 # evaluation window (30 days hourly)
    estimation_slots: int = 1440     # price history ahead of it (60 days)
    seed: int = 2012
    demand_mean: float = 0.4
    demand_std: float = 0.2
    horizon: HorizonConfig = field(default_factory=HorizonConfig)
    backend: str = "auto"
    interruption_loss: float = 0.0
    lookahead: int = 24              # window for the per-slot baselines
    policies: tuple[str, ...] = ("oracle", "no-plan", "rolling-drrp")
    bid_value: float | None = None   # parameter for the bid-* policies

    def __post_init__(self) -> None:
        if self.slots < 1:
            raise ValueError("campaign needs at least one evaluation slot")
        if self.estimation_slots < 1:
            raise ValueError("campaign needs a non-empty estimation history")
        if not self.policies:
            raise ValueError("campaign needs at least one policy")

    def jsonable(self) -> dict:
        return {
            "vm": self.vm,
            "slots": self.slots,
            "estimation_slots": self.estimation_slots,
            "seed": self.seed,
            "demand_mean": self.demand_mean,
            "demand_std": self.demand_std,
            "prediction": self.horizon.prediction,
            "control": self.horizon.control,
            "fine": self.horizon.fine_slots,
            "coarse_block": self.horizon.coarse_block,
            "backend": self.backend,
            "interruption_loss": self.interruption_loss,
            "lookahead": self.lookahead,
            "policies": list(self.policies),
            "bid_value": self.bid_value,
        }


@dataclass
class CampaignInputs:
    """The deterministic inputs every policy in a campaign shares."""

    vm: object
    rates: CostRates
    history: np.ndarray        # estimation-window hourly prices
    realized: np.ndarray       # evaluation-window hourly prices
    demand: np.ndarray         # known demand over the evaluation window
    base_distribution: EmpiricalDistribution


def build_inputs(config: CampaignConfig) -> CampaignInputs:
    """Synthesize one campaign's market + demand, all from ``config.seed``."""
    catalog = ec2_catalog()
    if config.vm not in catalog:
        raise ValueError(
            f"unknown VM class {config.vm!r}; choose from {sorted(catalog)}"
        )
    vm = catalog[config.vm]
    history, realized = campaign_series(
        vm, config.estimation_slots, config.slots, config.seed
    )
    from repro.core.demand import NormalDemand

    demand = NormalDemand(mean=config.demand_mean, std=config.demand_std).sample(
        config.slots, config.seed + 1
    )
    return CampaignInputs(
        vm=vm,
        rates=CostRates(),
        history=history,
        realized=realized,
        demand=demand,
        base_distribution=EmpiricalDistribution(history),
    )


def make_policy(
    name: str,
    inputs: CampaignInputs,
    config: CampaignConfig,
    service_url: str | None = None,
    telemetry=None,
) -> Policy:
    """Instantiate one named policy against a campaign's inputs."""
    if name == "oracle":
        return OraclePolicy(inputs.realized, backend=config.backend)
    if name == "no-plan":
        return NoPlanPolicy()
    if name == "on-demand":
        return OnDemandPolicy(lookahead=config.lookahead, backend=config.backend)
    if name == "rolling-drrp":
        return RollingDRRPPolicy(
            MeanBids(), horizon=config.horizon, backend=config.backend,
            telemetry=telemetry,
        )
    if name == "rolling-drrp-service":
        if service_url is None:
            raise ValueError(
                "policy 'rolling-drrp-service' needs a service_url "
                "(a running repro.service server)"
            )
        from repro.service.client import ServiceClient

        return ServiceDRRPPolicy(
            MeanBids(), ServiceClient(service_url),
            horizon=config.horizon, backend=config.backend, telemetry=telemetry,
        )
    if name.startswith("bid-"):
        from repro.market.interruptions import InterruptionModel
        from repro.market.policy import make_bid_policy

        bid_policy = make_bid_policy(name[len("bid-"):], config.bid_value)
        # The policy's interruption model mirrors the simulator's loss
        # fraction, so the events it records carry honest lost/salvaged
        # splits for the work the simulator actually re-transfers.
        model = InterruptionModel(
            checkpoint_fraction=max(1.0 - config.interruption_loss, 1e-9)
        )
        return InterruptedRollingDRRPPolicy(
            bid_policy, model=model, horizon=config.horizon,
            backend=config.backend, telemetry=telemetry,
        )
    raise ValueError(f"unknown policy {name!r}; choose from {KNOWN_POLICIES}")


@dataclass
class PolicyOutcome:
    """One policy's scored run plus its replanning/service telemetry."""

    result: SimulationResult
    replans: int = 0
    replan_latencies: list[float] = field(default_factory=list)
    cache_hits: int = 0
    degraded_plans: int = 0
    local_fallbacks: int = 0
    service_requests: int = 0
    interruptions: int = 0

    def latency_quantile(self, q: float) -> float:
        """Exact empirical quantile of the replan latencies (NaN if none)."""
        if not self.replan_latencies:
            return float("nan")
        return float(np.quantile(np.asarray(self.replan_latencies), q))


@dataclass
class CampaignResult:
    """Everything one campaign produced (see module docstring)."""

    config: CampaignConfig
    outcomes: dict[str, PolicyOutcome]
    oracle_cost: float
    ratios: dict[str, float]          # realized cost / oracle cost per policy
    manifest: RunManifest
    registry: MetricsRegistry
    elapsed: float
    events: list = field(default_factory=list)      # recorded SolveEvents
    trace: TraceContext | None = None               # the campaign's root context
    wall_t0: float | None = None                    # time.time() at hub creation

    def result_payload(self) -> dict:
        """The digest-stable record of the campaign (decisions included).

        Deliberately excludes wall-clock latencies and event streams —
        only replay-stable numbers go under the manifest digest.
        """
        return _result_payload(self.outcomes, self.oracle_cost, self.ratios)

    def summary_lines(self) -> list[str]:
        lines = [
            f"{self.config.vm}: {self.config.slots} slots, "
            f"prediction {self.config.horizon.prediction} / control "
            f"{self.config.horizon.control} / coarse x{self.config.horizon.coarse_block}; "
            f"oracle cost ${self.oracle_cost:.3f}"
        ]
        for name in sorted(self.outcomes, key=lambda n: self.outcomes[n].result.total_cost):
            out = self.outcomes[name]
            res = out.result
            parts = [
                f"  {name:22s} ${res.total_cost:9.3f}  x{self.ratios[name]:.4f} oracle",
                f"out-of-bid {res.out_of_bid_events}",
            ]
            if out.interruptions:
                parts.append(f"interruptions {out.interruptions}")
            if out.replans:
                parts.append(
                    f"replans {out.replans} (p50 {out.latency_quantile(0.5) * 1e3:.0f} ms)"
                )
            if out.service_requests:
                parts.append(
                    f"service {out.service_requests} req / {out.cache_hits} cached"
                    + (f" / {out.degraded_plans} degraded" if out.degraded_plans else "")
                    + (f" / {out.local_fallbacks} local" if out.local_fallbacks else "")
                )
            lines.append("  ".join(parts))
        return lines


def _result_payload(outcomes: dict[str, PolicyOutcome], oracle_cost: float,
                    ratios: dict[str, float]) -> dict:
    per_policy = {}
    for name, out in sorted(outcomes.items()):
        res = out.result
        per_policy[name] = {
            "total_cost": float(res.total_cost),
            "compute_cost": float(res.compute_cost),
            "inventory_cost": float(res.inventory_cost),
            "transfer_in_cost": float(res.transfer_in_cost),
            "transfer_out_cost": float(res.transfer_out_cost),
            "out_of_bid_events": int(res.out_of_bid_events),
            "rentals": int(res.rentals),
            "forced_topups": int(res.forced_topups),
            "lost_gb": float(res.lost_gb),
            "replans": int(out.replans),
            "interruptions": int(out.interruptions),
            "generated": [float(x) for x in res.generated],
            "inventory": [float(x) for x in res.inventory],
            "paid_prices": [float(x) for x in res.paid_prices],
        }
    return {
        "oracle_cost": float(oracle_cost),
        "ratios": {k: float(v) for k, v in sorted(ratios.items())},
        "policies": per_policy,
    }


def run_campaign(
    config: CampaignConfig | None = None,
    service_url: str | None = None,
    extra_policies: dict[str, Policy] | None = None,
    listener=None,
) -> CampaignResult:
    """Run one closed-loop campaign end to end (see module docstring).

    ``extra_policies`` lets callers add pre-built :class:`Policy`
    instances (keyed by display name) beyond the named roster — they are
    simulated and scored like any other policy but are *not* recorded in
    the manifest config.  ``listener`` attaches one extra telemetry
    listener to the campaign hub (the CLI's live narrator, tests).

    The whole campaign runs under one ambient
    :class:`~repro.obs.propagate.TraceContext` — the caller's, when one
    is active, otherwise a fresh root — so service submissions and
    ``parallel_map`` fan-outs all land in the same trace; its id is
    recorded in the manifest (``extra["trace_id"]``) and on the result.
    """
    from repro.solver import EventRecorder, Telemetry

    config = config or CampaignConfig()
    recorder = EventRecorder()
    registry = MetricsRegistry()
    listeners = [recorder, MetricsAggregator(registry)]
    if listener is not None:
        listeners.append(listener)
    wall_t0 = time.time()
    hub = Telemetry(listeners=listeners)
    latency_hist = registry.histogram("sim_replan_s", _REPLAN_BUCKETS)
    window_counter = registry.counter("sim_replans_total")
    ctx = current_trace() or TraceContext.new_root()

    inputs = build_inputs(config)
    t_start = time.perf_counter()

    outcomes: dict[str, PolicyOutcome] = {}
    roster: list[tuple[str, Policy]] = [
        (name, make_policy(name, inputs, config, service_url, telemetry=hub))
        for name in config.policies
    ]
    # Service clients made for the roster are closed below; those of
    # ``extra_policies`` belong to the caller.
    own_clients = [p.client for _, p in roster if isinstance(p, ServiceDRRPPolicy)]
    for name, policy in (extra_policies or {}).items():
        roster.append((name, policy))

    for name, policy in roster:
        with activate(ctx), span(hub, f"policy[{name}]", slots=config.slots) as info:
            result = simulate_policy(
                policy,
                inputs.realized,
                inputs.demand,
                inputs.vm,
                rates=inputs.rates,
                base_distribution=inputs.base_distribution,
                price_history=inputs.history,
                interruption_loss=config.interruption_loss,
            )
            latencies = list(getattr(policy, "replan_latencies", ()))
            info["replans"] = len(latencies)
        for latency in latencies:
            latency_hist.observe(latency)
        window_counter.inc(len(latencies))
        outcomes[name] = PolicyOutcome(
            result=result,
            replans=int(getattr(policy, "replans", 0)),
            replan_latencies=latencies,
            cache_hits=int(getattr(policy, "cache_hits", 0)),
            degraded_plans=int(getattr(policy, "degraded_plans", 0)),
            local_fallbacks=int(getattr(policy, "local_fallbacks", 0)),
            service_requests=int(getattr(policy, "requests", 0)),
            interruptions=int(getattr(policy, "interruptions", 0)),
        )
    for client in own_clients:
        client.close()

    elapsed = time.perf_counter() - t_start
    if "oracle" in outcomes:
        oracle_cost = outcomes["oracle"].result.total_cost
    else:  # scored against the best run when no clairvoyant was requested
        oracle_cost = min(o.result.total_cost for o in outcomes.values())
    denom = oracle_cost or 1.0
    ratios = {
        name: out.result.total_cost / denom for name, out in outcomes.items()
    }
    manifest = RunManifest.from_run(
        "simulate",
        f"{config.vm}/{config.slots}",
        result=_result_payload(outcomes, oracle_cost, ratios),
        seed=config.seed,
        config=config.jsonable(),
        recorded_events=recorder.events,
        elapsed=elapsed,
        # The ephemeral port would differ between a run and its replay, so
        # only the *fact* of service routing goes under the manifest.
        extra={"service_routed": service_url is not None,
               "trace_id": ctx.trace_id},
    )
    return CampaignResult(
        config=config,
        outcomes=outcomes,
        oracle_cost=oracle_cost,
        ratios=ratios,
        manifest=manifest,
        registry=registry,
        elapsed=elapsed,
        events=list(recorder.events),
        trace=ctx,
        wall_t0=wall_t0,
    )
