"""Closed-loop rolling-horizon simulation harness (``docs/simulation.md``).

Grows the single-slot policy loop of :mod:`repro.core.rolling` into a
campaign engine: weeks of synthetic spot prices, replanning every control
interval over a multi-resolution prediction window, state carried across
windows, realized cost scored against the clairvoyant oracle — with the
replans optionally routed through a live :mod:`repro.service` server.

* :mod:`repro.sim.horizon` — prediction/control/overlap geometry and the
  fine/coarse window aggregation;
* :mod:`repro.sim.policies` — the rolling MPC policies (in-process and
  service-routed);
* :mod:`repro.sim.engine` — :func:`run_campaign`: trace synthesis,
  policy roster, spans/metrics, and the campaign :class:`RunManifest`;
* :mod:`repro.sim.bench` — the ``repro bench sim`` benchmark (its CI
  gate is the ``sim`` rows of :mod:`repro.bench.gates`).
"""

from .bench import SimBenchConfig, run_sim_bench
from .engine import (
    KNOWN_POLICIES,
    CampaignConfig,
    CampaignInputs,
    CampaignResult,
    PolicyOutcome,
    build_inputs,
    make_policy,
    run_campaign,
)
from .horizon import AggregatedWindow, HorizonConfig, aggregate_window, build_blocks
from .policies import (
    InterruptedRollingDRRPPolicy,
    RollingDRRPPolicy,
    RollingHorizonPolicy,
    ServiceDRRPPolicy,
)

__all__ = [
    "AggregatedWindow",
    "CampaignConfig",
    "CampaignInputs",
    "CampaignResult",
    "HorizonConfig",
    "InterruptedRollingDRRPPolicy",
    "KNOWN_POLICIES",
    "PolicyOutcome",
    "RollingDRRPPolicy",
    "RollingHorizonPolicy",
    "ServiceDRRPPolicy",
    "SimBenchConfig",
    "aggregate_window",
    "build_blocks",
    "build_inputs",
    "make_policy",
    "run_campaign",
    "run_sim_bench",
]
