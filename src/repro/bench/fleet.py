"""Fleet planning benchmark: tenant throughput, heuristic quality, cache reuse.

Four seeded legs, all deterministic given the config:

* **generate** — :func:`repro.fleet.generate_tenants` builds the seeded
  multi-tenant population (heterogeneous demand profiles, SLAs, market
  pools) used by every other leg.
* **plan** — :func:`repro.fleet.plan_fleet` plans the whole fleet
  end-to-end (heuristic tier, MILP escalation, pool repair) and reports
  tenants/minute plus the :func:`repro.solver.compile_cache_stats`
  breakdown aggregated across worker processes — the structural
  shape-cache hit rate is what makes same-horizon tenants cheap.
* **cohort** — heuristic vs MILP on the first ``milp_sample``
  escalation-eligible tenants' *base* (unknocked) instances.  The MILP is
  exact, so per-tenant ``heuristic / milp >= 1`` and the mean is the
  heuristic's true optimality gap on the cohort the escalation rule
  watches.
* **feasibility** — an independent :func:`verify_fleet_feasible` walk of
  the final fleet plan against every per-tenant constraint and pool cap.

The record is written as ``BENCH_fleet.json`` (``REPRO_BENCH_DIR``
honored).  CI gates only machine-independent quantities: the plan must be
feasible, the cohort cost ratio must stay within the paper-quality band,
and the shape-cache hit rate and escalation fraction must not collapse
relative to the committed baseline (see the ``fleet`` rows of
:mod:`repro.bench.gates` and ``docs/fleet.md``).  Absolute wall times and
tenants/minute are recorded for humans but never compared across hosts.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

import numpy as np

from repro.core.drrp import solve_drrp
from repro.fleet import (
    FleetConfig,
    generate_tenants,
    plan_fleet,
    solve_heuristic,
    uniform_pools,
    verify_fleet_feasible,
)
from repro.obs.spans import span
from repro.serialize import write_bench_record
from repro.solver import reset_compile_cache_stats
from repro.solver.telemetry import Telemetry

__all__ = [
    "FleetBenchConfig",
    "run_fleet_bench",
    "fleet_summary_lines",
]


@dataclass(frozen=True)
class FleetBenchConfig:
    """One benchmark run (defaults match the committed baseline)."""

    seed: int = 0
    tenants: int = 1000
    horizon: int = 24
    utilization: float = 0.6
    milp_sample: int = 64
    workers: int | None = None  # None -> repro.parallel.default_workers()
    out: str | None = "BENCH_fleet.json"

    def __post_init__(self) -> None:
        if self.tenants < 1:
            raise ValueError(f"fleet bench needs >= 1 tenant, got {self.tenants}")
        if self.horizon < 2:
            raise ValueError(f"fleet bench needs horizon >= 2, got {self.horizon}")
        if self.milp_sample < 1:
            raise ValueError(
                f"cohort leg needs >= 1 sampled tenant, got {self.milp_sample}"
            )
        if not 0.0 < self.utilization <= 1.0:
            raise ValueError(f"utilization must be in (0, 1], got {self.utilization}")


def _shape_hit_rate(stats: dict) -> float:
    """Fraction of structural builds avoided by the shape cache.

    Instance hits skip compilation entirely; of the compiles
    that did reach the structural layer, ``shape_hits`` reused a cached
    index skeleton and only re-scattered values.
    """
    structural = int(stats.get("shape_hits", 0)) + int(stats.get("full_builds", 0))
    return int(stats.get("shape_hits", 0)) / structural if structural else 0.0


def _cohort_leg(tenants, cfg: FleetBenchConfig) -> dict:
    eligible = [t for t in tenants if t.escalation_eligible]
    sample = eligible[: cfg.milp_sample]
    ratios = []
    t0 = time.perf_counter()
    for tenant in sample:
        heur = solve_heuristic(tenant.instance)
        milp = solve_drrp(tenant.instance, backend="auto")
        denom = max(abs(float(milp.objective)), 1e-9)
        ratios.append(float(heur.exact_objective) / denom)
    wall = time.perf_counter() - t0
    return {
        "wall_s": wall,
        "sampled": len(sample),
        "eligible_total": len(eligible),
        "cost_ratio_mean": float(np.mean(ratios)) if ratios else 1.0,
        "cost_ratio_max": float(np.max(ratios)) if ratios else 1.0,
    }


def run_fleet_bench(cfg: FleetBenchConfig | None = None, listener=None) -> dict:
    """Run all four legs and return (and optionally write) the record.

    ``listener`` attaches telemetry to the whole run: each leg gets its
    own span under one root ``bench_fleet`` span, so
    :func:`repro.obs.prof.profile_events` can attribute the wall time.
    """
    cfg = cfg or FleetBenchConfig()
    hub = Telemetry.from_listener(listener)

    with span(hub, "bench_fleet", seed=cfg.seed, tenants=cfg.tenants):
        with span(hub, "bench_leg[generate]"):
            t0 = time.perf_counter()
            tenants = generate_tenants(cfg.tenants, seed=cfg.seed, horizon=cfg.horizon)
            pools = uniform_pools(tenants, utilization=cfg.utilization)
            generate_wall = time.perf_counter() - t0

        reset_compile_cache_stats()
        with span(hub, "bench_leg[plan]"):
            t0 = time.perf_counter()
            fleet = plan_fleet(
                tenants, pools, FleetConfig(workers=cfg.workers), listener=listener
            )
            plan_wall = time.perf_counter() - t0

        with span(hub, "bench_leg[cohort]"):
            cohort = _cohort_leg(tenants, cfg)

        with span(hub, "bench_leg[feasibility]"):
            t0 = time.perf_counter()
            failures = verify_fleet_feasible(tenants, fleet.outcomes, pools)
            verify_wall = time.perf_counter() - t0

    if failures:
        raise RuntimeError(f"bench fleet plan infeasible: {failures[:3]}")

    record = {
        "benchmark": "fleet",
        "seed": cfg.seed,
        "config": {
            "tenants": cfg.tenants,
            "horizon": cfg.horizon,
            "utilization": cfg.utilization,
            "milp_sample": cfg.milp_sample,
        },
        "cpu_count": os.cpu_count() or 1,
        "generate": {"wall_s": generate_wall},
        "plan": {
            "wall_s": plan_wall,
            "tenants_per_minute": 60.0 * cfg.tenants / plan_wall if plan_wall > 0 else 0.0,
            "total_cost": float(fleet.total_cost),
            "eligible": fleet.eligible,
            "escalated": fleet.escalated,
            "escalation_fraction": fleet.escalation_fraction,
            "methods": dict(fleet.methods),
            "repair_rounds": fleet.repair_rounds,
            "knockouts": fleet.knockouts,
            "compile_stats": dict(fleet.compile_stats),
            "shape_hit_rate": _shape_hit_rate(fleet.compile_stats),
        },
        "cohort": cohort,
        "feasibility": {"wall_s": verify_wall, "feasible": not failures},
        "created": time.time(),
    }
    if cfg.out:
        record["path"] = str(write_bench_record(record, cfg.out))
    return record


def fleet_summary_lines(record: dict) -> list[str]:
    plan = record["plan"]
    cohort = record["cohort"]
    stats = plan["compile_stats"]
    return [
        (
            f"plan: {record['config']['tenants']} tenants in "
            f"{plan['wall_s']:.1f} s ({plan['tenants_per_minute']:.0f}/min), "
            f"methods {plan['methods']}, escalated {plan['escalated']} "
            f"({plan['escalation_fraction']:.1%} of fleet), "
            f"{plan['repair_rounds']} repair rounds, "
            f"{plan['knockouts']} knockouts"
        ),
        (
            f"compile: {stats.get('compiles', 0)} compiles, shape hit rate "
            f"{plan['shape_hit_rate']:.0%} "
            f"({stats.get('shape_hits', 0)} shape / "
            f"{stats.get('full_builds', 0)} full)"
        ),
        (
            f"cohort: heuristic/MILP mean {cohort['cost_ratio_mean']:.4f}, "
            f"max {cohort['cost_ratio_max']:.4f} over {cohort['sampled']} "
            f"eligible tenants"
        ),
        (
            f"feasible: {record['feasibility']['feasible']} "
            f"({record['cpu_count']} CPUs)"
        ),
    ]
