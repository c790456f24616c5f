"""Solver hot-path benchmark: warm starts, parallel Benders, node throughput.

Three seeded workloads, all deterministic given the config:

* **bb** — random bounded integer programs (dense knapsack-style rows,
  chosen because their LP relaxations branch deep) solved twice through
  the simplex-backed branch and bound: once with LP warm starts (children
  restart phase 2 from the parent basis) and once forced cold.  Both runs
  explore the *same* tree, so the node-throughput ratio isolates the
  warm-start win from search luck.
* **drrp** — a paper DRRP instance (eq. (1)-(7) lot-sizing MILP) solved
  through the same two paths; realistic structure, mostly-integral LP
  relaxations.
* **benders** — an SRRP-style two-stage program with complete recourse,
  solved serially and with the scenario fan-out; per-scenario subproblem
  bases warm the next iteration in both modes.
* **large** — a 200+ var / 60+ row wide multi-class DRRP allocation LP
  (columns dominate rows, the regime production models grow into) solved
  cold once plus a deterministic branching-style sequence of warm
  re-solves, per pivot engine, best of :data:`BEST_OF` alternating runs.  The tableau/revised wall-clock ratio
  on the *same* instance sequence and machine is hardware-independent and
  is gated at ``LARGE_TIER_MIN_SPEEDUP`` — the revised engine must stay
  >= 3x faster than the dense tableau it replaced.

The record is written as ``BENCH_solver.json`` (``REPRO_BENCH_DIR``
honored, like the service bench).  CI compares the **cold-normalized**
node-throughput ratio against the committed baseline — a ratio of
warm-to-cold throughput on the *same* machine cancels hardware speed, so
the gate transfers between laptops and runners (see
:func:`check_solver_regression` and ``docs/performance.md``).

On a host that delivers one CPU the parallel Benders leg cannot beat
serial (there is nothing to fan out onto), and a host can advertise more
CPUs than it delivers: an oversubscribed VM's two vCPUs may run two
processes at the speed of one.  So the bench measures what it gets.
A calibration round times a fixed pure-Python kernel once in-process
(``t_single``) and once per worker at the same time on the shared pool
the parallel leg runs on (``wall``).  The serial and parallel Benders
legs run :data:`BEST_OF` times each, alternating, and keep their best
wall time; calibration rounds bracket every parallel run, after one
untimed round that builds the pool.  The delivered parallelism,
``cpu_parallelism``, is ``workers * t_single / wall`` with the best
``t_single`` (the kernel's uncontended cost) and the slowest ``wall``
(the least the host gave while the legs ran).  The record's
``cpu_count`` counts the CPUs in that score that the pool got at least
90% of (``floor(score + DELIVERED_CPU_SLACK)``), clamped to
``[1, os.cpu_count()]``; the advertised count is kept as
``cpu_count_advertised``.  Readers and the
regression gate use ``cpu_count`` to tell "no cores" from "regression".
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass, replace as dc_replace
from pathlib import Path

import numpy as np

from repro.obs.spans import span
from repro.parallel.pool import default_workers, parallel_map
from repro.solver import BranchAndBoundOptions, SolverStatus, solve_compiled
from repro.solver.benders import BendersOptions, Scenario, TwoStageProblem, solve_benders
from repro.solver.model import CompiledProblem
from repro.solver.telemetry import Telemetry

__all__ = [
    "SolverBenchConfig",
    "run_solver_bench",
    "check_solver_regression",
    "summary_lines",
    "write_bench_record",
]

#: Gate: fail CI when the current warm/cold throughput ratio drops below
#: this fraction of the committed baseline's ratio.
REGRESSION_TOLERANCE = 0.75

#: Gate: floor on the tableau/revised wall-clock ratio of the large tier.
#: Same sequence, same machine — the ratio transfers across hosts.
LARGE_TIER_MIN_SPEEDUP = 3.0
#: The speedup gate only means something while the tier stays large; a
#: record whose tier shrank below these sizes fails against a baseline
#: whose tier was large.
LARGE_TIER_MIN_VARS = 200
LARGE_TIER_MIN_ROWS = 60

#: Runs of each leg whose wall-time ratio is gated (the large-tier
#: engines, serial and parallel Benders), alternating; the best
#: (shortest) wall time of each counts, so one noisy run cannot decide a
#: gated ratio.
BEST_OF = 3
#: Iterations of the calibration kernel: tens of milliseconds of
#: pure-Python work on a current server core, long enough that pool
#: dispatch is noise next to it.
CALIBRATION_LOOPS = 200_000
#: A CPU counts as delivered when the pool got at least 90% of it; the
#: slack absorbs dispatch and timer noise on a host whose CPUs are whole.
#: Two workers that share 1.5 CPUs get one CPU and a slice, and a Benders
#: fan-out of a few milliseconds cannot count on the slice.
DELIVERED_CPU_SLACK = 0.1


@dataclass(frozen=True)
class SolverBenchConfig:
    """One benchmark run (defaults match the committed baseline)."""

    seed: int = 0
    bb_instances: int = 3
    bb_vars: int = 24
    bb_rows: int = 20
    node_limit: int = 2000
    drrp_horizon: int = 24
    scenarios: int = 12
    recourse_rows: int = 30
    recourse_vars: int = 60
    benders_workers: int | None = None  # None -> repro.parallel.default_workers()
    large_horizon: int = 48  # periods in the large (wide) DRRP tier
    large_classes: int = 8  # instance classes per period (2 tiers each)
    large_resolves: int = 60  # warm re-solves per engine on the large tier
    out: str | None = "BENCH_solver.json"

    def __post_init__(self) -> None:
        if self.scenarios < 8:
            raise ValueError(
                f"benders leg needs >= 8 scenarios to be meaningful, got {self.scenarios}"
            )
        if self.bb_instances < 1 or self.bb_vars < 2 or self.bb_rows < 1:
            raise ValueError("bb workload must have >= 1 instance and a nonempty LP")
        if self.large_horizon < 2 or self.large_classes < 1 or self.large_resolves < 1:
            raise ValueError(
                "large tier needs >= 2 periods, >= 1 class and >= 1 warm re-solve"
            )


def _random_milp(rng: np.random.Generator, n: int, m: int) -> CompiledProblem:
    """Dense bounded integer program whose relaxation branches deep."""
    c = -rng.uniform(1.0, 5.0, n)  # maximize profit, compiled as min -c'x
    A = rng.uniform(0.0, 3.0, (m, n))
    b = rng.uniform(0.75 * n, 1.8 * n, m)
    return CompiledProblem(
        c=c, c0=0.0, A_ub=A, b_ub=b,
        A_eq=np.zeros((0, n)), b_eq=np.zeros(0),
        lb=np.zeros(n), ub=np.full(n, 6.0),
        integrality=np.ones(n, dtype=int), maximize=False, variables=[],
    )


def _drrp_problem(cfg: SolverBenchConfig) -> tuple[CompiledProblem, np.ndarray]:
    """Paper DRRP instance plus its Wagner-Whitin incumbent.

    Mirrors ``solve_drrp(warm_start=True)``: without the polynomial-time
    incumbent, best-first B&B on the balance equalities prunes almost
    nothing and the leg would just burn its node limit.
    """
    from repro.core import DRRPInstance, NormalDemand, on_demand_schedule
    from repro.core.drrp import build_drrp_model
    from repro.core.lotsizing import solve_wagner_whitin
    from repro.market import ec2_catalog

    vm = ec2_catalog()["m1.large"]
    demand = NormalDemand(mean=0.4, std=0.2).sample(cfg.drrp_horizon, cfg.seed)
    inst = DRRPInstance(
        demand=demand, costs=on_demand_schedule(vm, cfg.drrp_horizon), vm_name=vm.name
    )
    model, _ = build_drrp_model(inst)
    ww = solve_wagner_whitin(inst)
    x0 = np.concatenate([ww.alpha, ww.beta, ww.chi])
    return model.compile(), x0


def _large_problem(cfg: SolverBenchConfig) -> CompiledProblem:
    """Wide multi-class DRRP allocation LP for the engine-ratio tier.

    ``large_horizon`` periods x ``large_classes`` instance classes x two
    rental tiers (reserved-rate, on-demand-rate): per period a coverage row
    (weighted capacity across all classes meets demand) and a reserved-
    market availability row.  Columns dominate rows (n = 2*K*T vs m = 2*T)
    — the regime scaled-up DRRP portfolios live in, and the one that
    separates the engines: dense-tableau pivots cost O(m*n) while factored
    revised pivots cost O(m^2 + n).  All variables carry finite upper
    bounds so at-upper statuses and bound flips are exercised.
    """
    rng = np.random.default_rng(cfg.seed + 101)
    T, K = cfg.large_horizon, cfg.large_classes
    n = 2 * K * T
    cap = rng.uniform(1.0, 4.0, K)  # effective capacity per instance class
    price_res = rng.uniform(0.5, 1.5, K)
    price_od = price_res * rng.uniform(1.5, 2.5, K)  # on-demand premium
    demand = np.maximum(rng.normal(0.4, 0.2, T), 0.05) * cap.sum() * 1.5
    res_cap = rng.uniform(0.3, 0.8, T) * cap.sum() * 1.2
    c = np.empty(n)
    A_ub = np.zeros((2 * T, n))
    b_ub = np.empty(2 * T)
    for t in range(T):
        base = t * 2 * K
        c[base : base + K] = price_res
        c[base + K : base + 2 * K] = price_od
        # Coverage: sum_k cap_k * (res_{k,t} + od_{k,t}) >= demand_t.
        A_ub[t, base : base + K] = -cap
        A_ub[t, base + K : base + 2 * K] = -cap
        b_ub[t] = -demand[t]
        # Reserved-market availability: sum_k cap_k * res_{k,t} <= R_t.
        A_ub[T + t, base : base + K] = cap
        b_ub[T + t] = res_cap[t]
    return CompiledProblem(
        c=c, c0=0.0, A_ub=A_ub, b_ub=b_ub,
        A_eq=np.zeros((0, n)), b_eq=np.zeros(0),
        lb=np.zeros(n), ub=np.full(n, 3.0),
        integrality=np.zeros(n, dtype=int), maximize=False, variables=[],
    )


def _large_engine_run(
    prob: CompiledProblem,
    engine: str,
    resolves: int,
    seed: int,
    telemetry: Telemetry | None = None,
) -> dict:
    """One cold root solve plus a branching-style warm re-solve sequence.

    The sequence (which variable's bound tightens, and which way) is fully
    determined by ``seed``, so both engines replay the *same* LPs and their
    wall-clock ratio isolates the engine, not the workload.  Returns the
    leg stats plus the per-solve objectives for the cross-engine agreement
    check (``None`` marks an infeasible child).
    """
    from repro.solver.simplex import solve_lp_simplex

    rng = np.random.default_rng(seed)
    t0 = time.perf_counter()
    root = solve_lp_simplex(prob, telemetry=telemetry, engine=engine)
    if root.status is not SolverStatus.OPTIMAL:
        raise RuntimeError(f"large-tier root LP terminated {root.status.value} ({engine})")
    basis = root.extra["basis"]
    x = root.x
    pivots = root.iterations
    warm_used = 0
    objectives: list[float | None] = [float(root.objective)]
    for _ in range(resolves):
        j = int(rng.integers(prob.num_vars))
        lb2, ub2 = prob.lb.copy(), prob.ub.copy()
        if rng.integers(2):
            ub2[j] = max(prob.lb[j], x[j] * 0.5)
        else:
            lb2[j] = min(prob.ub[j], x[j] * 0.5 + 0.2)
        child = dc_replace(prob, lb=lb2, ub=ub2)
        res = solve_lp_simplex(child, warm_start=basis, telemetry=telemetry, engine=engine)
        pivots += res.iterations
        if res.status is SolverStatus.OPTIMAL:
            objectives.append(float(res.objective))
        elif res.status is SolverStatus.INFEASIBLE:
            objectives.append(None)
        else:
            raise RuntimeError(
                f"large-tier child LP terminated {res.status.value} ({engine})"
            )
        warm_used += int(bool((res.extra.get("warm") or {}).get("used")))
    wall = time.perf_counter() - t0
    return {
        "wall_s": wall,
        "pivots": pivots,
        "warm_used": warm_used,
        "resolves": resolves,
        "objectives": objectives,
    }


def _two_stage(cfg: SolverBenchConfig) -> TwoStageProblem:
    """SRRP-shaped two-stage program with complete recourse (elastic W)."""
    rng = np.random.default_rng(cfg.seed + 17)
    n, m, ny0, S = 8, cfg.recourse_rows, cfg.recourse_vars, cfg.scenarios
    c = rng.uniform(1.0, 4.0, n)
    A_ub = rng.uniform(0.0, 1.0, (3, n))
    b_ub = rng.uniform(6.0, 10.0, 3)
    scenarios = []
    for _ in range(S):
        W0 = rng.uniform(0.1, 1.0, (m, ny0))
        W = np.hstack([W0, np.eye(m), -np.eye(m)])
        T = rng.uniform(0.0, 0.5, (m, n))
        h = rng.uniform(2.0, 8.0, m)
        q = np.concatenate([rng.uniform(0.5, 2.0, ny0), np.full(2 * m, 6.0)])
        y_ub = np.concatenate([rng.uniform(0.5, 3.0, ny0), np.full(2 * m, np.inf)])
        scenarios.append(Scenario(prob=1.0 / S, q=q, W=W, T=T, h=h, y_ub=y_ub))
    return TwoStageProblem(
        c=c, lb=np.zeros(n), ub=np.full(n, 5.0),
        integrality=np.zeros(n, dtype=int), scenarios=scenarios,
        A_ub=A_ub, b_ub=b_ub,
    )


def _bb_leg(
    problems: list[CompiledProblem],
    warm: bool,
    node_limit: int,
    incumbent: np.ndarray | None = None,
    telemetry: Telemetry | None = None,
) -> dict:
    wall = 0.0
    nodes = pivots = lp_warm = lp_cold = 0
    objectives = []
    for p in problems:
        opts = BranchAndBoundOptions(
            warm_start_lps=warm, node_limit=node_limit, initial_incumbent=incumbent
        )
        t0 = time.perf_counter()
        res = solve_compiled(p, backend="simplex", bb_options=opts, listener=telemetry)
        wall += time.perf_counter() - t0
        if res.status not in (SolverStatus.OPTIMAL, SolverStatus.NODE_LIMIT, SolverStatus.FEASIBLE):
            raise RuntimeError(f"bench MILP terminated {res.status.value}")
        nodes += res.nodes
        pivots += res.iterations
        lp_warm += int(res.extra.get("lp_warm", 0))
        lp_cold += int(res.extra.get("lp_cold", 0))
        objectives.append(float(res.objective))
    solves = lp_warm + lp_cold
    return {
        "wall_s": wall,
        "nodes": nodes,
        "nodes_per_sec": nodes / wall if wall > 0 else 0.0,
        "pivots": pivots,
        "pivots_per_solve": pivots / solves if solves else 0.0,
        "lp_warm": lp_warm,
        "lp_cold": lp_cold,
        "warm_hit_rate": lp_warm / solves if solves else 0.0,
        "objectives": objectives,
    }


def _benders_leg(tsp: TwoStageProblem, workers: int,
                 telemetry: Telemetry | None = None) -> dict:
    opts = BendersOptions(n_workers=workers)
    t0 = time.perf_counter()
    res = solve_benders(tsp, options=opts, listener=telemetry)
    wall = time.perf_counter() - t0
    if res.status is not SolverStatus.OPTIMAL:
        raise RuntimeError(f"bench Benders terminated {res.status.value}")
    return {
        "wall_s": wall,
        "iterations": res.nodes,
        "workers": int(res.extra.get("workers", workers)),
        "subproblem_warm_hits": int(res.extra.get("subproblem_warm_hits", 0)),
        "objective": float(res.objective),
    }


def _spin(loops: int) -> float:
    """Fixed CPU-bound pure-Python kernel; returns its own wall seconds."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(loops):
        acc ^= i * i
    return time.perf_counter() - t0


def _calibration_round(workers: int, loops: int = CALIBRATION_LOOPS) -> tuple[float, float]:
    """Seconds for the kernel alone in-process, then wall seconds for
    ``workers`` copies at once on the shared pool (built on first use)."""
    single = _spin(loops)
    t0 = time.perf_counter()
    parallel_map(_spin, [loops] * workers, n_workers=workers, chunksize=1)
    return single, time.perf_counter() - t0


def run_solver_bench(cfg: SolverBenchConfig | None = None, listener=None) -> dict:
    """Run all three workloads and return (and optionally write) the record.

    ``listener`` attaches solver telemetry to the whole run: every leg is
    bracketed in its own span under one root ``bench_solver`` span, so
    :func:`repro.obs.prof.profile_events` can attribute essentially all of
    the bench's wall time (``repro profile bench-solver``).
    """
    cfg = cfg or SolverBenchConfig()
    hub = Telemetry.from_listener(listener)
    rng = np.random.default_rng(cfg.seed)
    problems = [
        _random_milp(rng, cfg.bb_vars, cfg.bb_rows) for _ in range(cfg.bb_instances)
    ]

    with span(hub, "bench_solver", seed=cfg.seed):
        with span(hub, "bench_leg[bb_warm]"):
            bb_warm = _bb_leg(problems, warm=True, node_limit=cfg.node_limit,
                              telemetry=hub)
        with span(hub, "bench_leg[bb_cold]"):
            bb_cold = _bb_leg(problems, warm=False, node_limit=cfg.node_limit,
                              telemetry=hub)
        if not np.allclose(bb_warm["objectives"], bb_cold["objectives"], rtol=1e-7, atol=1e-7):
            raise RuntimeError(
                "warm and cold B&B disagree on bench optima: "
                f"{bb_warm['objectives']} vs {bb_cold['objectives']}"
            )

        drrp_prob, drrp_x0 = _drrp_problem(cfg)
        with span(hub, "bench_leg[drrp_warm]"):
            drrp_warm = _bb_leg([drrp_prob], warm=True, node_limit=cfg.node_limit,
                                incumbent=drrp_x0, telemetry=hub)
        with span(hub, "bench_leg[drrp_cold]"):
            drrp_cold = _bb_leg([drrp_prob], warm=False, node_limit=cfg.node_limit,
                                incumbent=drrp_x0, telemetry=hub)
        if not np.allclose(drrp_warm["objectives"], drrp_cold["objectives"], rtol=1e-7, atol=1e-7):
            raise RuntimeError(
                "warm and cold B&B disagree on the DRRP leg: "
                f"{drrp_warm['objectives']} vs {drrp_cold['objectives']}"
            )

        large_prob = _large_problem(cfg)
        revised_runs, tableau_runs = [], []
        for _ in range(BEST_OF):
            with span(hub, "bench_leg[large_revised]"):
                revised_runs.append(_large_engine_run(
                    large_prob, "revised", cfg.large_resolves, cfg.seed + 7, telemetry=hub
                ))
            with span(hub, "bench_leg[large_tableau]"):
                tableau_runs.append(_large_engine_run(
                    large_prob, "tableau", cfg.large_resolves, cfg.seed + 7, telemetry=hub
                ))
        large_revised = min(revised_runs, key=lambda leg: leg["wall_s"])
        large_tableau = min(tableau_runs, key=lambda leg: leg["wall_s"])
        for o_r, o_t in zip(large_revised["objectives"], large_tableau["objectives"]):
            if (o_r is None) != (o_t is None) or (
                o_r is not None and abs(o_r - o_t) > 1e-6 * (1.0 + abs(o_t))
            ):
                raise RuntimeError(
                    "revised and tableau engines disagree on the large tier: "
                    f"{o_r} vs {o_t}"
                )

        tsp = _two_stage(cfg)
        workers = max(
            2, cfg.benders_workers if cfg.benders_workers is not None else default_workers()
        )
        rounds, serial_runs, parallel_runs = [], [], []
        with span(hub, "bench_leg[calibrate]"):
            _calibration_round(workers)  # builds the pool: start-up is not timed
            rounds.append(_calibration_round(workers))
        for _ in range(BEST_OF):
            with span(hub, "bench_leg[benders_serial]"):
                serial_runs.append(_benders_leg(tsp, workers=1, telemetry=hub))
            with span(hub, "bench_leg[benders_parallel]"):
                parallel_runs.append(_benders_leg(tsp, workers=workers, telemetry=hub))
            with span(hub, "bench_leg[calibrate]"):
                rounds.append(_calibration_round(workers))
    # Delivered parallelism, workers * t_single / wall: the best in-process
    # time is the kernel's uncontended cost, and the slowest fan-out is the
    # least the host gave while the parallel legs ran between calibrations.
    parallelism = workers * min(t for t, _ in rounds) / max(w for _, w in rounds)
    advertised = os.cpu_count() or 1
    benders_serial = min(serial_runs, key=lambda leg: leg["wall_s"])
    benders_parallel = min(parallel_runs, key=lambda leg: leg["wall_s"])
    if abs(benders_serial["objective"] - benders_parallel["objective"]) > 1e-6 * max(
        1.0, abs(benders_serial["objective"])
    ):
        raise RuntimeError(
            "serial and parallel Benders disagree: "
            f"{benders_serial['objective']} vs {benders_parallel['objective']}"
        )

    record = {
        "benchmark": "solver",
        "seed": cfg.seed,
        "config": {
            "bb_instances": cfg.bb_instances,
            "bb_vars": cfg.bb_vars,
            "bb_rows": cfg.bb_rows,
            "node_limit": cfg.node_limit,
            "drrp_horizon": cfg.drrp_horizon,
            "scenarios": cfg.scenarios,
            "recourse_rows": cfg.recourse_rows,
            "recourse_vars": cfg.recourse_vars,
            "large_horizon": cfg.large_horizon,
            "large_classes": cfg.large_classes,
            "large_resolves": cfg.large_resolves,
        },
        # CPUs delivered to the parallel Benders leg, not advertised ones:
        # the Benders gate reads this.
        "cpu_count": max(1, min(advertised, math.floor(parallelism + DELIVERED_CPU_SLACK))),
        "cpu_count_advertised": advertised,
        "cpu_parallelism": parallelism,
        "bb": {
            "warm": bb_warm,
            "cold": bb_cold,
            # Cold-normalized: warm and cold ran the same tree on the same
            # machine, so this ratio is hardware-independent — it is what
            # the CI regression gate compares.
            "node_throughput_ratio": (
                bb_warm["nodes_per_sec"] / bb_cold["nodes_per_sec"]
                if bb_cold["nodes_per_sec"] > 0 else 0.0
            ),
        },
        "drrp": {"warm": drrp_warm, "cold": drrp_cold},
        "large": {
            "vars": int(large_prob.num_vars),
            "rows": int(large_prob.A_ub.shape[0] + large_prob.A_eq.shape[0]),
            "resolves": cfg.large_resolves,
            "revised": {k: v for k, v in large_revised.items() if k != "objectives"},
            "tableau": {k: v for k, v in large_tableau.items() if k != "objectives"},
            # Same instance sequence, same machine: this ratio is the
            # hardware-independent engine gate.
            "speedup": (
                large_tableau["wall_s"] / large_revised["wall_s"]
                if large_revised["wall_s"] > 0 else 0.0
            ),
        },
        "benders": {
            "scenarios": cfg.scenarios,
            "serial": benders_serial,
            "parallel": benders_parallel,
            "speedup": (
                benders_serial["wall_s"] / benders_parallel["wall_s"]
                if benders_parallel["wall_s"] > 0 else 0.0
            ),
        },
        "created": time.time(),
    }
    if cfg.out:
        record["path"] = str(write_bench_record(record, cfg.out))
    return record


def write_bench_record(record: dict, out: str = "BENCH_solver.json") -> Path:
    from repro.serialize import jsonable

    out_dir = Path(os.environ.get("REPRO_BENCH_DIR", "."))
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / out
    # jsonable maps non-finite floats to strings so the record always parses.
    path.write_text(
        json.dumps(jsonable(record), indent=2, allow_nan=False, sort_keys=True) + "\n"
    )
    return path


def check_solver_regression(
    record: dict, baseline: dict, tolerance: float = REGRESSION_TOLERANCE
) -> list[str]:
    """Compare a fresh record against the committed baseline.

    Returns human-readable failure strings (empty = pass).  Only
    machine-independent ratios are gated; absolute wall times are recorded
    for humans but never compared across hosts.  The Benders speedup must
    exceed 1.0 only when the record's ``cpu_count`` — the CPUs the host
    *delivered* to the parallel leg, measured by :func:`run_solver_bench`
    — is at least 2; a host that advertises 2 CPUs but delivers one is
    not held to it.
    """
    failures: list[str] = []
    cur = float(record["bb"]["node_throughput_ratio"])
    base = float(baseline["bb"]["node_throughput_ratio"])
    if cur < tolerance * base:
        failures.append(
            f"bb node-throughput ratio regressed: {cur:.2f}x vs baseline "
            f"{base:.2f}x (floor {tolerance * base:.2f}x)"
        )
    # Absolute floor, but only when the baseline itself cleared it: tiny
    # smoke configurations are timing-noisy enough that warm can measure
    # below cold, and a record must always pass against itself.
    if cur < 1.0 <= base:
        failures.append(f"warm starts slower than cold ({cur:.2f}x)")
    warm_rate = float(record["bb"]["warm"]["warm_hit_rate"])
    base_rate = float(baseline["bb"]["warm"]["warm_hit_rate"])
    if warm_rate < tolerance * base_rate:
        failures.append(
            f"warm-hit rate regressed: {warm_rate:.0%} vs baseline {base_rate:.0%}"
        )
    if int(record.get("cpu_count", 1)) >= 2 and float(record["benders"]["speedup"]) <= 1.0:
        failures.append(
            f"parallel Benders no faster than serial on a host delivering "
            f"{record['cpu_count']} CPUs (speedup "
            f"{record['benders']['speedup']:.2f}x)"
        )
    large = record.get("large")
    base_large = baseline.get("large")

    def _is_big(leg: dict) -> bool:
        return (
            int(leg.get("vars", 0)) >= LARGE_TIER_MIN_VARS
            and int(leg.get("rows", 0)) >= LARGE_TIER_MIN_ROWS
        )

    if large is None:
        if base_large is not None:
            failures.append("record is missing the large engine-ratio tier")
    else:
        if _is_big(large):
            speedup = float(large["speedup"])
            if speedup < LARGE_TIER_MIN_SPEEDUP:
                failures.append(
                    f"large-tier revised-engine speedup {speedup:.2f}x is below "
                    f"the {LARGE_TIER_MIN_SPEEDUP:.1f}x floor (tableau "
                    f"{large['tableau']['wall_s'] * 1e3:.0f} ms vs revised "
                    f"{large['revised']['wall_s'] * 1e3:.0f} ms on "
                    f"{large['vars']} vars / {large['rows']} rows)"
                )
            warm_hits = int(large["revised"]["warm_used"])
            if warm_hits < int(large["resolves"]):
                failures.append(
                    f"large-tier revised warm hits {warm_hits}/"
                    f"{large['resolves']}: warm bases are being rejected"
                )
        elif base_large is not None and _is_big(base_large):
            failures.append(
                f"large tier shrank to {large.get('vars', 0)} vars / "
                f"{large.get('rows', 0)} rows (floor {LARGE_TIER_MIN_VARS} / "
                f"{LARGE_TIER_MIN_ROWS}); the engine-ratio gate is meaningless"
            )
    return failures


def summary_lines(record: dict) -> list[str]:
    bb = record["bb"]
    bd = record["benders"]
    lines = [
        (
            f"bb: warm {bb['warm']['nodes_per_sec']:.0f} nodes/s "
            f"vs cold {bb['cold']['nodes_per_sec']:.0f} nodes/s "
            f"({bb['node_throughput_ratio']:.2f}x), "
            f"warm-hit {bb['warm']['warm_hit_rate']:.0%}, "
            f"pivots/solve {bb['warm']['pivots_per_solve']:.1f} warm "
            f"vs {bb['cold']['pivots_per_solve']:.1f} cold"
        ),
        (
            f"drrp: warm {record['drrp']['warm']['wall_s'] * 1e3:.0f} ms "
            f"vs cold {record['drrp']['cold']['wall_s'] * 1e3:.0f} ms "
            f"({record['drrp']['warm']['nodes']} nodes)"
        ),
        (
            f"benders: {bd['scenarios']} scenarios, serial "
            f"{bd['serial']['wall_s'] * 1e3:.0f} ms vs parallel "
            f"{bd['parallel']['wall_s'] * 1e3:.0f} ms on "
            f"{bd['parallel']['workers']} workers ({bd['speedup']:.2f}x, "
            f"{record['cpu_count']} of "
            f"{record.get('cpu_count_advertised', record['cpu_count'])} CPUs), warm hits "
            f"{bd['parallel']['subproblem_warm_hits']}/"
            f"{bd['scenarios'] * bd['parallel']['iterations']}"
        ),
    ]
    lg = record.get("large")
    if lg is not None:
        lines.append(
            f"large: {lg['vars']} vars / {lg['rows']} rows, revised "
            f"{lg['revised']['wall_s'] * 1e3:.0f} ms vs tableau "
            f"{lg['tableau']['wall_s'] * 1e3:.0f} ms ({lg['speedup']:.2f}x), "
            f"warm {lg['revised']['warm_used']}/{lg['resolves']}"
        )
    return lines
