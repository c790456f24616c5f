"""Command-line interface: ``python -m repro <command>``.

Commands mirror the library's main workflows:

``plan``
    Solve DRRP for a class/horizon and print the rental schedule.
``run``
    Observed run of a DRRP solve (``run drrp``) or a paper experiment
    (``run fig10``): writes a Chrome trace (``--trace``), a provenance
    ``manifest.json`` + ``events.jsonl`` (``--out-dir``; the one event-log
    format, headed by a ``process_meta`` line), and prints the span tree /
    metrics report (:func:`repro.obs.record_run`).
``analyze``
    Run the spot-price predictability summary for one class.
``simulate``
    Rolling-horizon bake-off (oracle, on-demand, det/sto policies).
``report``
    Regenerate paper figures (all, or a listed subset) — or, given paths
    to a trace / manifest / event log written by ``run``/``fuzz``, render
    the recorded span tree, metrics, and provenance instead.
``export-dataset``
    Write the bundled reference dataset as CSVs for external tools.
``fuzz``
    Differential-fuzz the solver stack against exact certificates and
    independent oracles (see :mod:`repro.verify`); CI runs the seeded
    ``--smoke`` configuration on every push and a longer budget nightly.
    ``--workers N`` shards the campaign over processes; ``--trace`` /
    ``--manifest`` record the campaign like ``run`` does.
``serve``
    Run the planning service (:mod:`repro.service`): an HTTP server with
    a bounded job queue, solver worker pool, and content-addressed plan
    cache (see ``docs/service.md``).
``submit``
    Submit one planning job to a running ``serve`` instance and print
    the plan.  Stdlib-only client path — works without numpy installed.
``plan-fleet``
    Plan a seeded multi-tenant fleet against shared capacity pools
    (:mod:`repro.fleet`): heuristic tier, gap-triggered MILP escalation,
    pool-overload repair; prints per-pool usage and the method mix.
``trace``
    Merge event logs (``simulate --trace-dir``, the service's per-job
    captures, ``run --out-dir``) into one Chrome trace with a pid lane
    per ``process_meta`` label, clocks aligned on each ``wall_t0``, and
    cross-process flow arrows (:mod:`repro.obs.propagate`).
``profile``
    Deterministic phase profiler (:mod:`repro.obs.prof`): attribute the
    wall time of a recorded event log (``run drrp --out-dir D`` writes
    ``D/events.jsonl``) to simplex phases, B&B node lifecycle, Benders
    master/subproblem/IPC, and service queue wait; ``--speedscope``
    exports a speedscope-JSON flamechart.  ``profile bench-solver``
    re-runs the solver benchmark under the profiler and fails (exit 1)
    when less than 95% of its wall time is attributed.
``bench``
    ``bench {solver,fleet,sim,service}`` runs one benchmark family
    (:mod:`repro.bench.solver`, :mod:`repro.bench.fleet`,
    :mod:`repro.sim.bench`, :mod:`repro.service.loadgen`) and writes its
    ``BENCH_<family>.json``; ``--set FIELD=VALUE`` sets a field of the
    family's config dataclass.  With ``--check-against BASELINE`` it
    exits 1 when a row of :mod:`repro.bench.gates` fails against the
    baseline (the CI gates); the ``service`` rows need no baseline and
    always run.  ``bench report`` prints the gated numbers of every
    committed ``BENCH_*.json`` next to fresh records from
    ``REPRO_BENCH_DIR``/``bench-out/``.

Exit codes, uniformly: ``0`` success (``plan``/``submit``: the plan is
OPTIMAL; ``fuzz``: campaign completed clean), ``1`` failure (no plan,
fuzz disagreements, service errors), ``2`` usage errors, ``3`` a usable
but non-optimal result (``plan``/``submit``: FEASIBLE/TIME_LIMIT
incumbent or degraded plan; ``fuzz``: the campaign was cut short by its
deadline).
"""

from __future__ import annotations

import argparse
import sys

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    from repro.service.encoding import BACKENDS

    backend_help = "solver backend: " + " | ".join(BACKENDS)
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Resource rental planning for elastic cloud applications (IPDPS'12 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_plan = sub.add_parser("plan", help="solve DRRP for one VM class")
    p_plan.add_argument("--vm", default="m1.large", help="VM class (default m1.large)")
    p_plan.add_argument("--horizon", type=int, default=24, help="slots to plan (default 24)")
    p_plan.add_argument("--seed", type=int, default=0, help="demand seed")
    p_plan.add_argument("--demand-mean", type=float, default=0.4, help="GB/h demand mean")
    p_plan.add_argument("--demand-std", type=float, default=0.2, help="GB/h demand std")
    p_plan.add_argument(
        "--backend", default="auto",
        help=backend_help,
    )
    p_plan.add_argument(
        "--time-limit", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget for the whole solve (best incumbent on expiry)",
    )
    p_plan.add_argument(
        "--telemetry", choices=("summary", "json"), default=None,
        help="record solve events: 'summary' prints one line, 'json' dumps the stream",
    )

    p_run = sub.add_parser(
        "run", help="observed run: DRRP solve or experiment with trace/manifest output"
    )
    p_run.add_argument(
        "target",
        help="'drrp' for a single observed DRRP solve, or an experiment id (fig10, ...)",
    )
    p_run.add_argument(
        "--trace", default=None, metavar="FILE",
        help="write a Chrome trace-event file (open in ui.perfetto.dev)",
    )
    p_run.add_argument(
        "--out-dir", default=None, metavar="DIR",
        help="write manifest.json + events.jsonl (+ default trace) here",
    )
    p_run.add_argument("--seed", type=int, default=None, help="override the run's seed")
    p_run.add_argument("--vm", default="m1.large", help="VM class for 'drrp' (default m1.large)")
    p_run.add_argument(
        "--horizon", type=int, default=None,
        help="planning horizon in slots (drrp default 24; experiments keep their own default)",
    )
    p_run.add_argument(
        "--backend", default=None,
        help=backend_help,
    )
    p_run.add_argument(
        "--trials", type=int, default=None,
        help="n_trials override for experiment runners that accept it",
    )
    p_run.add_argument(
        "--time-limit", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget for the 'drrp' solve",
    )

    p_an = sub.add_parser("analyze", help="spot-price predictability summary")
    p_an.add_argument("--vm", default="c1.medium")

    p_sim = sub.add_parser(
        "simulate",
        help="rolling-horizon policy bake-off, or a closed-loop campaign (--campaign)",
    )
    p_sim.add_argument("--vm", default="c1.medium")
    p_sim.add_argument("--hours", type=int, default=24, help="evaluation window (h)")
    p_sim.add_argument("--lookahead", type=int, default=6)
    p_sim.add_argument("--seed", type=int, default=2012)
    p_sim.add_argument(
        "--campaign", action="store_true",
        help="closed-loop campaign mode (repro.sim): replan every control "
             "interval over a multi-resolution window; other flags below "
             "apply only in this mode",
    )
    p_sim.add_argument("--slots", type=int, default=720,
                       help="campaign evaluation slots (default 720)")
    p_sim.add_argument("--estimation-slots", type=int, default=1440,
                       help="price history ahead of the campaign (default 1440)")
    p_sim.add_argument("--prediction", type=int, default=48,
                       help="replan lookahead in slots (default 48)")
    p_sim.add_argument("--control", type=int, default=24,
                       help="slots executed per replan (default 24)")
    p_sim.add_argument("--fine", type=int, default=None,
                       help="single-slot-resolution prefix (default: control)")
    p_sim.add_argument("--coarse-block", type=int, default=4,
                       help="slots per far-term aggregate block (default 4)")
    p_sim.add_argument("--backend", default="auto",
                       help="solver backend for campaign replans (default auto)")
    p_sim.add_argument("--interruption-loss", type=float, default=0.0,
                       help="work lost per out-of-bid event, fraction of the slot")
    p_sim.add_argument(
        "--policies", default="oracle,no-plan,rolling-drrp",
        help="comma-separated campaign roster (oracle, no-plan, on-demand, "
             "rolling-drrp, rolling-drrp-service, bid-fixed, bid-od-index, "
             "bid-percentile, bid-rebid)",
    )
    p_sim.add_argument(
        "--bid-policy", default=None, metavar="KIND",
        choices=("fixed", "od-index", "percentile", "rebid"),
        help="add a bid-reactive planner (repro.market.policy) to the roster: "
             "fixed, od-index, percentile, or rebid",
    )
    p_sim.add_argument(
        "--bid", type=float, default=None, metavar="VALUE",
        help="parameter for the bid policies: the bid in $/h (fixed), the "
             "on-demand fraction (od-index), or the availability target "
             "(percentile, rebid)",
    )
    p_sim.add_argument("--service", default=None, metavar="URL",
                       help="route rolling-drrp-service replans to this server")
    p_sim.add_argument(
        "--with-service", action="store_true",
        help="start an in-process planning server for the campaign and add "
             "rolling-drrp-service to the roster",
    )
    p_sim.add_argument("--manifest", default=None, metavar="FILE",
                       help="write the campaign RunManifest as JSON")
    p_sim.add_argument("--json", default=None, metavar="FILE", dest="out_json",
                       help="write the full campaign record (costs, ratios) as JSON")
    p_sim.add_argument(
        "--trace-dir", default=None, metavar="DIR",
        help="campaign mode: record per-process event files under DIR "
             "(campaign + per-job service captures), merge them into "
             "DIR/merged.trace.json, and save a Prometheus /metrics scrape",
    )

    p_rep = sub.add_parser(
        "report", help="regenerate paper figures, or render a recorded trace/manifest file"
    )
    p_rep.add_argument(
        "experiments", nargs="*",
        help="experiment ids (default: all) — or paths to .trace.json / manifest.json / "
             "events.jsonl files written by 'run' or 'fuzz'",
    )

    p_exp = sub.add_parser("export-dataset", help="write reference traces as CSV")
    p_exp.add_argument("directory", help="output directory")

    p_fuzz = sub.add_parser("fuzz", help="differential-fuzz the solver stack")
    p_fuzz.add_argument("--seed", type=int, default=0, help="generator seed (default 0)")
    p_fuzz.add_argument(
        "--cases", type=int, default=None, metavar="N",
        help="maximum generated instances (default: smoke preset)",
    )
    p_fuzz.add_argument(
        "--time-limit", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget for the whole campaign",
    )
    p_fuzz.add_argument(
        "--smoke", action="store_true",
        help="CI smoke preset: the standard case count under a 60 s budget",
    )
    p_fuzz.add_argument(
        "--families", default=None,
        help="comma-separated generator families (default: all)",
    )
    p_fuzz.add_argument(
        "--out-dir", default=None, metavar="DIR",
        help="persist shrunk reproducers for any disagreement here",
    )
    p_fuzz.add_argument(
        "--no-shrink", action="store_true",
        help="keep disagreement witnesses at generated size",
    )
    p_fuzz.add_argument(
        "--telemetry", choices=("summary", "json"), default=None,
        help="record fuzz/solve events: 'summary' prints one line, 'json' dumps the stream",
    )
    p_fuzz.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="shard the campaign over N processes (events merge into one stream)",
    )
    p_fuzz.add_argument(
        "--trace", default=None, metavar="FILE",
        help="write a Chrome trace-event file of the campaign",
    )
    p_fuzz.add_argument(
        "--manifest", default=None, metavar="FILE",
        help="write a run manifest (seed/config/result digest) as JSON",
    )

    p_srv = sub.add_parser("serve", help="run the planning service (HTTP)")
    p_srv.add_argument("--host", default="127.0.0.1", help="bind address (default 127.0.0.1)")
    p_srv.add_argument("--port", type=int, default=8080, help="port (default 8080; 0 = ephemeral)")
    p_srv.add_argument("--workers", type=int, default=2,
                       help="solver worker threads, also the number of solve slots (default 2)")
    p_srv.add_argument("--queue-size", type=int, default=64,
                       help="bounded job queue capacity (default 64)")
    p_srv.add_argument("--cache-size", type=int, default=512,
                       help="plan cache entries (default 512; 0 disables)")
    p_srv.add_argument(
        "--time-limit", type=float, default=60.0, metavar="SECONDS",
        help="default per-job budget, queue wait included (default 60; 0 = unbounded)",
    )
    p_srv.add_argument(
        "--capture-dir", default=None, metavar="DIR",
        help="write per-job manifest.json + events.jsonl under DIR/<job id>/",
    )

    p_sub = sub.add_parser("submit", help="submit one job to a running planning service")
    p_sub.add_argument("--url", default="http://127.0.0.1:8080", help="service base URL")
    p_sub.add_argument("--vm", default="m1.large", help="VM class (default m1.large)")
    p_sub.add_argument("--horizon", type=int, default=24, help="slots to plan (default 24)")
    p_sub.add_argument("--seed", type=int, default=0, help="demand seed")
    p_sub.add_argument("--demand-mean", type=float, default=0.4, help="GB/h demand mean")
    p_sub.add_argument("--demand-std", type=float, default=0.2, help="GB/h demand std")
    p_sub.add_argument("--backend", default="auto", help=backend_help)
    p_sub.add_argument("--time-limit", type=float, default=None, metavar="SECONDS",
                       help="per-job budget (server default when unset)")
    p_sub.add_argument("--wait-s", type=float, default=60.0,
                       help="synchronous wait before falling back to polling (default 60)")
    p_sub.add_argument("--no-wait", action="store_true",
                       help="submit asynchronously and print the job id only")
    p_sub.add_argument("--json", action="store_true", dest="as_json",
                       help="print the raw plan payload as JSON")

    p_pf = sub.add_parser(
        "plan-fleet",
        help="plan a seeded multi-tenant fleet against shared capacity pools",
    )
    p_pf.add_argument("--tenants", type=int, default=16,
                      help="fleet size (default 16)")
    p_pf.add_argument("--seed", type=int, default=0, help="population seed")
    p_pf.add_argument("--horizon", type=int, default=24,
                      help="slots to plan (default 24)")
    p_pf.add_argument("--utilization", type=float, default=0.6,
                      help="pool capacity as a fraction of members (default 0.6)")
    p_pf.add_argument("--backend", default="auto",
                      help="MILP backend for escalated tenants (default auto)")
    p_pf.add_argument("--workers", type=int, default=None,
                      help="per-tenant fan-out width (default: auto)")
    p_pf.add_argument("--json", action="store_true", dest="as_json",
                      help="print the full fleet summary as JSON")

    p_trace = sub.add_parser(
        "trace",
        help="merge per-process JSONL event files into one Chrome trace "
             "with cross-process flow arrows",
    )
    p_trace.add_argument(
        "paths", nargs="+",
        help="event files written with trace metadata, or directories to "
             "scan recursively for *.jsonl (e.g. a simulate --trace-dir)",
    )
    p_trace.add_argument("-o", "--out", default="merged.trace.json", metavar="FILE",
                         help="merged Chrome trace output (default merged.trace.json)")
    p_trace.add_argument("--label", default="repro", help="trace label (default repro)")

    p_prof = sub.add_parser(
        "profile",
        help="deterministic phase profiler: attribute wall time to solver "
             "phases and export speedscope JSON",
    )
    p_prof.add_argument(
        "target",
        help="a recorded events.jsonl (e.g. from 'run drrp --out-dir'), or "
             "'bench-solver' to profile the solver benchmark",
    )
    p_prof.add_argument("--seed", type=int, default=0, help="'bench-solver': instance seed")
    p_prof.add_argument("--node-limit", type=int, default=None,
                        help="'bench-solver': B&B node cap override")
    p_prof.add_argument("--scenarios", type=int, default=None,
                        help="'bench-solver': Benders scenario count override")
    p_prof.add_argument("--speedscope", default=None, metavar="FILE",
                        help="write a speedscope JSON profile (speedscope.app)")
    p_prof.add_argument("--json", default=None, metavar="FILE", dest="out_json",
                        help="write the phase profile as JSON")

    p_bench = sub.add_parser(
        "bench",
        help="run one benchmark family and gate its BENCH_<family>.json, or "
             "print the gated numbers of every record (report)",
    )
    p_bench.add_argument("family", choices=(*_BENCH_FAMILIES, "report"),
                         help="the benchmark to run, or 'report'")
    p_bench.add_argument(
        "--set", action="append", default=[], metavar="FIELD=VALUE", dest="settings",
        help="set a field of the family's config dataclass (repeatable), e.g. "
             "--set seed=1 --set out=BENCH_tiny.json (REPRO_BENCH_DIR honored)",
    )
    p_bench.add_argument("--check-against", default=None, metavar="BASELINE",
                         help="hold the fresh record to the family's rows of "
                              "repro.bench.gates against BASELINE; exit 1 on a failure")
    p_bench.add_argument("--dir", default=None, metavar="DIR",
                         help="report: directory holding the committed BENCH_*.json "
                              "(default .)")
    p_bench.add_argument("--fresh", default=None, metavar="DIR",
                         help="report: directory with fresh records (default: "
                              "REPRO_BENCH_DIR or bench-out/ when present)")

    return parser


def _cmd_plan(args) -> int:
    from repro.core import DRRPInstance, NormalDemand, on_demand_schedule, solve_drrp, solve_noplan
    from repro.market import ec2_catalog
    from repro.solver import EventRecorder

    catalog = ec2_catalog()
    if args.vm not in catalog:
        print(f"unknown VM class {args.vm!r}; choose from {sorted(catalog)}", file=sys.stderr)
        return 2
    vm = catalog[args.vm]
    demand = NormalDemand(mean=args.demand_mean, std=args.demand_std).sample(args.horizon, args.seed)
    inst = DRRPInstance(
        demand=demand, costs=on_demand_schedule(vm, args.horizon), vm_name=vm.name
    )
    solve_kwargs = {}
    recorder = None
    if args.telemetry:
        recorder = solve_kwargs["listener"] = EventRecorder()
    if args.time_limit is not None:
        solve_kwargs["time_limit"] = args.time_limit
        # WW seed guarantees an incumbent, so a tight budget still yields a plan
        solve_kwargs["warm_start"] = True
    try:
        plan = solve_drrp(inst, backend=args.backend, **solve_kwargs)
    except ValueError as exc:  # unknown backend, negative time limit, ...
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"no plan within the budget: {exc}", file=sys.stderr)
        if recorder is not None:
            print(recorder.summary_line(), file=sys.stderr)
        return 1
    base = solve_noplan(inst)
    print(f"{vm.name}: horizon {args.horizon}h, demand total {demand.sum():.2f} GB")
    print(f"no-plan cost ${base.total_cost:.2f} | DRRP cost ${plan.total_cost:.2f} "
          f"({1 - plan.total_cost / base.total_cost:.0%} saved)")
    if plan.status.value != "optimal":
        print(f"status: {plan.status.value} (best incumbent within the budget)")
    print("slot  demand  generate  store  rent")
    for t in range(args.horizon):
        print(
            f"{t:4d}  {demand[t]:6.2f}  {plan.alpha[t]:8.2f}  {plan.beta[t]:5.2f}  "
            f"{'RENT' if plan.chi[t] > 0.5 else '-'}"
        )
    if recorder is not None:
        if args.telemetry == "json":
            print(recorder.to_json(indent=2))
        print(recorder.summary_line())
    # Exit-code contract: 0 only for a proven optimum; a usable incumbent
    # under a budget (FEASIBLE/TIME_LIMIT) is 3 so scripts can tell.
    return 0 if plan.status.value == "optimal" else 3


def _run_drrp_observed(args) -> int:
    from repro.core import DRRPInstance, NormalDemand, on_demand_schedule, solve_drrp
    from repro.market import ec2_catalog
    from repro.obs import RunManifest, record_run

    catalog = ec2_catalog()
    if args.vm not in catalog:
        print(f"unknown VM class {args.vm!r}; choose from {sorted(catalog)}", file=sys.stderr)
        return 2
    vm = catalog[args.vm]
    horizon = args.horizon if args.horizon is not None else 24
    seed = args.seed if args.seed is not None else 0
    backend = args.backend or "auto"
    demand = NormalDemand().sample(horizon, seed)
    inst = DRRPInstance(demand=demand, costs=on_demand_schedule(vm, horizon), vm_name=vm.name)
    solve_kwargs = {}
    if args.time_limit is not None:
        solve_kwargs["time_limit"] = args.time_limit
        solve_kwargs["warm_start"] = True

    def manifest(plan, events) -> RunManifest:
        return RunManifest.from_run(
            "plan",
            f"drrp:{vm.name}/{horizon}",
            result={  # the replay-stable view of the plan
                "vm": vm.name,
                "horizon": horizon,
                "status": plan.status.value,
                "total_cost": float(plan.total_cost),
                "alpha": [float(x) for x in plan.alpha],
                "beta": [float(x) for x in plan.beta],
                "chi": [int(round(float(x))) for x in plan.chi],
            },
            seed=seed,
            config={"vm": vm.name, "horizon": horizon, "backend": backend,
                    "time_limit": args.time_limit},
            recorded_events=events,
            deadline_budget=args.time_limit,
            elapsed=events[-1].t if events else None,
        )

    try:
        run = record_run(
            lambda hub: solve_drrp(inst, backend=backend, listener=hub, **solve_kwargs),
            manifest, label=f"repro drrp {vm.name}", out_dir=args.out_dir,
            trace_path=args.trace, trace_name="drrp.trace.json",
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"no plan within the budget: {exc}", file=sys.stderr)
        return 1

    print(f"{vm.name}: horizon {horizon}h, DRRP cost ${run.result.total_cost:.2f} "
          f"(status {run.result.status.value})")
    _print_recorded_run(run)
    return 0


def _print_recorded_run(run) -> None:
    """The span tree / metrics report, manifest line and written paths."""
    from repro.obs import render_report as render_obs_report

    print()
    print(render_obs_report(run.roots, run.registry, run.markers))
    print()
    print(run.manifest.summary_line())
    for label, path in (("manifest", run.manifest_path), ("events", run.events_path),
                        ("trace", run.trace_path)):
        if path is not None:
            print(f"{label}: {path}")


def _cmd_run(args) -> int:
    if args.target == "drrp":
        return _run_drrp_observed(args)

    import inspect

    from repro.experiments.report import ALL_EXPERIMENTS, run_instrumented

    if args.target not in ALL_EXPERIMENTS:
        print(
            f"unknown run target {args.target!r}; choose 'drrp' or one of "
            f"{sorted(ALL_EXPERIMENTS)}",
            file=sys.stderr,
        )
        return 2
    params = inspect.signature(ALL_EXPERIMENTS[args.target]).parameters
    overrides = {"seed": args.seed, "horizon": args.horizon,
                 "backend": args.backend, "n_trials": args.trials}
    kwargs = {k: v for k, v in overrides.items() if v is not None}
    ignored = sorted(set(kwargs) - set(params))
    if ignored:
        print(f"note: {args.target} does not take {', '.join(ignored)}; ignored",
              file=sys.stderr)
        kwargs = {k: v for k, v in kwargs.items() if k in params}
    run = run_instrumented(args.target, out_dir=args.out_dir, trace_path=args.trace, **kwargs)
    print(run.result.to_text())
    _print_recorded_run(run)
    return 0


def _cmd_analyze(args) -> int:
    from repro.market import paper_window, reference_dataset
    from repro.stats import iqr_outliers, shapiro_wilk
    from repro.timeseries import adf_test, correlogram

    dataset = reference_dataset()
    if args.vm not in dataset:
        print(f"unknown VM class {args.vm!r}; choose from {sorted(dataset)}", file=sys.stderr)
        return 2
    trace = dataset[args.vm]
    _, stats = iqr_outliers(trace.prices)
    window = paper_window(trace)
    sw = shapiro_wilk(window.estimation)
    adf = adf_test(window.estimation)
    cg = correlogram(window.estimation, 30)
    print(f"{args.vm}: {trace.n_updates} updates over {trace.duration_hours / 24:.0f} days")
    print(f"median ${stats.median:.3f}, IQR ${stats.iqr:.3f}, outliers {stats.outlier_fraction:.2%}")
    print(f"analysis window: n={window.estimation.size}, "
          f"Shapiro-Wilk p={sw.p_value:.2e} ({'non-normal' if sw.rejects_normality() else 'normal'})")
    print(f"ADF stat {adf.statistic:.2f} -> {'stationary' if adf.rejects_unit_root() else 'unit root'}")
    print(f"max |ACF| {cg.max_abs_acf():.3f} (95% band ±{cg.confidence_limit:.3f}) — "
          "weak memory: day-ahead prediction is unreliable (see fig8)")
    return 0


def _cmd_simulate_campaign(args) -> int:
    import json
    from pathlib import Path

    from repro.sim import CampaignConfig, HorizonConfig, run_campaign

    policies = tuple(p.strip() for p in args.policies.split(",") if p.strip())
    if args.with_service and "rolling-drrp-service" not in policies:
        policies = policies + ("rolling-drrp-service",)
    if args.bid_policy and f"bid-{args.bid_policy}" not in policies:
        policies = policies + (f"bid-{args.bid_policy}",)
    try:
        config = CampaignConfig(
            vm=args.vm,
            slots=args.slots,
            estimation_slots=args.estimation_slots,
            seed=args.seed,
            horizon=HorizonConfig(
                prediction=args.prediction,
                control=args.control,
                fine=args.fine,
                coarse_block=args.coarse_block,
            ),
            backend=args.backend,
            interruption_loss=args.interruption_loss,
            lookahead=args.lookahead,
            policies=policies,
            bid_value=args.bid,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    service = httpd = None
    service_url = args.service
    trace_dir = Path(args.trace_dir) if args.trace_dir else None
    if trace_dir is not None:
        trace_dir.mkdir(parents=True, exist_ok=True)
    if args.with_service:
        from repro.service import ServiceConfig, serve

        svc_config = ServiceConfig(
            workers=2,
            capture_dir=str(trace_dir / "service") if trace_dir is not None else None,
        )
        service, httpd = serve(port=0, config=svc_config, block=False)
        service_url = f"http://127.0.0.1:{httpd.server_address[1]}"
    prom_text = None
    try:
        result = run_campaign(config, service_url=service_url)
        if trace_dir is not None and service_url is not None:
            import urllib.request

            try:  # scrape while the server is still up
                with urllib.request.urlopen(
                    service_url + "/metrics?format=prom", timeout=10
                ) as resp:
                    prom_text = resp.read().decode()
            except OSError:
                prom_text = None
    except ValueError as exc:  # unknown VM class or policy name
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if httpd is not None:
            httpd.shutdown()
            httpd.server_close()
            service.close()

    for line in result.summary_lines():
        print(line)
    if trace_dir is not None:
        from repro.obs.propagate import (
            collect_event_files,
            write_merged_trace,
            write_process_events,
        )

        write_process_events(
            trace_dir / "campaign.events.jsonl", result.events,
            label="campaign", trace=result.trace, wall_t0=result.wall_t0,
        )
        files = collect_event_files(trace_dir)
        merged = write_merged_trace(trace_dir / "merged.trace.json", files,
                                    label=f"campaign {config.vm}")
        print(f"trace: {merged} ({len(files)} process files)")
        if prom_text:
            (trace_dir / "metrics.prom").write_text(prom_text)
            print(f"metrics: {trace_dir / 'metrics.prom'}")
    print(result.manifest.summary_line())
    if args.manifest:
        print(f"manifest: {result.manifest.write(args.manifest)}")
    if args.out_json:
        record = {
            "config": config.jsonable(),
            "service_routed": service_url is not None,
            "elapsed_s": result.elapsed,
            **result.result_payload(),
        }
        Path(args.out_json).write_text(
            json.dumps(record, indent=2, sort_keys=True) + "\n"
        )
        print(f"record: {args.out_json}")
    degraded = sum(o.degraded_plans for o in result.outcomes.values())
    return 3 if degraded else 0


def _cmd_simulate(args) -> int:
    if args.campaign:
        return _cmd_simulate_campaign(args)

    from datetime import date

    from repro.core import NormalDemand, Planner
    from repro.market import hourly_series, hours_since_epoch, paper_window, reference_dataset

    dataset = reference_dataset()
    if args.vm not in dataset:
        print(f"unknown VM class {args.vm!r}; choose from {sorted(dataset)}", file=sys.stderr)
        return 2
    trace = dataset[args.vm]
    history = paper_window(trace).estimation
    start = hours_since_epoch(date(2011, 2, 1))
    realized = hourly_series(trace, start, start + args.hours)
    demand = NormalDemand().sample(args.hours, args.seed)
    planner = Planner(args.vm)
    comparison = planner.evaluate_policies(realized, demand, history, lookahead=args.lookahead)
    over = comparison.overpay_percentages()
    print(f"{args.vm}: {args.hours}h from Feb 1 2011; ideal cost ${comparison.ideal_cost:.3f}")
    for name in sorted(comparison.results, key=lambda k: comparison.results[k].total_cost):
        res = comparison.results[name]
        print(f"  {name:14s} ${res.total_cost:8.3f}  overpay {over[name]:6.1f}%  "
              f"out-of-bid {res.out_of_bid_events}")
    return 0


def _render_recorded_file(path) -> tuple[str, int]:
    """Render one recorded artifact (trace / manifest / event log) to text.

    Returns ``(text, exit_code)``; dispatches on content, not extension.
    """
    import json

    from repro.obs import (
        MetricsAggregator,
        MetricsRegistry,
        RunManifest,
        Tracer,
        load_chrome_trace,
        read_process_events,
        render_report as render_obs_report,
    )
    from repro.solver.telemetry import SolveEvent

    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError:
        doc = None  # maybe JSONL
    if isinstance(doc, dict) and "traceEvents" in doc:
        roots, markers = load_chrome_trace(path)
        return f"== {path} (chrome trace) ==\n" + render_obs_report(roots, None, markers), 0
    if isinstance(doc, dict) and "result_digest" in doc:
        man = RunManifest.load(path)
        lines = [
            f"== {path} (run manifest) ==",
            man.summary_line(),
            f"config: {json.dumps(man.config, sort_keys=True)}",
            f"versions: {json.dumps(man.versions, sort_keys=True)}",
        ]
        if man.deadline_budget is not None:
            lines.append(f"deadline_budget: {man.deadline_budget}s")
        if man.elapsed is not None:
            lines.append(f"elapsed: {man.elapsed:.3f}s")
        lines.append(f"events: {json.dumps(man.events, sort_keys=True)}")
        lines.append(f"result_digest: {man.result_digest}")
        return "\n".join(lines), 0
    if isinstance(doc, list):  # EventRecorder.to_json dump
        events = [
            SolveEvent(kind=o.pop("kind"), t=float(o.pop("t")), data=o) for o in doc
        ]
    else:
        try:
            _, events = read_process_events(path)
        except (json.JSONDecodeError, KeyError, ValueError, OSError):
            return f"error: {path} is not a trace, manifest, or event log", 2
    registry = MetricsRegistry()
    tracer = Tracer()
    aggregator = MetricsAggregator(registry)
    for ev in events:
        tracer.on_event(ev)
        aggregator.on_event(ev)
    roots = tracer.finish()
    return (
        f"== {path} (event log) ==\n" + render_obs_report(roots, registry, tracer.markers),
        0,
    )


def _cmd_report(args) -> int:
    from pathlib import Path

    paths = [Path(a) for a in args.experiments]
    if paths and all(p.is_file() for p in paths):
        status = 0
        for i, path in enumerate(paths):
            if i:
                print()
            text, code = _render_recorded_file(path)
            print(text, file=sys.stderr if code else sys.stdout)
            status = max(status, code)
        return status

    from repro.experiments.report import render_report, run_all

    try:
        results = run_all(args.experiments or None)
    except ValueError as exc:
        print(f"error: {exc} (file paths render recorded runs, but every "
              f"argument must then be an existing file)", file=sys.stderr)
        return 2
    print(render_report(results))
    return 0


def _cmd_export(args) -> int:
    from repro.market import reference_dataset, traces_to_csv_dir

    paths = traces_to_csv_dir(reference_dataset(), args.directory)
    for p in paths:
        print(p)
    return 0


def _cmd_fuzz(args) -> int:
    import math

    from repro.solver import EventRecorder, Telemetry
    from repro.verify import FAMILIES, SMOKE_CASES, FuzzConfig, run_fuzz, run_fuzz_parallel

    families = tuple(FAMILIES)
    if args.families:
        families = tuple(f.strip() for f in args.families.split(",") if f.strip())
        unknown = set(families) - set(FAMILIES)
        if unknown:
            print(
                f"unknown families {sorted(unknown)}; choose from {sorted(FAMILIES)}",
                file=sys.stderr,
            )
            return 2
    cases = args.cases if args.cases is not None else SMOKE_CASES
    budget = args.time_limit if args.time_limit is not None else math.inf
    if args.smoke:
        budget = min(budget, 60.0)
    recorder = tracer = listener = None
    if args.telemetry or args.trace or args.manifest:
        recorder = EventRecorder()
        listener = recorder
        if args.trace:
            from repro.obs import Tracer

            tracer = Tracer()
            listener = Telemetry(listeners=[recorder, tracer])
    config = FuzzConfig(
        seed=args.seed,
        max_cases=cases,
        budget=budget,
        families=families,
        out_dir=args.out_dir,
        shrink=not args.no_shrink,
    )
    if args.workers is not None and args.workers > 1:
        report = run_fuzz_parallel(config, n_workers=args.workers, listener=listener)
    else:
        report = run_fuzz(config, listener=listener)
    print(report.summary_line())
    for fam, tally in report.by_family.items():
        print(
            f"  {fam:14s} cases={tally['cases']:4d} certified={tally['certified']:4d} "
            f"disagreements={tally['disagreements']}"
        )
    for d in report.disagreements:
        print(f"  DISAGREEMENT {d.family}/{d.kind}: {d.detail}", file=sys.stderr)
    for path in report.reproducer_files:
        print(f"  reproducer: {path}", file=sys.stderr)
    if recorder is not None:
        if args.telemetry == "json":
            print(recorder.to_json(indent=2))
        if args.telemetry:
            print(recorder.summary_line())
    if tracer is not None:
        from repro.obs import write_chrome_trace

        roots = tracer.finish()
        print(f"trace: {write_chrome_trace(args.trace, roots, tracer.markers, label='repro fuzz')}")
    if args.manifest:
        from repro.obs import RunManifest

        manifest = RunManifest.from_run(
            "fuzz",
            "smoke" if args.smoke else "campaign",
            result=report.digest_dict(),
            seed=args.seed,
            config={
                "cases": cases, "families": list(families),
                "shrink": not args.no_shrink, "workers": args.workers,
            },
            recorded_events=recorder.events,
            deadline_budget=None if math.isinf(budget) else budget,
            elapsed=report.elapsed,
        )
        manifest.write(args.manifest)
        print(manifest.summary_line())
        print(f"manifest: {args.manifest}")
    # 1 = disagreement/failure; 3 = clean but deadline-truncated (partial
    # evidence); 0 = the full configured campaign ran clean.
    if not report.ok:
        return 1
    return 3 if report.stopped_by == "deadline" else 0


def _cmd_serve(args) -> int:
    from repro.service import ServiceConfig, serve

    try:
        config = ServiceConfig(
            workers=args.workers,
            queue_size=args.queue_size,
            cache_size=args.cache_size,
            default_time_limit=args.time_limit if args.time_limit > 0 else None,
            capture_dir=args.capture_dir,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"planning service on http://{args.host}:{args.port} "
          f"(workers={config.workers}, queue={config.queue_size}, "
          f"cache={config.cache_size}) — Ctrl-C to stop", flush=True)
    serve(host=args.host, port=args.port, config=config, block=True)
    return 0


def _cmd_submit(args) -> int:
    import json

    from repro.service import Saturated, ServiceClient, ServiceError

    client = ServiceClient(args.url, timeout=args.wait_s + 30.0)
    payload = {
        "kind": "drrp",
        "vm": args.vm,
        "horizon": args.horizon,
        "seed": args.seed,
        "demand_mean": args.demand_mean,
        "demand_std": args.demand_std,
        "backend": args.backend,
    }
    if args.time_limit is not None:
        payload["time_limit"] = args.time_limit
    try:
        if args.no_wait:
            result = client.submit(payload)
            print(f"job {result.job_id}: {result.state}"
                  + (" (cached)" if result.cached else ""))
            if result.plan is None:
                return 0
        else:
            result = client.solve(payload, wait_s=args.wait_s)
    except Saturated as exc:
        print(f"server saturated (HTTP {exc.status}); retry after {exc.retry_after:g}s",
              file=sys.stderr)
        return 1
    except (ServiceError, OSError, TimeoutError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        client.close()
    plan = result.plan
    if args.as_json:
        print(json.dumps(plan, indent=2, sort_keys=True))
    else:
        hit = " [cache hit]" if result.hit else ""
        degraded = f" [degraded: {result.degraded}]" if result.degraded else ""
        print(f"job {result.job_id}: {plan['status']}{hit}{degraded}")
        cost = plan.get("total_cost", plan.get("expected_cost"))
        rent = sum(1 for x in plan.get("chi", []) if x)
        print(f"{args.vm}: horizon {args.horizon}h, cost ${cost:.2f}, "
              f"rent slots {rent}/{len(plan.get('chi', []))}")
    if result.degraded or plan["status"] != "optimal":
        return 3
    return 0


def _cmd_plan_fleet(args) -> int:
    import json

    from repro.fleet import FleetConfig, generate_tenants, plan_fleet, uniform_pools

    try:
        tenants = generate_tenants(args.tenants, seed=args.seed, horizon=args.horizon)
        pools = uniform_pools(tenants, utilization=args.utilization)
        fleet = plan_fleet(tenants, pools,
                           FleetConfig(backend=args.backend, workers=args.workers))
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    summary = fleet.summary(tenants)
    if args.as_json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        print(
            f"fleet: {summary['tenants']} tenants over {args.horizon} slots, "
            f"total cost {summary['total_cost']:.4f}"
        )
        print(
            f"methods: {summary['methods']}, escalated {summary['escalated']} "
            f"({summary['escalation_fraction']:.1%}), "
            f"{summary['repair_rounds']} repair rounds, "
            f"{summary['knockouts']} knockouts"
        )
        for name, pool in sorted(summary["pools"].items()):
            print(
                f"pool {name}: capacity {pool['capacity_min']:.0f}"
                f"..{pool['capacity_max']:.0f}, peak usage {pool['peak_usage']:.0f}"
            )
        print(f"feasible: {summary['feasible']}")
    if not summary["feasible"]:
        for failure in summary["failures"][:5]:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    return 0


def _cmd_trace(args) -> int:
    import json
    from pathlib import Path

    from repro.obs.propagate import collect_event_files, write_merged_trace

    files: list[Path] = []
    for raw in args.paths:
        p = Path(raw)
        if p.is_dir():
            files.extend(collect_event_files(p))
        elif p.is_file():
            files.append(p)
        else:
            print(f"error: {p} is neither a file nor a directory", file=sys.stderr)
            return 2
    files = list(dict.fromkeys(files))
    if not files:
        print("error: no *.jsonl event files found", file=sys.stderr)
        return 2
    path = write_merged_trace(args.out, files, label=args.label)
    doc = json.loads(Path(path).read_text())
    ids = doc.get("otherData", {}).get("trace_ids", [])
    flows = sum(1 for e in doc.get("traceEvents", []) if e.get("ph") == "s")
    print(f"merged {len(files)} process files -> {path}")
    print(f"trace ids: {', '.join(ids) if ids else '(none)'}; flow arrows: {flows}")
    return 0


def _cmd_profile(args) -> int:
    import json
    from pathlib import Path

    from repro.obs.prof import parent_clock_spans, profile_spans, write_speedscope
    from repro.solver import EventRecorder

    target = args.target
    recorder = EventRecorder()
    if target == "bench-solver":
        from repro.bench import SolverBenchConfig, run_solver_bench

        overrides = {}
        if args.node_limit is not None:
            overrides["node_limit"] = args.node_limit
        if args.scenarios is not None:
            overrides["scenarios"] = args.scenarios
        try:
            cfg = SolverBenchConfig(seed=args.seed, out=None, **overrides)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        try:
            run_solver_bench(cfg, listener=recorder)
        except (ValueError, RuntimeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        events = recorder.events
        name = "repro bench-solver"
    else:
        path = Path(target)
        if not path.is_file():
            print(f"error: profile target {target!r} is not 'bench-solver' "
                  f"or an event file", file=sys.stderr)
            return 2
        from repro.obs.propagate import read_process_events

        meta, events = read_process_events(path)
        name = (meta or {}).get("label") or path.name

    roots, markers = parent_clock_spans(events)
    prof = profile_spans(roots, markers)
    print(prof.render())
    if args.out_json:
        Path(args.out_json).write_text(
            json.dumps(prof.to_dict(), indent=2, sort_keys=True) + "\n"
        )
        print(f"profile: {args.out_json}")
    if args.speedscope:
        print(f"speedscope: {write_speedscope(args.speedscope, roots, name=name)}")
    # The bench wraps every leg in one root span, so essentially all wall
    # time must land in a named bucket; a big hole means instrumentation
    # regressed somewhere under the bench.
    if target == "bench-solver" and not prof.coverage >= 0.95:
        print(f"FAIL: profiler attributed only {prof.coverage:.0%} of the "
              f"bench wall time (need >= 95%)", file=sys.stderr)
        return 1
    return 0


#: ``repro bench`` families: the module holding each family's config
#: dataclass, runner and summary (its ``out`` field names the record,
#: ``BENCH_<family>.json``), and whether its gates run with no baseline.
_BENCH_FAMILIES = {
    "solver": ("repro.bench.solver", "SolverBenchConfig", "run_solver_bench",
               "summary_lines", False),
    "fleet": ("repro.bench.fleet", "FleetBenchConfig", "run_fleet_bench",
              "fleet_summary_lines", False),
    "sim": ("repro.sim.bench", "SimBenchConfig", "run_sim_bench", "summary_lines", False),
    "service": ("repro.service.loadgen", "LoadgenConfig", "run_loadgen",
                "summary_line", True),
}


def _bench_config(config_cls, settings: list[str]):
    """``config_cls`` with each ``FIELD=VALUE`` of ``settings`` applied,
    the value parsed as the field's declared type.  Raises
    ``ValueError`` naming the bad setting."""
    import dataclasses
    import typing

    hints = typing.get_type_hints(config_cls)
    names = [f.name for f in dataclasses.fields(config_cls)]
    values = {}
    for setting in settings:
        name, sep, raw = setting.partition("=")
        if not sep or name not in names:
            raise ValueError(f"--set {setting}: expected FIELD=VALUE with FIELD "
                             f"one of {', '.join(names)}")
        # ``int | None`` parses as int: the default is the only None.
        kind = next(k for k in typing.get_args(hints[name]) or (hints[name],)
                    if k is not type(None))
        try:
            values[name] = kind(raw)
        except ValueError:
            raise ValueError(
                f"--set {setting}: {name} takes {kind.__name__}, not {raw!r}"
            ) from None
    return config_cls(**values)


def _cmd_bench(args) -> int:
    import importlib
    import json
    import os
    from pathlib import Path

    if args.family == "report":
        if args.settings or args.check_against:
            print("error: bench report takes only --dir and --fresh", file=sys.stderr)
            return 2
        from repro.bench.report import report_lines

        fresh = args.fresh
        if fresh is None:
            env = os.environ.get("REPRO_BENCH_DIR")
            if env and Path(env).is_dir():
                fresh = env
            elif Path("bench-out").is_dir():
                fresh = "bench-out"
        for line in report_lines(args.dir or ".", fresh):
            print(line)
        return 0
    if args.dir is not None or args.fresh is not None:
        print("error: --dir and --fresh apply only to bench report", file=sys.stderr)
        return 2

    from repro.bench.gates import check_record

    module, config_name, runner, summary, alone = _BENCH_FAMILIES[args.family]
    module = importlib.import_module(module)
    try:
        config = _bench_config(getattr(module, config_name), args.settings)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        record = getattr(module, runner)(config)
    except RuntimeError as exc:  # a leg failed or its answers disagreed
        print(f"error: {exc}", file=sys.stderr)
        return 1
    lines = getattr(module, summary)(record)
    for line in [lines] if isinstance(lines, str) else lines:
        print(line)
    if "path" in record:
        print(f"record: {record['path']}")
    # The baseline is read after the run, so it may be the record just written.
    baseline = None
    if args.check_against:
        baseline_path = Path(args.check_against)
        if not baseline_path.is_file():
            print(f"error: baseline {baseline_path} not found", file=sys.stderr)
            return 2
        baseline = json.loads(baseline_path.read_text())
    elif not alone:
        return 0
    failures = check_record(record, baseline)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if failures:
        return 1
    if baseline is not None:
        print(f"regression gate passed against {args.check_against}")
    return 0


_COMMANDS = {
    "plan": _cmd_plan,
    "run": _cmd_run,
    "analyze": _cmd_analyze,
    "simulate": _cmd_simulate,
    "report": _cmd_report,
    "export-dataset": _cmd_export,
    "fuzz": _cmd_fuzz,
    "serve": _cmd_serve,
    "submit": _cmd_submit,
    "plan-fleet": _cmd_plan_fleet,
    "trace": _cmd_trace,
    "profile": _cmd_profile,
    "bench": _cmd_bench,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
