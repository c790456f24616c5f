"""The program's layers: where the traced run wraps them, and the per-layer
metrics it derives from the spans.

Each patch is ``(target, layer, op, after, link)``; ``target`` names the
attribute the *caller* resolves at call time (``module:Attr``), ``after``
updates counters from the return value, ``link`` names a cross-process
parent (server side only).
"""

from __future__ import annotations

from collections import Counter

from common import percentile


def _presolve_after(tracer, res, args, kwargs):
    tracer.add("solver.presolve.rows_removed", res.rows_removed)


def _bb_after(tracer, res, args, kwargs):
    tracer.add("solver.branch_bound.nodes", res.nodes)


def _simplex_after(tracer, res, args, kwargs):
    tracer.add("solver.simplex.pivots", res.iterations)
    warm = res.extra.get("warm") if isinstance(res.extra, dict) else None
    if warm and warm.get("used"):
        tracer.add("solver.simplex.warm_used")


def _cache_get_after(tracer, res, args, kwargs):
    tracer.add("service.cache.hits" if res is not None else "service.cache.misses")


def _submit_link(args, kwargs):
    trace = kwargs.get("trace")
    return trace.span_id if trace is not None else None


#: Layers every planning path shares: model build, compile, digests,
#: presolve and the backends.
SOLVER = [
    ("repro.core.drrp:build_drrp_model", "core.drrp", "build", None, None),
    ("repro.core.drrp:solve", "solver.interface", "solve", None, None),
    ("repro.core.srrp:build_srrp_model", "core.srrp", "build", None, None),
    ("repro.core.srrp:solve", "solver.interface", "solve", None, None),
    ("repro.solver.model:Model.compile", "solver.model", "compile", None, None),
    ("repro.serialize:result_digest", "serialize", "result_digest", None, None),
    ("repro.serialize:canonical_json", "serialize", "canonical_json", None, None),
    ("repro.service.encoding:result_digest", "serialize", "result_digest", None, None),
    ("repro.obs.manifest:result_digest", "serialize", "result_digest", None, None),
    ("repro.solver.interface:presolve", "solver.presolve", "presolve", _presolve_after, None),
    ("repro.solver.interface:solve_milp_scipy", "solver.scipy_backend", "milp", None, None),
    ("repro.solver.interface:solve_lp_scipy", "solver.scipy_backend", "lp", None, None),
    ("repro.solver.interface:branch_and_bound", "solver.branch_bound", "branch_and_bound",
     _bb_after, None),
    ("repro.solver.interface:solve_lp_simplex", "solver.simplex", "lp", _simplex_after, None),
]

FLEET = [
    ("repro.fleet.planner:plan_fleet", "fleet.planner", "plan_fleet", None, None),
    ("repro.fleet.planner:solve_heuristic", "fleet.heuristic", "solve_heuristic", None, None),
    ("repro.fleet.planner:pool_usage", "fleet.pool", "pool_usage", None, None),
    ("repro.fleet.planner:pool_excess", "fleet.pool", "pool_excess", None, None),
    ("repro.fleet.planner:verify_fleet_feasible", "fleet.pool", "verify", None, None),
    ("repro.fleet.planner:fleet_cost", "fleet.pool", "fleet_cost", None, None),
    ("repro.fleet.planner:solve_drrp", "core.drrp", "solve", None, None),
] + SOLVER

CAMPAIGN = [
    ("repro.sim.engine:run_campaign", "sim.engine", "run_campaign", None, None),
    ("repro.sim.engine:simulate_policy", "core.rolling", "simulate_policy", None, None),
    ("repro.sim.policies:RollingHorizonPolicy.decide", "sim.policies", "decide", None, None),
    ("repro.sim.policies:aggregate_window", "sim.horizon", "aggregate_window", None, None),
    ("repro.market.auction:MeanBids.bids", "market.auction", "bids", None, None),
    ("repro.sim.policies:solve_drrp", "core.drrp", "solve", None, None),
] + SOLVER

#: Server-process patches (installed by the launcher); ``_run_job`` gets a
#: hand-written wrapper there because it also records the queue wait.
SERVER = [
    ("repro.service.server:PlanningService.submit", "service.server", "submit", None,
     _submit_link),
    ("repro.service.server:normalize_request", "service.encoding", "normalize_request",
     None, None),
    ("repro.service.server:request_digest", "service.encoding", "request_digest", None, None),
    ("repro.service.cache:PlanCache.get", "service.cache", "get", _cache_get_after, None),
    ("repro.service.cache:PlanCache.put", "service.cache", "put", None, None),
    ("repro.service.executor:execute_request", "service.executor", "execute_request",
     None, None),
    ("repro.service.executor:build_instance", "service.encoding", "build_instance", None, None),
    ("repro.service.executor:plan_payload", "service.encoding", "plan_payload", None, None),
    ("repro.core:solve_drrp", "core.drrp", "solve", None, None),
    ("repro.core:solve_srrp", "core.srrp", "solve", None, None),
] + SOLVER

#: Layers reported as ``<layer>.self_s``; ``solver.model`` and ``serialize``
#: are reported as ``solver.model.compile_self_s`` and
#: ``serialize.digest_self_s`` instead.
LAYERS = (
    "fleet.planner", "fleet.heuristic", "fleet.pool",
    "sim.engine", "core.rolling", "sim.policies", "sim.horizon", "market.auction",
    "service.client", "service.server", "service.encoding", "service.cache",
    "service.executor",
    "core.drrp", "core.srrp", "solver.interface",
    "solver.presolve", "solver.scipy_backend", "solver.branch_bound", "solver.simplex",
)

#: Counts that must repeat exactly for one seed and one version of the code.
DETERMINISTIC = (
    "fleet.heuristic.calls", "fleet.planner.repair_rounds", "solver.model.compiles",
    "serialize.digest_calls", "solver.presolve.rows_removed", "solver.scipy_backend.calls",
    "solver.branch_bound.calls", "solver.branch_bound.nodes", "solver.simplex.lp_solves",
    "solver.simplex.pivots",
)

#: name -> unit of every per-layer metric, in report order.
PER_LAYER: dict[str, str] = {
    "fleet.heuristic.calls": "count",
    "fleet.heuristic.kept_share": "ratio",
    "fleet.planner.repair_rounds": "count",
    "fleet.planner.plans_per_tenant": "ratio",
    "core.drrp.build_self_s": "s",
    "solver.model.compiles": "count",
    "solver.model.compile_self_s": "s",
    "solver.model.shape_hit_rate": "ratio",
    "solver.model.digest_hit_rate": "ratio",
    "serialize.digest_calls": "count",
    "serialize.digest_self_s": "s",
    "solver.presolve.rows_removed": "count",
    "solver.scipy_backend.calls": "count",
    "solver.branch_bound.calls": "count",
    "solver.branch_bound.nodes": "count",
    "solver.simplex.lp_solves": "count",
    "solver.simplex.pivots": "count",
    "solver.simplex.warm_hit_rate": "ratio",
    "service.client.http_overhead_ms": "ms",
    "service.cache.hit_rate": "ratio",
    "service.cache.coalesced": "count",
    "service.server.queue_wait_p50_ms": "ms",
    "service.server.queue_wait_p90_ms": "ms",
    "service.server.rejected": "count",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "unattributed_share": "ratio",
    "trace_overhead_share": "ratio",
    "count_mismatches": "count",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_totals(owned: dict) -> Counter:
    """Attributed seconds per layer, from seconds per ``(layer, op)``."""
    totals = Counter()
    for (layer, _op), seconds in owned.items():
        totals[layer] += seconds
    return totals


def layer_metrics(spans, owned, unattributed, wall, counts, extra) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    ``owned`` maps ``(layer, op)`` to attributed seconds (see
    :func:`tracing.attribute`), ``counts`` holds the wrapper counters (client
    and server merged), ``extra`` the workload's own tallies: ``tenants``,
    ``repair_rounds``, ``compile`` (cache-counter deltas), ``coalesced``,
    ``rejected``, ``http_overhead_ms`` and ``overhead_share``.
    """
    calls = Counter((s.layer, s.op) for s in spans)
    by_id = {s.sid: s for s in spans}
    layer_s = layer_totals(owned)

    heuristic = calls[("fleet.heuristic", "solve_heuristic")]
    escalated = sum(
        1 for s in spans
        if (s.layer, s.op) == ("core.drrp", "solve")
        and s.parent in by_id and by_id[s.parent].layer == "fleet.planner"
    )
    compile_stats = extra.get("compile", {})
    structural = compile_stats.get("shape_hits", 0) + compile_stats.get("full_builds", 0)
    waits = sorted((s.end - s.start) * 1e3 for s in spans
                   if (s.layer, s.op) == ("service.server", "queue_wait"))
    overheads = extra.get("http_overhead_ms", [])
    lp_solves = calls[("solver.simplex", "lp")]

    m = {
        "fleet.heuristic.calls": heuristic,
        "fleet.heuristic.kept_share": _ratio(heuristic - escalated, heuristic),
        "fleet.planner.repair_rounds": extra.get("repair_rounds", 0),
        "fleet.planner.plans_per_tenant": _ratio(heuristic, extra.get("tenants", 0)),
        "core.drrp.build_self_s": owned.get(("core.drrp", "build"), 0.0),
        "solver.model.compiles": calls[("solver.model", "compile")],
        "solver.model.compile_self_s": owned.get(("solver.model", "compile"), 0.0),
        "solver.model.shape_hit_rate": _ratio(compile_stats.get("shape_hits", 0), structural),
        "solver.model.digest_hit_rate": _ratio(compile_stats.get("digest_hits", 0),
                                               compile_stats.get("compiles", 0)),
        "serialize.digest_calls": calls[("serialize", "result_digest")],
        "serialize.digest_self_s": layer_s["serialize"],
        "solver.presolve.rows_removed": counts.get("solver.presolve.rows_removed", 0),
        "solver.scipy_backend.calls": (calls[("solver.scipy_backend", "milp")]
                                       + calls[("solver.scipy_backend", "lp")]),
        "solver.branch_bound.calls": calls[("solver.branch_bound", "branch_and_bound")],
        "solver.branch_bound.nodes": counts.get("solver.branch_bound.nodes", 0),
        "solver.simplex.lp_solves": lp_solves,
        "solver.simplex.pivots": counts.get("solver.simplex.pivots", 0),
        "solver.simplex.warm_hit_rate": _ratio(counts.get("solver.simplex.warm_used", 0),
                                               lp_solves),
        "service.client.http_overhead_ms": percentile(overheads, 0.5) if overheads else 0.0,
        "service.cache.hit_rate": _ratio(
            counts.get("service.cache.hits", 0),
            counts.get("service.cache.hits", 0) + counts.get("service.cache.misses", 0)),
        "service.cache.coalesced": extra.get("coalesced", 0),
        "service.server.queue_wait_p50_ms": percentile(waits, 0.5) if waits else 0.0,
        "service.server.queue_wait_p90_ms": percentile(waits, 0.9) if waits else 0.0,
        "service.server.rejected": extra.get("rejected", 0),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_s[layer]
    m["unattributed_share"] = _ratio(unattributed, wall)
    m["trace_overhead_share"] = extra.get("overhead_share", 0.0)
    m["count_mismatches"] = 0
    return {name: float(m[name]) for name in PER_LAYER}
