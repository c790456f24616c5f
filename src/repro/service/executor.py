"""Job execution: normalized request -> plan payload.

The one place where the service touches the solver stack (numpy and,
optionally, scipy).  Everything here is imported lazily so the service
package itself stays stdlib-only to import.

Two paths:

:func:`execute_request`
    The real solve: builds the instance, maps the job's remaining wall
    budget onto the solver's :class:`~repro.solver.telemetry.Deadline`,
    and returns the JSON plan payload.  DRRP solves run warm-started so
    an expired budget still yields the Wagner-Whitin incumbent (status
    ``time_limit``) instead of an error; an SRRP solve falls back to the
    tree-DP policy the same way.

:func:`degraded_request`
    The overload/expiry fallback: polynomial-time planners only, no
    queueing and no MILP.  DRRP whose bottleneck never binds (none, or
    knocked-out slots beside caps that cannot bind) gets the masked
    Wagner-Whitin and SRRP the production-path tree DP (both exact, and
    an SRRP answer stays vertex-indexed like a solved one); any other
    capacitated DRRP gets the no-plan scheme when it fits every slot's
    cap.  The returned payload carries ``degraded`` naming the planner;
    a request no such planner can answer within its caps raises
    :class:`DegradeRefused`.
"""

from __future__ import annotations

from .encoding import build_instance, plan_payload

__all__ = ["execute_request", "degraded_request", "DegradeRefused"]


class DegradeRefused(RuntimeError):
    """No polynomial-time planner answers the request within its caps."""


def execute_request(
    request: dict,
    time_limit: float | None = None,
    listener=None,
) -> dict:
    """Solve one normalized request; returns the plan payload.

    ``time_limit`` is the job's *remaining* budget in seconds (the
    service subtracts queue wait before calling); ``None`` means
    unbounded.  Raises ``RuntimeError`` if the solver terminates without
    a usable solution.
    """
    kind = request["kind"]
    if kind == "fleet":
        return _fleet_request(request, listener=listener)
    instance = build_instance(request)
    solve_kwargs: dict = {"backend": request["backend"]}
    if listener is not None:
        solve_kwargs["listener"] = listener
    if time_limit is not None:
        solve_kwargs["time_limit"] = max(float(time_limit), 0.0)
    if kind == "drrp":
        from repro.core import solve_drrp

        # Warm start guarantees an incumbent under any budget (WW seed).
        if solve_kwargs.get("time_limit") is not None and instance.bottleneck_rate is None:
            solve_kwargs["warm_start"] = True
        plan = solve_drrp(instance, **solve_kwargs)
    else:
        from repro.core import solve_srrp

        plan = solve_srrp(instance, **solve_kwargs)
    return plan_payload(kind, plan)


def _fleet_request(request: dict, listener=None, escalate: bool = True) -> dict:
    """Plan one seeded fleet spec; returns the fleet-plan summary payload.

    The fan-out inside :func:`repro.fleet.plan_fleet` respects the
    service workers' :func:`repro.parallel.serial_guard`, so a fleet job
    cannot fork-bomb the host from a worker thread.  ``escalate=False``
    is the degraded path: heuristic tier only, no gap-triggered MILP.
    """
    from repro.fleet import FleetConfig, generate_tenants, plan_fleet, uniform_pools

    spec = request["fleet"]
    tenants = generate_tenants(
        spec["tenants"], seed=spec["seed"], horizon=spec["horizon"]
    )
    pools = uniform_pools(tenants, utilization=spec["utilization"])
    config = FleetConfig(backend=request["backend"], escalate=escalate)
    fleet = plan_fleet(tenants, pools, config, listener=listener)
    payload = fleet.summary(tenants)
    if not fleet.feasible:
        raise RuntimeError(f"fleet plan infeasible: {fleet.failures[:3]}")
    return payload


def degraded_request(request: dict) -> dict:
    """Polynomial-time plan for one normalized request (see module docstring)."""
    from repro.core import solve_noplan, solve_srrp_tree_dp, solve_wagner_whitin
    from repro.core.lotsizing import DRRPInfeasible

    if request["kind"] == "fleet":
        payload = _fleet_request(request, escalate=False)
        payload["degraded"] = "heuristic-only"
        return payload

    instance = build_instance(request)
    if request["kind"] == "srrp":
        plan, planner = solve_srrp_tree_dp(instance), "tree-dp"
    elif instance.open_slots is not None:
        try:
            plan, planner = solve_wagner_whitin(instance), "wagner-whitin"
        except DRRPInfeasible as exc:
            raise DegradeRefused(
                "no degraded plan: a net demand precedes every open slot"
            ) from exc
    elif (instance.bottleneck_rate * instance.net_demand > instance.bottleneck_capacity).any():
        raise DegradeRefused(
            "no degraded plan: generating each slot's net demand exceeds its capacity"
        )
    else:
        plan, planner = solve_noplan(instance), "no-plan"
    payload = plan_payload(request["kind"], plan)
    payload["degraded"] = planner
    return payload
