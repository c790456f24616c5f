"""Wire encoding for planning jobs: request normalization, digests, plans.

The service speaks JSON.  A submission is a dict with:

``kind``
    ``"drrp"`` (default), ``"srrp"``, or ``"fleet"``.
``instance``
    The explicit problem: ``demand`` (list), ``costs`` (five per-slot
    lists: ``compute``/``storage``/``io``/``transfer_in``/``transfer_out``),
    ``phi``, ``initial_storage``, ``vm_name``, and for SRRP a ``tree``
    (``root_price`` plus per-stage ``{"values": [...], "probs": [...]}``).
    DRRP instances may add ``bottleneck_rate``/``bottleneck_capacity``.
shorthand (top level, instead of ``instance``)
    ``vm`` / ``horizon`` / ``seed`` / ``demand_mean`` / ``demand_std``:
    the server expands these into the same explicit instance the
    ``repro plan`` CLI would build, so a stdlib-only client can submit
    without numpy.
fleet shorthand (``kind: "fleet"``, instead of ``instance``)
    ``tenants`` / ``seed`` / ``horizon`` / ``utilization``: the server
    builds the seeded multi-tenant population and shared pools itself
    (:mod:`repro.fleet`) and returns the fleet-plan summary, so batch
    submissions stay a few integers on the wire.
solve options
    ``backend`` (cache-key material — different backends may return
    different-but-equally-optimal vertices), ``time_limit`` (seconds for
    the *whole* job including queue wait; not cache-key material),
    ``on_overload`` (``"reject"`` -> 429 under saturation, ``"degrade"``
    -> inline Wagner-Whitin / no-plan heuristic).

:func:`normalize_request` maps any accepted submission to one canonical
form; :func:`request_digest` is the content address over that form minus
labels and budgets, so identical problems submitted with different key
order, float widths, shorthand-vs-explicit spelling, or deadlines all
share one cache entry.

Import cost: this module is stdlib-only.  numpy-backed construction
(:func:`build_instance`, shorthand expansion) imports :mod:`repro.core`
lazily — the client never calls it.
"""

from __future__ import annotations

from repro.serialize import result_digest

__all__ = [
    "BadRequest",
    "KINDS",
    "BACKENDS",
    "OVERLOAD_MODES",
    "normalize_request",
    "request_digest",
    "build_instance",
    "plan_payload",
]

KINDS = ("drrp", "srrp", "fleet")
# A copy of repro.solver.BACKENDS (importing it would pull in numpy);
# tests/service/test_encoding.py keeps the two equal.
BACKENDS = ("auto", "simplex", "simplex+cuts", "scipy")
OVERLOAD_MODES = ("reject", "degrade")

_COST_FIELDS = ("compute", "storage", "io", "transfer_in", "transfer_out")


class BadRequest(ValueError):
    """A submission the service cannot interpret (HTTP 400)."""


def _float_list(obj, name: str, *, length: int | None = None, nonneg: bool = True) -> list[float]:
    if not isinstance(obj, (list, tuple)) or not obj:
        raise BadRequest(f"{name} must be a nonempty list of numbers")
    try:
        out = [float(x) for x in obj]
    except (TypeError, ValueError):
        raise BadRequest(f"{name} must contain only numbers") from None
    if length is not None and len(out) != length:
        raise BadRequest(f"{name} must have length {length}, got {len(out)}")
    if nonneg and any(x < 0 for x in out):
        raise BadRequest(f"{name} must be nonnegative")
    if any(x != x or x in (float("inf"), float("-inf")) for x in out):
        raise BadRequest(f"{name} must be finite")
    return out


def _float(obj, name: str, *, default=None, nonneg: bool = True):
    if obj is None:
        return default
    try:
        value = float(obj)
    except (TypeError, ValueError):
        raise BadRequest(f"{name} must be a number") from None
    if value != value or value in (float("inf"), float("-inf")):
        raise BadRequest(f"{name} must be finite")
    if nonneg and value < 0:
        raise BadRequest(f"{name} must be nonnegative")
    return value


def _expand_shorthand(payload: dict) -> dict:
    """``{"vm", "horizon", "seed", ...}`` -> an explicit instance dict.

    Mirrors what ``repro plan`` builds, so a shorthand submission and the
    equivalent explicit submission digest identically (each cost list
    holds the one per-slot rate :func:`repro.core.on_demand_schedule`
    fills its series with).  Needs numpy.
    """
    from repro.core import NormalDemand, on_demand_rates
    from repro.market import ec2_catalog

    catalog = ec2_catalog()
    vm_name = payload.get("vm", "m1.large")
    if vm_name not in catalog:
        raise BadRequest(f"unknown VM class {vm_name!r}; choose from {sorted(catalog)}")
    vm = catalog[vm_name]
    horizon = payload.get("horizon", 24)
    if not isinstance(horizon, int) or isinstance(horizon, bool) or not 1 <= horizon <= 8760:
        raise BadRequest("horizon must be an integer in [1, 8760]")
    seed = payload.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise BadRequest("seed must be an integer")
    mean = _float(payload.get("demand_mean"), "demand_mean", default=0.4)
    std = _float(payload.get("demand_std"), "demand_std", default=0.2)
    demand = NormalDemand(mean=mean, std=std).sample(horizon, seed)
    rates = on_demand_rates(vm)
    return {
        "demand": demand.tolist(),
        "costs": {f: [rates[f]] * horizon for f in _COST_FIELDS},
        "phi": _float(payload.get("phi"), "phi", default=0.5),
        "initial_storage": _float(payload.get("initial_storage"), "initial_storage", default=0.0),
        "vm_name": vm.name,
    }


def _normalize_tree(tree, horizon: int) -> dict:
    if not isinstance(tree, dict):
        raise BadRequest("srrp submissions need a tree: {root_price, stages}")
    root_price = _float(tree.get("root_price"), "tree.root_price")
    if root_price is None:
        raise BadRequest("tree.root_price is required")
    stages_in = tree.get("stages")
    if not isinstance(stages_in, list) or len(stages_in) != horizon - 1:
        raise BadRequest(
            f"tree.stages must list {horizon - 1} stage distributions "
            f"(horizon {horizon} minus the known root)"
        )
    stages = []
    for i, stage in enumerate(stages_in):
        if isinstance(stage, dict):
            values, probs = stage.get("values"), stage.get("probs")
        elif isinstance(stage, (list, tuple)) and len(stage) == 2:
            values, probs = stage
        else:
            raise BadRequest(f"tree.stages[{i}] must be {{values, probs}}")
        values = _float_list(values, f"tree.stages[{i}].values")
        probs = _float_list(probs, f"tree.stages[{i}].probs", length=len(values))
        if abs(sum(probs) - 1.0) > 1e-9:
            raise BadRequest(f"tree.stages[{i}].probs must sum to 1")
        stages.append({"values": values, "probs": probs})
    return {"root_price": root_price, "stages": stages}


def _normalize_instance(payload: dict, kind: str) -> dict:
    explicit = payload.get("instance")
    if explicit is None:
        if kind != "drrp":
            raise BadRequest("shorthand submissions are DRRP-only; srrp needs 'instance'")
        inst = _expand_shorthand(payload)
    else:
        if not isinstance(explicit, dict):
            raise BadRequest("instance must be an object")
        demand = _float_list(explicit.get("demand"), "instance.demand")
        costs_in = explicit.get("costs")
        if not isinstance(costs_in, dict):
            raise BadRequest(f"instance.costs must provide {_COST_FIELDS}")
        costs = {}
        for f in _COST_FIELDS:
            costs[f] = _float_list(costs_in.get(f), f"instance.costs.{f}", length=len(demand))
        inst = {
            "demand": demand,
            "costs": costs,
            "phi": _float(explicit.get("phi"), "instance.phi", default=0.5),
            "initial_storage": _float(
                explicit.get("initial_storage"), "instance.initial_storage", default=0.0
            ),
            "vm_name": str(explicit.get("vm_name", "vm")),
        }
        if kind == "drrp":
            rate = _float(explicit.get("bottleneck_rate"), "instance.bottleneck_rate")
            cap = explicit.get("bottleneck_capacity")
            if (rate is None) != (cap is None):
                raise BadRequest("bottleneck rate and capacity must be given together")
            if rate is not None:
                inst["bottleneck_rate"] = rate
                inst["bottleneck_capacity"] = _float_list(
                    cap, "instance.bottleneck_capacity", length=len(demand)
                )
    if kind == "srrp":
        inst["tree"] = _normalize_tree(
            (explicit or {}).get("tree"), horizon=len(inst["demand"])
        )
        tree_width = 1
        for stage in inst["tree"]["stages"]:
            tree_width *= len(stage["values"])
            if tree_width > 100_000:
                raise BadRequest("scenario tree too large (> 1e5 leaves)")
    return inst


def _int(obj, name: str, *, default: int, lo: int, hi: int) -> int:
    if obj is None:
        return default
    if not isinstance(obj, int) or isinstance(obj, bool) or not lo <= obj <= hi:
        raise BadRequest(f"{name} must be an integer in [{lo}, {hi}]")
    return obj


def _normalize_fleet(payload: dict) -> dict:
    """Fleet shorthand -> canonical spec (see module docstring).

    The population is seeded server-side, so the spec *is* the problem:
    two fleet submissions with the same spec digest identically.
    """
    utilization = _float(payload.get("utilization"), "utilization", default=0.6)
    if not 0.0 < utilization <= 1.0:
        raise BadRequest(f"utilization must be in (0, 1], got {utilization}")
    seed = payload.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise BadRequest("seed must be an integer")
    return {
        "tenants": _int(payload.get("tenants"), "tenants", default=16, lo=1, hi=10_000),
        "seed": seed,
        "horizon": _int(payload.get("horizon"), "horizon", default=24, lo=2, hi=8760),
        "utilization": utilization,
    }


def normalize_request(payload) -> dict:
    """Validate and canonicalize one submission (see module docstring).

    Returns ``{"kind", "instance", "backend", "time_limit", "on_overload"}``
    with the instance fully explicit.  Raises :class:`BadRequest` with a
    client-facing message on anything malformed.
    """
    if not isinstance(payload, dict):
        raise BadRequest("submission must be a JSON object")
    kind = payload.get("kind", "drrp")
    if kind not in KINDS:
        raise BadRequest(f"kind must be one of {KINDS}, got {kind!r}")
    backend = payload.get("backend", "auto")
    if backend not in BACKENDS:
        raise BadRequest(f"backend must be one of {BACKENDS}, got {backend!r}")
    on_overload = payload.get("on_overload", "reject")
    if on_overload not in OVERLOAD_MODES:
        raise BadRequest(f"on_overload must be one of {OVERLOAD_MODES}")
    time_limit = _float(payload.get("time_limit"), "time_limit")
    request = {
        "kind": kind,
        "backend": backend,
        "time_limit": time_limit,
        "on_overload": on_overload,
    }
    if kind == "fleet":
        request["fleet"] = _normalize_fleet(payload)
    else:
        request["instance"] = _normalize_instance(payload, kind)
    return request


def request_digest(request: dict) -> str:
    """Content address of a normalized request (the plan-cache key).

    Covers the problem (instance minus its ``vm_name`` label, or the
    seeded fleet spec) and the backend; excludes budgets and overload
    policy — a cached OPTIMAL plan is valid whatever deadline the
    submission carried.
    """
    if request["kind"] == "fleet":
        return result_digest(
            {"kind": "fleet", "backend": request["backend"], "fleet": request["fleet"]}
        )
    instance = {k: v for k, v in request["instance"].items() if k != "vm_name"}
    return result_digest(
        {"kind": request["kind"], "backend": request["backend"], "instance": instance}
    )


def build_instance(request: dict):
    """Normalized request -> DRRPInstance / SRRPInstance (imports numpy)."""
    import numpy as np

    from repro.core import CostSchedule, DRRPInstance, SRRPInstance, build_tree

    inst = request["instance"]
    costs = CostSchedule(**{f: np.asarray(inst["costs"][f]) for f in _COST_FIELDS})
    if request["kind"] == "drrp":
        kwargs = {}
        if "bottleneck_rate" in inst:
            kwargs = {
                "bottleneck_rate": inst["bottleneck_rate"],
                "bottleneck_capacity": np.asarray(inst["bottleneck_capacity"]),
            }
        return DRRPInstance(
            demand=np.asarray(inst["demand"]),
            costs=costs,
            phi=inst["phi"],
            initial_storage=inst["initial_storage"],
            vm_name=inst["vm_name"],
            **kwargs,
        )
    tree = build_tree(
        inst["tree"]["root_price"],
        [
            (np.asarray(s["values"]), np.asarray(s["probs"]))
            for s in inst["tree"]["stages"]
        ],
    )
    return SRRPInstance(
        demand=np.asarray(inst["demand"]),
        costs=costs,
        tree=tree,
        phi=inst["phi"],
        initial_storage=inst["initial_storage"],
        vm_name=inst["vm_name"],
    )


def plan_payload(kind: str, plan) -> dict:
    """A solved RentalPlan / SRRPPlan as a JSON-safe response body (imports numpy)."""
    import numpy as np

    body = {
        "kind": kind,
        "status": plan.status.value,
        "vm_name": plan.vm_name,
        "alpha": np.asarray(plan.alpha, dtype=float).tolist(),
        "beta": np.asarray(plan.beta, dtype=float).tolist(),
        "chi": [int(round(x)) for x in np.asarray(plan.chi, dtype=float).tolist()],
    }
    if kind == "drrp":
        body["total_cost"] = float(plan.total_cost)
        body["costs"] = {
            "compute": float(plan.compute_cost),
            "inventory": float(plan.inventory_cost),
            "transfer_in": float(plan.transfer_in_cost),
            "transfer_out": float(plan.transfer_out_cost),
        }
    else:
        body["expected_cost"] = float(plan.expected_cost)
        body["first_alpha"] = float(plan.first_alpha)
        body["first_chi"] = bool(plan.first_chi)
    extra = getattr(plan, "extra", None) or {}
    for key in ("nodes", "iterations", "wall_time", "fallback"):
        if extra.get(key) is not None:
            body.setdefault("solve", {})[key] = extra[key]
    return body
