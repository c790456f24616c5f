"""Wire-encoding tests: normalization, digests, payloads."""

import pytest

from repro.service.encoding import (
    BadRequest,
    build_instance,
    normalize_request,
    plan_payload,
    request_digest,
)


def explicit_drrp(T=4, compute=0.4, vm_name="x"):
    return {
        "kind": "drrp",
        "instance": {
            "demand": [0.3] * T,
            "costs": {
                "compute": [compute] * T,
                "storage": [0.0001] * T,
                "io": [0.2] * T,
                "transfer_in": [0.1] * T,
                "transfer_out": [0.17] * T,
            },
            "phi": 0.5,
            "vm_name": vm_name,
        },
    }


def explicit_srrp(T=3):
    payload = explicit_drrp(T)
    payload["kind"] = "srrp"
    payload["instance"]["tree"] = {
        "root_price": 0.1,
        "stages": [{"values": [0.1, 0.4], "probs": [0.5, 0.5]} for _ in range(T - 1)],
    }
    return payload


class TestNormalize:
    def test_explicit_roundtrip(self):
        req = normalize_request(explicit_drrp())
        assert req["kind"] == "drrp"
        assert req["backend"] == "auto"
        assert req["time_limit"] is None
        assert req["on_overload"] == "reject"
        assert req["instance"]["demand"] == [0.3] * 4

    def test_shorthand_expands_to_explicit(self):
        req = normalize_request({"vm": "m1.large", "horizon": 6, "seed": 1,
                                 "demand_mean": 0.4, "demand_std": 0.1})
        assert len(req["instance"]["demand"]) == 6
        assert req["instance"]["vm_name"] == "m1.large"
        assert all(len(v) == 6 for v in req["instance"]["costs"].values())

    def test_shorthand_deterministic(self):
        short = {"vm": "c1.medium", "horizon": 5, "seed": 3}
        assert normalize_request(short) == normalize_request(dict(short))

    @pytest.mark.parametrize("payload,match", [
        ({"kind": "nope"}, "kind"),
        ({"vm": "t2.bogus", "horizon": 4}, "VM class"),
        ({"backend": "magic", "vm": "m1.large", "horizon": 4}, "backend"),
        ({"vm": "m1.large", "horizon": 0}, "horizon"),
        ({"kind": "srrp", "vm": "m1.large", "horizon": 4}, "instance"),
        ({"time_limit": -1, "vm": "m1.large", "horizon": 4}, "time_limit"),
        ({"on_overload": "panic", "vm": "m1.large", "horizon": 4}, "on_overload"),
        ("not a dict", "JSON object"),
    ])
    def test_bad_requests_rejected(self, payload, match):
        with pytest.raises(BadRequest, match=match):
            normalize_request(payload)

    def test_srrp_probs_must_sum_to_one(self):
        bad = explicit_srrp()
        bad["instance"]["tree"]["stages"][0]["probs"] = [0.9, 0.9]
        with pytest.raises(BadRequest, match="probs"):
            normalize_request(bad)

    def test_srrp_stage_count_must_match_horizon(self):
        bad = explicit_srrp()
        bad["instance"]["tree"]["stages"].append(
            {"values": [0.1, 0.4], "probs": [0.5, 0.5]})
        with pytest.raises(BadRequest, match="stages"):
            normalize_request(bad)


class TestDigest:
    def test_key_order_and_float_width_invariant(self):
        a = normalize_request(explicit_drrp(compute=0.4))
        b_payload = explicit_drrp(compute=0.4 + 1e-15)
        # reversed key insertion order
        b_payload["instance"] = dict(reversed(list(b_payload["instance"].items())))
        b = normalize_request(b_payload)
        assert request_digest(a) == request_digest(b)

    def test_vm_name_label_excluded(self):
        a = normalize_request(explicit_drrp(vm_name="alpha"))
        b = normalize_request(explicit_drrp(vm_name="beta"))
        assert request_digest(a) == request_digest(b)

    def test_content_changes_digest(self):
        a = normalize_request(explicit_drrp(compute=0.4))
        b = normalize_request(explicit_drrp(compute=0.5))
        assert request_digest(a) != request_digest(b)

    def test_backend_is_cache_key_material(self):
        a = normalize_request({**explicit_drrp(), "backend": "auto"})
        b = normalize_request({**explicit_drrp(), "backend": "simplex"})
        assert request_digest(a) != request_digest(b)

    def test_budgets_are_not_cache_key_material(self):
        a = normalize_request({**explicit_drrp(), "time_limit": 1.0})
        b = normalize_request({**explicit_drrp(), "time_limit": 30.0,
                               "on_overload": "degrade"})
        assert request_digest(a) == request_digest(b)

    def test_shorthand_and_explicit_expansion_share_digest(self):
        short = normalize_request({"vm": "m1.large", "horizon": 5, "seed": 2})
        # resubmitting the server's own expansion must hit the same key
        explicit = normalize_request({"kind": "drrp", "instance": short["instance"]})
        assert request_digest(short) == request_digest(explicit)


class TestBuildAndPayload:
    def test_drrp_instance_and_payload(self):
        req = normalize_request(explicit_drrp())
        inst = build_instance(req)
        from repro.core import solve_drrp

        plan = solve_drrp(inst)
        payload = plan_payload("drrp", plan)
        assert payload["status"] == "optimal"
        assert len(payload["alpha"]) == 4
        assert isinstance(payload["total_cost"], float)
        assert set(payload["costs"]) >= {"compute", "inventory"}

    def test_srrp_instance_and_payload(self):
        req = normalize_request(explicit_srrp())
        inst = build_instance(req)
        from repro.core import solve_srrp

        plan = solve_srrp(inst)
        payload = plan_payload("srrp", plan)
        assert payload["status"] == "optimal"
        assert "expected_cost" in payload and "first_chi" in payload

    @pytest.mark.parametrize("kind", ["drrp", "srrp"])
    def test_decision_lists_are_the_plain_floats_of_the_plan(self, kind):
        import json

        from repro.core import solve_drrp, solve_srrp

        req = normalize_request(explicit_drrp(T=12) if kind == "drrp" else explicit_srrp(T=4))
        plan = (solve_drrp if kind == "drrp" else solve_srrp)(build_instance(req))
        payload = plan_payload(kind, plan)
        expected = {
            "alpha": [float(x) for x in plan.alpha],
            "beta": [float(x) for x in plan.beta],
            "chi": [int(round(float(x))) for x in plan.chi],
        }
        for key, values in expected.items():
            assert json.dumps(payload[key]) == json.dumps(values)


class TestBackendList:
    def test_matches_the_solver_backends(self):
        # encoding.py keeps its own copy so the stdlib-only client never
        # imports numpy; the copy must not drift from the solver's list.
        from repro.service.encoding import BACKENDS
        from repro.solver import BACKENDS as SOLVER_BACKENDS

        assert BACKENDS == SOLVER_BACKENDS


def _expand_via_schedule(vm_name, horizon, seed=0, mean=0.4, std=0.2, phi=0.5, initial=0.0):
    """Shorthand expansion spelled out through a full ``CostSchedule``:
    the reference the wire form of every shorthand request must equal."""
    from repro.core import NormalDemand, on_demand_schedule
    from repro.market import ec2_catalog

    vm = ec2_catalog()[vm_name]
    demand = NormalDemand(mean=mean, std=std).sample(horizon, seed)
    costs = on_demand_schedule(vm, horizon)
    fields = ("compute", "storage", "io", "transfer_in", "transfer_out")
    return {
        "demand": [float(x) for x in demand],
        "costs": {f: [float(x) for x in getattr(costs, f)] for f in fields},
        "phi": phi,
        "initial_storage": initial,
        "vm_name": vm.name,
    }


def _all_floats(instance) -> bool:
    lists = [instance["demand"], *instance["costs"].values()]
    scalars = [instance["phi"], instance["initial_storage"]]
    return all(type(x) is float for xs in lists for x in xs) and all(
        type(x) is float for x in scalars
    )


# sha256 of json.dumps(..., sort_keys=True) over the expansion of every
# catalog VM (sorted by name) at one horizon, recorded before the
# expansion stopped building a CostSchedule.
PINNED_SHORTHAND = {
    1: "29d9893f757a6bd0edaaa5542e4b783ae7faf442fe22c6fcf39b7335f83ed002",
    24: "c6eb93d1a779d563527e15d91f8c0a28f7471fc01e922932f07435e1b378092c",
    8760: "1a5838bc5de554aee7f85c6b33e9b23e8bf9d9f9ed979c112bdbe7420093d1a6",
}


class TestShorthandIdentity:
    @pytest.mark.parametrize("horizon", sorted(PINNED_SHORTHAND))
    def test_every_catalog_vm_expands_as_before(self, horizon):
        import hashlib
        import json

        from repro.market import ec2_catalog

        expanded = []
        for name in sorted(ec2_catalog()):
            inst = normalize_request({"vm": name, "horizon": horizon})["instance"]
            assert inst == _expand_via_schedule(name, horizon)
            assert _all_floats(inst)
            expanded.append(inst)
        blob = json.dumps(expanded, sort_keys=True).encode()
        assert hashlib.sha256(blob).hexdigest() == PINNED_SHORTHAND[horizon]

    def test_explicit_parameters_expand_as_before(self):
        short = {"vm": "c1.xlarge", "horizon": 48, "seed": 5, "demand_mean": 0.7,
                 "demand_std": 0.3, "phi": 0.25, "initial_storage": 0.1}
        inst = normalize_request(short)["instance"]
        assert inst == _expand_via_schedule("c1.xlarge", 48, 5, 0.7, 0.3, 0.25, 0.1)
        assert _all_floats(inst)
