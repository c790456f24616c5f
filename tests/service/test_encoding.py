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


class TestBackendList:
    def test_matches_the_solver_backends(self):
        # encoding.py keeps its own copy so the stdlib-only client never
        # imports numpy; the copy must not drift from the solver's list.
        from repro.service.encoding import BACKENDS
        from repro.solver import BACKENDS as SOLVER_BACKENDS

        assert BACKENDS == SOLVER_BACKENDS
