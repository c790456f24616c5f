"""The /v1/fleet batch endpoint: encoding, execution, degrade, caching."""

import json
import time
import urllib.error
import urllib.request

import pytest

from repro.service.encoding import BadRequest, normalize_request, request_digest
from repro.service.executor import DegradeRefused, degraded_request, execute_request
from repro.service.server import PlanningService, ServiceConfig, serve


@pytest.fixture(scope="module")
def live():
    """One HTTP server shared by the endpoint tests in this module."""
    service, httpd = serve(port=0, config=ServiceConfig(workers=1), block=False)
    yield service, httpd
    httpd.shutdown()
    httpd.server_close()
    service.close()


def _post(url, payload, timeout=120):
    req = urllib.request.Request(
        url, data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


class TestFleetEncoding:
    def test_shorthand_normalizes_with_defaults(self):
        req = normalize_request({"kind": "fleet"})
        assert req["kind"] == "fleet"
        assert req["fleet"] == {
            "tenants": 16, "seed": 0, "horizon": 24, "utilization": 0.6,
        }
        assert "instance" not in req

    def test_digest_covers_the_spec(self):
        a = request_digest(normalize_request({"kind": "fleet", "tenants": 8}))
        b = request_digest(normalize_request({"kind": "fleet", "tenants": 8}))
        c = request_digest(normalize_request({"kind": "fleet", "tenants": 9}))
        assert a == b and a != c

    def test_digest_distinct_from_drrp(self):
        fleet = request_digest(normalize_request({"kind": "fleet"}))
        drrp = request_digest(normalize_request({"vm": "m1.large"}))
        assert fleet != drrp

    @pytest.mark.parametrize("payload", [
        {"kind": "fleet", "tenants": 0},
        {"kind": "fleet", "tenants": "many"},
        {"kind": "fleet", "horizon": 1},
        {"kind": "fleet", "utilization": 0.0},
        {"kind": "fleet", "utilization": 1.5},
        {"kind": "fleet", "seed": "x"},
    ])
    def test_bad_specs_rejected(self, payload):
        with pytest.raises(BadRequest):
            normalize_request(payload)


class TestFleetExecution:
    def test_execute_returns_feasible_summary(self):
        req = normalize_request({"kind": "fleet", "tenants": 8, "horizon": 10})
        payload = execute_request(req)
        assert payload["kind"] == "fleet"
        assert payload["tenants"] == 8
        assert payload["feasible"] is True
        assert payload["status"] == "optimal"
        assert sum(payload["methods"].values()) == 8
        assert len(payload["tenant_plans"]) == 8

    def test_degraded_is_refused(self):
        req = normalize_request({"kind": "fleet", "tenants": 8, "horizon": 10})
        with pytest.raises(DegradeRefused):
            degraded_request(req)

    def test_expired_budget_raises_before_the_next_batch(self):
        req = normalize_request({"kind": "fleet", "tenants": 40, "seed": 3})
        with pytest.raises(RuntimeError, match="deadline"):
            execute_request(req, time_limit=0.0)

    def test_explicit_backend_escalations_honour_the_budget(self):
        # Escalated tenants' branch-and-bound solves stop at the fleet's
        # deadline instead of running to their node limits first.
        req = normalize_request({"kind": "fleet", "tenants": 40, "seed": 3,
                                 "backend": "simplex"})
        t0 = time.monotonic()
        with pytest.raises(RuntimeError, match="deadline"):
            execute_request(req, time_limit=0.01)
        assert time.monotonic() - t0 < 5.0

    def test_plan_finished_past_its_budget_says_time_limit(self):
        # Roomy pools: no repair round, so the one batch runs past the budget.
        req = normalize_request({"kind": "fleet", "tenants": 40, "seed": 3,
                                 "utilization": 1.0})
        payload = execute_request(req, time_limit=0.005)
        assert payload["repair_rounds"] == 0 and payload["feasible"] is True
        assert payload["status"] == "time_limit"


class TestFleetEndpoint:
    def test_post_fleet_solves_and_caches(self, live):
        service, httpd = live
        body = {"tenants": 6, "seed": 11, "horizon": 8}
        status, out = _post(httpd.url + "/v1/fleet", body)
        assert status == 200
        assert out["plan"]["kind"] == "fleet"
        assert out["plan"]["feasible"] is True
        status2, out2 = _post(httpd.url + "/v1/fleet", body)
        assert status2 == 200
        assert out2["job"]["cached"] is True
        assert out2["plan"]["total_cost"] == out["plan"]["total_cost"]

    def test_kind_is_forced_by_the_route(self, live):
        service, httpd = live
        status, out = _post(
            httpd.url + "/v1/fleet",
            {"kind": "drrp", "tenants": 4, "seed": 1, "horizon": 8},
        )
        assert status == 200
        assert out["plan"]["kind"] == "fleet"

    def test_fleet_also_accepted_via_jobs(self, live):
        service, httpd = live
        status, out = _post(
            httpd.url + "/v1/jobs", {"kind": "fleet", "tenants": 4, "horizon": 8},
        )
        assert status in (200, 202)

    def test_bad_fleet_spec_is_400(self, live):
        service, httpd = live
        status, out = _post(httpd.url + "/v1/fleet", {"tenants": -2})
        assert status == 400
        assert "tenants" in out["error"]


class TestFleetOverload:
    def test_degrade_inline_when_saturated(self):
        """A fleet has no degraded plan: the degrade path refuses it."""
        service = PlanningService(ServiceConfig(workers=0, queue_size=1)).start()
        try:
            # Fill the queue, then force the degrade path.
            service.submit({"kind": "fleet", "tenants": 4, "horizon": 8})
            status, body = service.submit(
                {"kind": "fleet", "tenants": 4, "horizon": 8, "seed": 9,
                 "on_overload": "degrade"}
            )
            assert status == 429
            assert body["degrade_refused"] is True
            assert service.registry.counter("service_degrade_refused").value == 1
        finally:
            service.close()


class TestFleetDeadline:
    def test_expired_budget_answers_well_before_wait_s(self, live):
        service, httpd = live
        refused = service.registry.counter("service_degrade_refused").value
        t0 = time.monotonic()
        status, out = _post(
            httpd.url + "/v1/fleet",
            {"tenants": 40, "seed": 3, "time_limit": 0.01, "wait_s": 5},
        )
        elapsed = time.monotonic() - t0
        assert elapsed < 2.5
        # The budget ran out between planning batches, and a fleet has no
        # degraded plan: a failed job, counted as a refusal.
        assert status == 500
        assert out["job"]["state"] == "failed"
        assert out["error"].startswith("DegradeRefused")
        assert service.registry.counter("service_degrade_refused").value == refused + 1
