"""Planning service core + HTTP endpoint tests."""

import json
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.service import (
    PlanningService,
    ReplanPolicy,
    Saturated,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    serve,
)

DRRP = {"kind": "drrp", "vm": "c1.medium", "horizon": 5, "seed": 1,
        "demand_mean": 0.4, "demand_std": 0.1}


def srrp_payload(T=3):
    return {"kind": "srrp", "instance": {
        "demand": [0.3] * T,
        "costs": {"compute": [0.4] * T, "storage": [0.0001] * T,
                  "io": [0.2] * T, "transfer_in": [0.1] * T,
                  "transfer_out": [0.17] * T},
        "phi": 0.5, "vm_name": "s",
        "tree": {"root_price": 0.1,
                 "stages": [{"values": [0.1, 0.4], "probs": [0.5, 0.5]}
                            for _ in range(T - 1)]}}}


def other(seed):
    return {**DRRP, "seed": seed}


@pytest.fixture()
def service():
    with PlanningService(ServiceConfig(workers=2, default_time_limit=30.0)) as svc:
        yield svc


@pytest.fixture(scope="module")
def live():
    """One HTTP server shared by the endpoint tests in this module."""
    service, httpd = serve(port=0, config=ServiceConfig(workers=2), block=False)
    client = ServiceClient(httpd.url, timeout=30.0)
    yield service, httpd, client
    client.close()
    httpd.shutdown()
    httpd.server_close()
    service.close()


def wait_done(service, job_id, timeout=30.0):
    job = service.wait(job_id, timeout=timeout)
    assert job is not None and job.state.finished, job
    return job


def knocked_payload(capacity=(10.0, 0.0, 10.0, 0.0, 10.0, 10.0)):
    """Six slots, bottleneck rate 1; the default capacity knocks slots 1 and
    3 out and cannot bind elsewhere.  No-plan would generate 0.5 and 0.6
    in the knocked slots (12.528); the exact plan costs 11.328."""
    T = 6
    return {"kind": "drrp", "instance": {
        "demand": [0.4, 0.5, 0.3, 0.6, 0.2, 0.4],
        "costs": {"compute": [2.0] * T, "storage": [3.0] * T, "io": [0.2] * T,
                  "transfer_in": [0.1] * T, "transfer_out": [0.17] * T},
        "phi": 0.5, "vm_name": "k",
        "bottleneck_rate": 1.0, "bottleneck_capacity": list(capacity)}}


def assert_exact_and_within_caps(plan, payload):
    from repro.core import RentalPlan, solve_drrp
    from repro.service.encoding import build_instance, normalize_request
    from repro.solver import SolverStatus

    instance = build_instance(normalize_request(payload))
    RentalPlan.priced(instance, np.array(plan["alpha"]), np.array(plan["beta"]),
                      np.array(plan["chi"], dtype=float)).validate(instance)
    assert plan["alpha"][1] == plan["alpha"][3] == 0.0
    exact = solve_drrp(instance, backend="simplex")
    assert exact.status is SolverStatus.OPTIMAL
    assert plan["total_cost"] == pytest.approx(exact.objective, abs=1e-9)
    assert plan["total_cost"] == pytest.approx(11.328, abs=1e-9)


class TestServiceCore:
    def test_solve_then_cache_hit(self, service):
        status, body = service.submit(DRRP)
        assert status == 202
        job = wait_done(service, body["job"]["id"])
        assert job.plan["status"] == "optimal"

        status, body = service.submit(dict(DRRP))
        assert status == 200
        assert body["job"]["cached"] is True
        assert body["plan"] == job.plan
        assert service.cache.hits == 1

    def test_distinct_requests_do_not_share(self, service):
        _, a = service.submit(other(11))
        _, b = service.submit(other(12))
        ja = wait_done(service, a["job"]["id"])
        jb = wait_done(service, b["job"]["id"])
        assert ja.digest != jb.digest
        assert ja.plan["total_cost"] != jb.plan["total_cost"]

    def test_inflight_coalescing(self):
        # workers=0: the job stays queued, so an identical submission
        # must coalesce onto it rather than enqueue a duplicate.
        with PlanningService(ServiceConfig(workers=0)) as svc:
            s1, b1 = svc.submit(other(21))
            s2, b2 = svc.submit(other(21))
            assert (s1, s2) == (202, 202)
            assert b2["job"]["id"] == b1["job"]["id"]
            assert b2["job"]["coalesced"] == 1
            assert svc.registry.counter("service_coalesced").value == 1

    def test_backpressure_reject_with_retry_after(self):
        with PlanningService(ServiceConfig(workers=0, queue_size=1)) as svc:
            assert svc.submit(other(31))[0] == 202
            status, body = svc.submit(other(32))
            assert status == 429
            assert body["retry_after"] > 0

    def test_backpressure_degrade_inline(self):
        with PlanningService(ServiceConfig(workers=0, queue_size=1)) as svc:
            svc.submit(other(41))
            status, body = svc.submit({**other(42), "on_overload": "degrade"})
            assert status == 200
            assert body["job"]["degraded"] == "wagner-whitin"
            assert body["plan"]["degraded"] == "wagner-whitin"
            assert body["plan"]["status"] == "optimal"  # WW is exact here
            # degraded plans must not poison the cache
            assert len(svc.cache) == 0

    def test_degraded_plans_never_cached(self):
        with PlanningService(ServiceConfig(workers=0, queue_size=1)) as svc:
            svc.submit(other(51))
            svc.submit({**other(52), "on_overload": "degrade"})
            status, _ = svc.submit({**other(52), "on_overload": "degrade"})
            assert status == 200
            assert svc.cache.hits == 0

    def test_degraded_srrp_is_vertex_indexed_and_exact(self):
        from repro.core import SRRPPlan, solve_srrp_tree_dp
        from repro.solver import SolverStatus
        from repro.service.encoding import build_instance, normalize_request

        payload = {**srrp_payload(4), "on_overload": "degrade"}
        instance = build_instance(normalize_request(payload))
        with PlanningService(ServiceConfig(workers=0, queue_size=1)) as svc:
            svc.submit(other(81))
            for _ in range(2):
                status, body = svc.submit(payload)
                assert status == 200
                plan = body["plan"]
                assert plan["degraded"] == "tree-dp"
                n = instance.tree.num_nodes
                assert len(plan["alpha"]) == len(plan["beta"]) == len(plan["chi"]) == n
                SRRPPlan(alpha=np.array(plan["alpha"]), beta=np.array(plan["beta"]),
                         chi=np.array(plan["chi"], dtype=float),
                         expected_cost=plan["expected_cost"], status=SolverStatus.OPTIMAL,
                         tree=instance.tree).validate(instance)
                assert plan["expected_cost"] == solve_srrp_tree_dp(instance).expected_cost
            assert len(svc.cache) == 0 and svc.cache.hits == 0

    def test_expired_deadline_still_yields_a_plan(self, service):
        # A budget that expires in the queue still answers with a usable
        # plan (warm-start incumbent or degradation), marked time_limit.
        status, body = service.submit({**other(61), "time_limit": 1e-9})
        assert status == 202
        job = wait_done(service, body["job"]["id"])
        assert job.state.value == "done"
        assert job.plan["status"] == "time_limit"
        assert job.plan["alpha"]  # a real schedule, not an error
        # and it must not be cached as an optimum
        assert len(service.cache) == 0

    def test_degraded_knocked_request_keeps_its_caps(self):
        with PlanningService(ServiceConfig(workers=0, queue_size=1)) as svc:
            svc.submit(other(91))
            status, body = svc.submit({**knocked_payload(), "on_overload": "degrade"})
            assert status == 200
            assert body["plan"]["degraded"] == "wagner-whitin"
            assert_exact_and_within_caps(body["plan"], knocked_payload())

    def test_degraded_knocked_request_keeps_its_caps_after_the_deadline(self, monkeypatch):
        from repro.service import executor

        def no_solve(*args, **kwargs):
            raise RuntimeError("solver gave up")

        monkeypatch.setattr(executor, "execute_request", no_solve)
        with PlanningService(ServiceConfig(workers=1)) as svc:
            _, body = svc.submit({**knocked_payload(), "time_limit": 1e-9})
            job = wait_done(svc, body["job"]["id"])
            assert job.state.value == "done"
            assert job.plan["status"] == "time_limit"
            assert job.plan["degraded"] == "wagner-whitin"
            assert_exact_and_within_caps(job.plan, knocked_payload())

    def test_overload_refuses_when_no_plan_breaks_a_cap(self):
        binding = knocked_payload(capacity=[0.45] * 6)  # 0.5 and 0.6 exceed it
        with PlanningService(ServiceConfig(workers=0, queue_size=1)) as svc:
            svc.submit(other(92))
            status, body = svc.submit({**binding, "on_overload": "degrade"})
            assert status == 429
            assert body["degrade_refused"] is True
            assert "capacity" in body["error"] and body["retry_after"] > 0
            assert svc.registry.counter("service_degrade_refused").value == 1
            assert svc.registry.counter("service_degraded").value == 0
            assert len(svc.cache) == 0

    def test_deadline_refusal_fails_the_job_and_the_worker_lives(self):
        # Slot 0 is knocked out but carries the first net demand: the
        # exact DP and the degraded path both find no plan.
        infeasible = knocked_payload(capacity=[0.0] + [10.0] * 5)
        with PlanningService(ServiceConfig(workers=1)) as svc:
            _, body = svc.submit({**infeasible, "time_limit": 1e-9})
            job = wait_done(svc, body["job"]["id"])
            assert job.state.value == "failed"
            assert job.error.startswith("DegradeRefused: ")
            assert svc.registry.counter("service_degrade_refused").value == 1
            _, body = svc.submit(other(93))  # the one worker still serves
            assert wait_done(svc, body["job"]["id"]).plan["status"] == "optimal"

    def test_bad_request_is_400(self, service):
        status, body = service.submit({"kind": "bogus"})
        assert status == 400 and "kind" in body["error"]

    def test_closed_service_is_503(self):
        svc = PlanningService(ServiceConfig(workers=1)).start()
        svc.close()
        status, body = svc.submit(DRRP)
        assert status == 503 and "retry_after" in body

    def test_close_fails_queued_jobs(self):
        svc = PlanningService(ServiceConfig(workers=0)).start()
        _, body = svc.submit(other(71))
        svc.close()
        job = svc.jobs.get(body["job"]["id"])
        assert job.state.value == "failed" and "shutting down" in job.error

    def test_health_and_metrics_shapes(self, service):
        health = service.health()
        assert health["status"] == "ok"
        assert health["queue_capacity"] == 64
        snap = service.metrics_snapshot()
        assert "service_cache" in snap
        json.dumps(snap, allow_nan=False)  # strictly JSON-serializable

    def test_capture_writes_manifest_and_events(self, tmp_path):
        config = ServiceConfig(workers=1, capture_dir=str(tmp_path))
        with PlanningService(config) as svc:
            _, body = svc.submit(other(81))
            job = wait_done(svc, body["job"]["id"])
        out = tmp_path / job.id
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["kind"] == "service"
        assert manifest["result_digest"].startswith("sha256:")
        events = (out / "events.jsonl").read_text().splitlines()
        assert events and all(json.loads(line)["kind"] for line in events)

    def test_capture_records_kind_and_backend_after_finish(self, tmp_path):
        # The finished job no longer holds its request; the manifest reads
        # the kind and backend the job kept.
        config = ServiceConfig(workers=1, capture_dir=str(tmp_path))
        with PlanningService(config) as svc:
            _, body = svc.submit({**other(82), "backend": "simplex"})
            job = wait_done(svc, body["job"]["id"])
        assert job.request is None
        manifest = json.loads((tmp_path / job.id / "manifest.json").read_text())
        assert manifest["config"]["backend"] == "simplex"
        assert manifest["name"] == f"drrp:{job.id}"


class TestHTTPEndpoints:
    def test_healthz(self, live):
        _, _, client = live
        health = client.healthz()
        assert health["status"] == "ok" and health["workers"] == 2

    def test_sync_plan_roundtrip_and_cache(self, live):
        _, _, client = live
        first = client.solve(other(91), wait_s=30)
        assert first.plan["status"] == "optimal" and not first.hit
        again = client.solve(other(91), wait_s=30)
        assert again.cached and again.plan == first.plan

    def test_async_submit_poll_fetch(self, live):
        _, _, client = live
        sub = client.submit(other(92))
        job = client.wait(sub.job_id, timeout=30)
        assert job["state"] == "done"
        plan = client.plan(sub.job_id)
        assert plan["status"] == "optimal"

    def test_unknown_job_404(self, live):
        _, _, client = live
        with pytest.raises(ServiceError) as exc:
            client.status("j999999-deadbeef")
        assert exc.value.status == 404

    def test_pending_plan_409(self):
        service, httpd = serve(port=0, config=ServiceConfig(workers=0), block=False)
        try:
            with ServiceClient(httpd.url, timeout=10.0) as client:
                sub = client.submit(other(93))
                with pytest.raises(ServiceError) as exc:
                    client.plan(sub.job_id)
            assert exc.value.status == 409
        finally:
            httpd.shutdown()
            httpd.server_close()
            service.close()

    def test_saturation_429_sets_retry_after_header(self):
        service, httpd = serve(
            port=0, config=ServiceConfig(workers=0, queue_size=1), block=False
        )
        try:
            with ServiceClient(httpd.url, timeout=10.0) as client:
                client.submit(other(94))
                with pytest.raises(Saturated) as exc:
                    client.submit(other(95))
            assert exc.value.status == 429 and exc.value.retry_after > 0
            # the header is the transport for the hint
            req = urllib.request.Request(
                httpd.url + "/v1/jobs", data=json.dumps(other(96)).encode(),
                headers={"Content-Type": "application/json"}, method="POST",
            )
            try:
                urllib.request.urlopen(req, timeout=10)
            except urllib.error.HTTPError as err:
                err.close()
                assert err.code == 429
                assert float(err.headers["Retry-After"]) > 0
        finally:
            httpd.shutdown()
            httpd.server_close()
            service.close()

    def test_malformed_body_400(self, live):
        _, httpd, _ = live
        req = urllib.request.Request(
            httpd.url + "/v1/jobs", data=b"{not json", method="POST",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as exc:
            urllib.request.urlopen(req, timeout=10)
        exc.value.close()  # the error owns the response and its socket
        assert exc.value.code == 400

    def test_unknown_route_404(self, live):
        _, httpd, _ = live
        with pytest.raises(urllib.error.HTTPError) as exc:
            urllib.request.urlopen(httpd.url + "/nope", timeout=10)
        exc.value.close()
        assert exc.value.code == 404

    def test_metrics_endpoint_is_json(self, live):
        _, _, client = live
        snap = client.metrics()
        assert "service_submissions" in snap

    def test_srrp_over_http(self, live):
        _, _, client = live
        T = 3
        payload = {"kind": "srrp", "instance": {
            "demand": [0.3] * T,
            "costs": {"compute": [0.4] * T, "storage": [0.0001] * T,
                      "io": [0.2] * T, "transfer_in": [0.1] * T,
                      "transfer_out": [0.17] * T},
            "phi": 0.5, "vm_name": "s",
            "tree": {"root_price": 0.1,
                     "stages": [{"values": [0.1, 0.4], "probs": [0.5, 0.5]}
                                for _ in range(T - 1)]}}}
        result = client.solve(payload, wait_s=30)
        assert result.plan["status"] == "optimal"
        assert "expected_cost" in result.plan


class TestReplanPolicy:
    def test_rolling_sessions_hit_cache_on_replay(self, live):
        _, _, client = live
        demand = [0.42, 0.3, 0.55, 0.2, 0.61, 0.38]
        prices = [0.2, 0.45, 0.15, 0.3, 0.25, 0.4]

        first = ReplanPolicy(client=client, demand=demand, compute_prices=prices,
                             lookahead=3, vm_name="sess-a")
        first.run(wait_s=30)
        assert len(first.results) == len(demand)

        # Same window replayed: every suffix instance digest repeats, so
        # the whole second session runs out of the plan cache — the
        # vm_name label differing must not matter.
        second = ReplanPolicy(client=client, demand=demand, compute_prices=prices,
                              lookahead=3, vm_name="sess-b")
        second.run(wait_s=30)
        assert second.cache_hits == len(demand)
        # and both sessions made identical decisions
        for a, b in zip(first.results, second.results):
            assert a.plan["alpha"] == b.plan["alpha"]

    def test_unchanged_retick_is_cache_hit(self, live):
        _, _, client = live
        policy = ReplanPolicy(client=client, demand=[0.5, 0.4, 0.3],
                              compute_prices=[0.3, 0.2, 0.4], lookahead=2,
                              vm_name="sess-c")
        policy.plan_slot(wait_s=30)
        retick = policy.plan_slot(wait_s=30)  # nothing advanced, nothing changed
        assert retick.hit
