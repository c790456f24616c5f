"""Campaigns routed through a live planning server.

Exercises the service leg the bench gates: bit-for-bit agreement with the
in-process planner, plan-cache hits on replay, and the two backpressure
modes (inline degraded plans / reject-retry-fallback) against a server
that can never drain its queue.
"""

import numpy as np
import pytest

from repro.market import MeanBids
from repro.service import ServiceClient, ServiceConfig, drrp_payload, serve
from repro.sim import (
    CampaignConfig,
    HorizonConfig,
    ServiceDRRPPolicy,
    run_campaign,
)

CONFIG = CampaignConfig(
    slots=24,
    estimation_slots=120,
    horizon=HorizonConfig(prediction=12, control=6, coarse_block=3),
    policies=("oracle", "rolling-drrp", "rolling-drrp-service"),
)


@pytest.fixture(scope="module")
def live_server():
    service, httpd = serve(port=0, config=ServiceConfig(workers=2), block=False)
    yield httpd.url
    httpd.shutdown()
    httpd.server_close()
    service.close()


@pytest.fixture(scope="module")
def routed(live_server):
    first = run_campaign(CONFIG, service_url=live_server)
    replay = run_campaign(
        CampaignConfig(
            slots=CONFIG.slots,
            estimation_slots=CONFIG.estimation_slots,
            horizon=CONFIG.horizon,
            policies=("rolling-drrp-service",),
        ),
        service_url=live_server,
    )
    return first, replay


class TestServiceConsistency:
    def test_routed_cost_matches_in_process_bit_for_bit(self, routed):
        first, _ = routed
        inproc = first.outcomes["rolling-drrp"].result
        svc = first.outcomes["rolling-drrp-service"].result
        assert svc.total_cost == inproc.total_cost  # exact, no approx
        np.testing.assert_array_equal(svc.generated, inproc.generated)
        np.testing.assert_array_equal(svc.inventory, inproc.inventory)
        np.testing.assert_array_equal(svc.paid_prices, inproc.paid_prices)

    def test_replay_runs_from_the_plan_cache(self, routed):
        first, replay = routed
        out = replay.outcomes["rolling-drrp-service"]
        assert out.service_requests == 4  # 24 slots / control 6
        assert out.cache_hits == out.service_requests  # content-addressed
        # ...and cached plans still reproduce the same realized cost
        assert (
            replay.outcomes["rolling-drrp-service"].result.total_cost
            == first.outcomes["rolling-drrp-service"].result.total_cost
        )

    def test_healthy_server_never_degrades(self, routed):
        first, _ = routed
        out = first.outcomes["rolling-drrp-service"]
        assert out.degraded_plans == 0
        assert out.local_fallbacks == 0


class TestBackpressure:
    @pytest.fixture(scope="class")
    def saturated(self):
        """A choked server + the two client strategies run against it."""
        choked = ServiceConfig(workers=0, queue_size=1, default_time_limit=5.0)
        service, httpd = serve(port=0, config=choked, block=False)
        client = ServiceClient(httpd.url, timeout=10.0)
        try:
            # Occupy the only queue slot; no worker will ever drain it.
            client.submit(drrp_payload([1.0], [0.1]))
            bp_config = CampaignConfig(
                slots=12,
                estimation_slots=120,
                horizon=CONFIG.horizon,
                policies=("oracle",),
            )
            degrade = ServiceDRRPPolicy(
                MeanBids(), client, horizon=CONFIG.horizon,
                on_overload="degrade", name="svc-degrade", wait_s=1.0,
            )
            reject = ServiceDRRPPolicy(
                MeanBids(), client, horizon=CONFIG.horizon,
                name="svc-reject", max_retries=1, retry_cap_s=0.01, wait_s=1.0,
            )
            yield run_campaign(
                bp_config,
                extra_policies={"svc-degrade": degrade, "svc-reject": reject},
            )
        finally:
            client.close()
            httpd.shutdown()
            httpd.server_close()
            service.close()

    def test_degrade_mode_answers_inline(self, saturated):
        out = saturated.outcomes["svc-degrade"]
        assert out.replans == 2  # 12 slots / control 6
        assert out.degraded_plans == out.replans
        assert out.local_fallbacks == 0
        assert out.result.forced_topups == 0  # demand still met

    def test_reject_mode_falls_back_locally(self, saturated):
        out = saturated.outcomes["svc-reject"]
        assert out.replans == 2
        assert out.local_fallbacks == out.replans
        assert out.degraded_plans == 0
        assert out.result.forced_topups == 0

    def test_degraded_plan_costs_at_least_the_oracle(self, saturated):
        for name in ("svc-degrade", "svc-reject"):
            assert (
                saturated.outcomes[name].result.total_cost
                >= saturated.oracle_cost - 1e-9
            )
