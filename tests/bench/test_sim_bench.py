"""Smoke tests for the simulation benchmark and its regression gate."""

import copy
import json

import pytest

from repro.bench import check_record
from repro.sim import SimBenchConfig, run_sim_bench
from repro.sim.bench import summary_lines


@pytest.fixture(scope="module")
def record(tmp_path_factory, request):
    # One tiny-but-real run shared by the module: all four legs execute
    # (campaign, service consistency + replay, backpressure, bid sweep)
    # and the record is written through the REPRO_BENCH_DIR path.
    out_dir = tmp_path_factory.mktemp("bench")
    mp = pytest.MonkeyPatch()
    mp.setenv("REPRO_BENCH_DIR", str(out_dir))
    request.addfinalizer(mp.undo)
    cfg = SimBenchConfig(
        slots=48, estimation_slots=240, prediction=24, control=12,
        coarse_block=4, service_slots=24, bid_slots=48,
        out="BENCH_test_sim.json",
    )
    return run_sim_bench(cfg), out_dir


class TestRunSimBench:
    def test_record_shape(self, record):
        rec, _ = record
        assert rec["benchmark"] == "sim"
        for key in ("ratios", "service", "backpressure", "bid_sweep",
                    "manifest_digest"):
            assert key in rec
        assert rec["ratios"]["oracle"] == pytest.approx(1.0)
        assert rec["replans"] == 4  # 48 slots / control 12
        assert rec["replan_latency"]["count"] == 4

    def test_service_leg_consistent_and_cached(self, record):
        rec, _ = record
        svc = rec["service"]
        assert svc["consistent_with_in_process"]
        assert svc["routed_cost"] == svc["in_process_cost"]
        assert svc["replay_cache_hit_rate"] == pytest.approx(1.0)

    def test_backpressure_legs_exercised(self, record):
        rec, _ = record
        bp = rec["backpressure"]
        assert bp["degrade"]["degraded_plans"] == bp["degrade"]["replans"] > 0
        assert bp["reject"]["local_fallbacks"] == bp["reject"]["replans"] > 0
        assert bp["degrade"]["forced_topups"] == 0
        assert bp["reject"]["forced_topups"] == 0

    def test_record_written_and_parses(self, record):
        rec, out_dir = record
        path = out_dir / "BENCH_test_sim.json"
        assert str(path) == rec["path"]
        on_disk = json.loads(path.read_text())
        assert on_disk["benchmark"] == "sim"
        assert on_disk["ratios"] == rec["ratios"]

    def test_bid_sweep_leg(self, record):
        rec, _ = record
        sweep = rec["bid_sweep"]
        assert set(sweep["policies"]) == {
            "bid-fixed", "bid-od-index", "bid-percentile", "bid-rebid",
        }
        for entry in sweep["policies"].values():
            assert entry["ratio"] >= 1.0 - 1e-9
        fixed = sweep["policies"]["bid-fixed"]["ratio"]
        assert any(
            e["ratio"] < fixed
            for n, e in sweep["policies"].items() if n != "bid-fixed"
        )

    def test_summary_lines(self, record):
        rec, _ = record
        lines = summary_lines(rec)
        assert len(lines) == 5
        assert "campaign" in lines[0]
        assert "bid sweep" in lines[-1]


class TestRegressionGate:
    def test_self_check_passes(self, record):
        rec, _ = record
        assert check_record(rec, rec) == []

    def test_ratio_drift_fails(self, record):
        rec, _ = record
        tampered = copy.deepcopy(rec)
        tampered["ratios"]["rolling-drrp"] *= 2.0
        failures = check_record(rec, tampered)
        assert any("drifted" in f for f in failures)

    def test_different_config_skips_ratio_comparison(self, record):
        rec, _ = record
        other = copy.deepcopy(rec)
        other["config"]["slots"] = 9999
        other["ratios"]["rolling-drrp"] *= 2.0
        assert check_record(rec, other) == []

    def test_broken_ordering_fails(self, record):
        rec, _ = record
        broken = copy.deepcopy(rec)
        broken["ratios"]["no-plan"] = broken["ratios"]["rolling-drrp"] - 0.01
        failures = check_record(broken, rec)
        assert any("no-plan cost / oracle" in f and "not above" in f for f in failures)

    def test_beating_the_oracle_fails(self, record):
        rec, _ = record
        broken = copy.deepcopy(rec)
        broken["ratios"]["rolling-drrp"] = 0.9
        failures = check_record(broken, rec)
        assert any("rolling-drrp cost / oracle 0.9 below 1" in f for f in failures)

    def test_service_divergence_fails(self, record):
        rec, _ = record
        broken = copy.deepcopy(rec)
        broken["service"]["consistent_with_in_process"] = False
        failures = check_record(broken, rec)
        assert any("service route matches in-process 0 below 1" in f for f in failures)

    def test_missing_policy_fails(self, record):
        rec, _ = record
        pruned = copy.deepcopy(rec)
        del pruned["ratios"]["rolling-drrp"]
        failures = check_record(pruned, rec)
        assert any("missing" in f for f in failures)

    def test_bid_sweep_fixed_bid_must_be_beaten(self, record):
        rec, _ = record
        broken = copy.deepcopy(rec)
        best = min(
            e["ratio"] for e in broken["bid_sweep"]["policies"].values()
        )
        broken["bid_sweep"]["policies"]["bid-fixed"]["ratio"] = best - 0.01
        failures = check_record(broken, rec)
        assert any("bid-fixed cost / oracle" in f and "not above" in f for f in failures)

    def test_bid_sweep_beating_the_oracle_fails(self, record):
        rec, _ = record
        broken = copy.deepcopy(rec)
        broken["bid_sweep"]["policies"]["bid-rebid"]["ratio"] = 0.9
        failures = check_record(broken, rec)
        assert any("bid sweep bid-rebid cost / oracle 0.9 below 1" in f for f in failures)

    def test_bid_sweep_ratio_drift_fails(self, record):
        rec, _ = record
        tampered = copy.deepcopy(rec)
        tampered["bid_sweep"]["policies"]["bid-percentile"]["ratio"] *= 2.0
        failures = check_record(rec, tampered)
        assert any("bid sweep" in f and "drifted" in f for f in failures)

    def test_bid_sweep_different_config_skips_drift(self, record):
        rec, _ = record
        other = copy.deepcopy(rec)
        other["bid_sweep"]["slots"] = 9999
        other["bid_sweep"]["policies"]["bid-percentile"]["ratio"] *= 2.0
        assert check_record(rec, other) == []
