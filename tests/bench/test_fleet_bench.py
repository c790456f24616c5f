"""Smoke tests for the fleet benchmark and its regression gate."""

import copy
import json

import pytest

from repro.bench import (
    FleetBenchConfig,
    check_record,
    fleet_summary_lines,
    run_fleet_bench,
)


@pytest.fixture(scope="module")
def record(tmp_path_factory, request):
    # One tiny-but-real run shared by the module: every leg executes, the
    # record is written through the REPRO_BENCH_DIR path, and tests below
    # only inspect the result.
    out_dir = tmp_path_factory.mktemp("bench")
    mp = pytest.MonkeyPatch()
    mp.setenv("REPRO_BENCH_DIR", str(out_dir))
    request.addfinalizer(mp.undo)
    cfg = FleetBenchConfig(
        seed=1, tenants=20, horizon=10, milp_sample=4, workers=1,
        out="BENCH_test.json",
    )
    return run_fleet_bench(cfg), out_dir


class TestRunFleetBench:
    def test_record_shape(self, record):
        rec, _ = record
        assert rec["benchmark"] == "fleet"
        assert rec["cpu_count"] >= 1
        for leg in ("generate", "plan", "cohort", "feasibility"):
            assert leg in rec
        assert rec["plan"]["tenants_per_minute"] > 0
        assert rec["plan"]["total_cost"] > 0
        assert sum(rec["plan"]["methods"].values()) == 20
        assert 0.0 <= rec["plan"]["escalation_fraction"] <= 1.0
        assert 0.0 <= rec["plan"]["shape_hit_rate"] <= 1.0
        assert rec["feasibility"]["feasible"] is True

    def test_cohort_ratio_is_a_valid_upper_bound(self, record):
        rec, _ = record
        # The MILP is exact, so the heuristic can never price below it.
        assert rec["cohort"]["cost_ratio_mean"] >= 1.0 - 1e-9
        assert rec["cohort"]["cost_ratio_max"] >= rec["cohort"]["cost_ratio_mean"]
        assert rec["cohort"]["sampled"] >= 1

    def test_record_written_and_parses(self, record):
        rec, out_dir = record
        path = out_dir / "BENCH_test.json"
        assert str(path) == rec["path"]
        on_disk = json.loads(path.read_text())
        assert on_disk["benchmark"] == "fleet"
        assert on_disk["seed"] == 1

    def test_summary_lines(self, record):
        rec, _ = record
        lines = fleet_summary_lines(rec)
        assert len(lines) == 4
        assert any("tenants" in line for line in lines)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FleetBenchConfig(tenants=0)
        with pytest.raises(ValueError):
            FleetBenchConfig(utilization=0.0)
        with pytest.raises(ValueError):
            FleetBenchConfig(milp_sample=0)


class TestCheckFleetRegression:
    def test_self_comparison_passes(self, record):
        rec, _ = record
        assert check_record(rec, rec) == []

    def test_infeasible_record_fails(self, record):
        rec, _ = record
        bad = copy.deepcopy(rec)
        bad["feasibility"]["feasible"] = False
        assert any("plan feasible 0 below 1" in f for f in check_record(bad, rec))

    def test_cost_ratio_ceiling_fails(self, record):
        rec, _ = record
        bad = copy.deepcopy(rec)
        bad["cohort"]["cost_ratio_mean"] = 1.2
        failures = check_record(bad, rec)
        assert any("cost ratio 1.2 above 1.05" in f for f in failures)

    def test_cost_ratio_band_fails(self, record):
        rec, _ = record
        base = copy.deepcopy(rec)
        base["cohort"]["cost_ratio_mean"] = 1.02
        bad = copy.deepcopy(rec)
        bad["cohort"]["cost_ratio_mean"] = 1.045  # under the absolute ceiling
        assert any("regressed" in f for f in check_record(bad, base))

    def test_shape_hit_rate_regression_fails(self, record):
        rec, _ = record
        base = copy.deepcopy(rec)
        base["plan"]["shape_hit_rate"] = 0.9
        bad = copy.deepcopy(rec)
        bad["plan"]["shape_hit_rate"] = 0.2
        assert any("shape-cache" in f for f in check_record(bad, base))

    def test_escalation_collapse_fails(self, record):
        rec, _ = record
        base = copy.deepcopy(rec)
        base["plan"]["escalation_fraction"] = 0.15
        bad = copy.deepcopy(rec)
        bad["plan"]["escalation_fraction"] = 0.0
        assert any("escalation" in f for f in check_record(bad, base))
