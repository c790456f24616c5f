"""Smoke tests for the solver benchmark and its regression gate."""

import copy
import json

import pytest

from repro.bench import (
    SolverBenchConfig,
    check_solver_regression,
    run_solver_bench,
    summary_lines,
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
    cfg = SolverBenchConfig(
        seed=1, bb_instances=1, bb_vars=8, bb_rows=6, node_limit=300,
        drrp_horizon=6, scenarios=8, recourse_rows=8, recourse_vars=12,
        benders_workers=2, large_horizon=6, large_classes=2, large_resolves=6,
        out="BENCH_test.json",
    )
    return run_solver_bench(cfg), out_dir


class TestRunSolverBench:
    def test_record_shape(self, record):
        rec, _ = record
        assert rec["benchmark"] == "solver"
        assert rec["cpu_count"] >= 1
        for leg in ("bb", "drrp", "benders"):
            assert leg in rec
        for mode in ("warm", "cold"):
            assert rec["bb"][mode]["nodes"] >= 1
            assert rec["bb"][mode]["wall_s"] > 0
        assert rec["bb"]["node_throughput_ratio"] > 0
        assert 0.0 <= rec["bb"]["warm"]["warm_hit_rate"] <= 1.0
        assert rec["benders"]["serial"]["objective"] == pytest.approx(
            rec["benders"]["parallel"]["objective"], rel=1e-6
        )
        lg = rec["large"]
        assert lg["vars"] >= 1 and lg["rows"] >= 1
        assert lg["speedup"] > 0
        assert lg["revised"]["resolves"] == lg["resolves"]
        assert 0 <= lg["revised"]["warm_used"] <= lg["resolves"]

    def test_record_written_and_parses(self, record):
        rec, out_dir = record
        path = out_dir / "BENCH_test.json"
        assert str(path) == rec["path"]
        on_disk = json.loads(path.read_text())
        assert on_disk["benchmark"] == "solver"
        assert on_disk["seed"] == 1

    def test_summary_lines(self, record):
        rec, _ = record
        lines = summary_lines(rec)
        assert len(lines) == 4
        assert lines[0].startswith("bb:")
        assert lines[2].startswith("benders:")
        assert lines[3].startswith("large:")

    def test_cpu_count_is_delivered_not_advertised(self, record):
        rec, _ = record
        assert 1 <= rec["cpu_count"] <= rec["cpu_count_advertised"]
        assert rec["cpu_parallelism"] > 0

    def test_summary_shows_delivered_of_advertised_cpus(self, record):
        rec, _ = record
        line = summary_lines(rec)[2]
        assert f"{rec['cpu_count']} of {rec['cpu_count_advertised']} CPUs" in line

    def test_scenarios_floor_enforced(self):
        with pytest.raises(ValueError, match=">= 8 scenarios"):
            SolverBenchConfig(scenarios=4)


class TestRegressionGate:
    def test_self_comparison_passes(self, record):
        rec, _ = record
        assert check_solver_regression(rec, rec) == []

    def test_throughput_regression_fails(self, record):
        rec, _ = record
        bad = copy.deepcopy(rec)
        bad["bb"]["node_throughput_ratio"] = 0.5 * rec["bb"]["node_throughput_ratio"]
        failures = check_solver_regression(bad, rec)
        assert any("node-throughput ratio regressed" in f for f in failures)

    def test_warm_slower_than_cold_fails(self, record):
        rec, _ = record
        bad = copy.deepcopy(rec)
        bad["bb"]["node_throughput_ratio"] = 0.9
        base = copy.deepcopy(rec)
        base["bb"]["node_throughput_ratio"] = 1.0  # permissive baseline
        failures = check_solver_regression(bad, base)
        assert any("slower than cold" in f for f in failures)

    def test_benders_speedup_gated_only_with_cores(self, record):
        rec, _ = record
        slow = copy.deepcopy(rec)
        slow["benders"]["speedup"] = 0.5
        slow["cpu_count"] = 1
        assert not any(
            "Benders" in f for f in check_solver_regression(slow, rec)
        )
        slow["cpu_count"] = 8
        assert any("Benders" in f for f in check_solver_regression(slow, rec))

    @staticmethod
    def _as_big(rec):
        # Inflate the fixture's tiny tier to gate-eligible dimensions so the
        # machine-independent checks fire without paying for a real 768-var
        # run inside the test suite.
        big = copy.deepcopy(rec)
        big["large"]["vars"] = 768
        big["large"]["rows"] = 96
        return big

    def test_large_speedup_below_floor_fails(self, record):
        rec, _ = record
        base = self._as_big(rec)
        bad = copy.deepcopy(base)
        bad["large"]["speedup"] = 1.0
        failures = check_solver_regression(bad, base)
        assert any("speedup 1.00x is below" in f for f in failures)

    def test_large_warm_rejection_fails(self, record):
        rec, _ = record
        base = self._as_big(rec)
        bad = copy.deepcopy(base)
        bad["large"]["revised"]["warm_used"] = 0
        failures = check_solver_regression(bad, base)
        assert any("warm bases are being rejected" in f for f in failures)

    def test_missing_large_tier_fails(self, record):
        rec, _ = record
        bad = copy.deepcopy(rec)
        del bad["large"]
        failures = check_solver_regression(bad, rec)
        assert any("missing the large" in f for f in failures)

    def test_shrunken_large_tier_fails(self, record):
        rec, _ = record
        base = self._as_big(rec)
        failures = check_solver_regression(rec, base)
        assert any("shrank" in f for f in failures)

    def test_host_delivering_one_of_two_cpus_passes_against_itself(self, record):
        rec, _ = record
        oversubscribed = copy.deepcopy(rec)
        oversubscribed["cpu_count_advertised"] = 2
        oversubscribed["cpu_count"] = 1
        oversubscribed["benders"]["speedup"] = 0.2
        assert check_solver_regression(oversubscribed, oversubscribed) == []

    def test_benders_floor_fires_when_two_cpus_are_delivered(self, record):
        rec, _ = record
        slow = copy.deepcopy(rec)
        slow["cpu_count_advertised"] = 2
        slow["cpu_count"] = 2
        slow["benders"]["speedup"] = 1.0
        assert any("Benders" in f for f in check_solver_regression(slow, slow))
