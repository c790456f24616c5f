"""Smoke tests for the solver benchmark and its regression gate."""

import copy
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.bench import SolverBenchConfig, check_record, run_solver_bench, summary_lines
from repro.solver import scipy_available


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
        assert lg["revised"]["resolves"] == lg["resolves"]
        assert 0 <= lg["revised"]["warm_used"] <= lg["resolves"]
        if scipy_available():
            assert lg["highs"]["resolves"] == lg["resolves"]
            assert lg["speedup_vs_highs"] > 0
        else:
            assert "highs" not in lg and "speedup_vs_highs" not in lg

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

    def test_master_backend_recorded(self, record):
        rec, _ = record
        expected = "scipy" if scipy_available() else "simplex"
        for leg in ("serial", "parallel"):
            assert rec["benders"][leg]["backend"] == expected
        assert f"master on {expected}" in summary_lines(rec)[2]

    def test_runs_without_scipy(self, tmp_path):
        # A module named scipy that refuses to import shadows the real one.
        (tmp_path / "scipy.py").write_text('raise ImportError("blocked")\n')
        script = textwrap.dedent("""
            import json, warnings
            from repro.bench import SolverBenchConfig, run_solver_bench
            cfg = SolverBenchConfig(
                seed=1, bb_instances=1, bb_vars=8, bb_rows=6, node_limit=300,
                drrp_horizon=6, scenarios=8, recourse_rows=8, recourse_vars=12,
                benders_workers=2, large_horizon=6, large_classes=2,
                large_resolves=6, out=None,
            )
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                rec = run_solver_bench(cfg)
            print(json.dumps({"backends": [rec["benders"][leg]["backend"]
                                           for leg in ("serial", "parallel")],
                              "highs": "highs" in rec["large"]}))
        """)
        src = str(Path(__file__).resolve().parents[2] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(tmp_path), src])}
        out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                             text=True, env=env, timeout=300)
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stdout.splitlines()[-1]) == {
            "backends": ["simplex", "simplex"], "highs": False,
        }

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
        assert check_record(rec, rec) == []

    def test_throughput_regression_fails(self, record):
        rec, _ = record
        bad = copy.deepcopy(rec)
        bad["bb"]["node_throughput_ratio"] = 0.5 * rec["bb"]["node_throughput_ratio"]
        failures = check_record(bad, rec)
        assert any("node-throughput ratio (x) regressed" in f for f in failures)

    def test_warm_slower_than_cold_fails(self, record):
        rec, _ = record
        bad = copy.deepcopy(rec)
        bad["bb"]["node_throughput_ratio"] = 0.9
        base = copy.deepcopy(rec)
        base["bb"]["node_throughput_ratio"] = 1.0  # permissive baseline
        failures = check_record(bad, base)
        assert any("node-throughput ratio (x) 0.9 below 1" in f for f in failures)

    def test_benders_speedup_gated_only_with_cores(self, record):
        rec, _ = record
        slow = copy.deepcopy(rec)
        slow["benders"]["speedup"] = 0.5
        slow["cpu_count"] = 1
        assert not any(
            "benders speedup" in f for f in check_record(slow, rec)
        )
        slow["cpu_count"] = 8
        assert any("benders speedup" in f for f in check_record(slow, rec))

    @staticmethod
    def _as_big(rec, speedup_vs_highs=6.5):
        # Inflate the fixture's tiny tier to gate-eligible dimensions, with
        # a HiGHS leg, so the machine-independent checks fire without
        # paying for a real 768-var run inside the test suite (or needing
        # SciPy for it).
        big = copy.deepcopy(rec)
        big["large"]["vars"] = 768
        big["large"]["rows"] = 96
        big["large"]["highs"] = {"wall_s": 0.65, "resolves": big["large"]["resolves"]}
        big["large"]["speedup_vs_highs"] = speedup_vs_highs
        return big

    def test_large_speedup_below_floor_fails(self, record):
        # A baseline that beat HiGHS holds the record to the 1.0 floor even
        # where the tolerance band alone would let it through.
        rec, _ = record
        base = self._as_big(rec, speedup_vs_highs=1.2)
        bad = self._as_big(rec, speedup_vs_highs=0.95)
        failures = check_record(bad, base)
        assert any("speedup vs HiGHS (x) 0.95 below 1" in f for f in failures)
        assert not any("regressed" in f and "HiGHS" in f for f in failures)

    def test_large_speedup_regression_vs_baseline_fails(self, record):
        rec, _ = record
        base = self._as_big(rec, speedup_vs_highs=6.5)
        bad = self._as_big(rec, speedup_vs_highs=3.0)
        failures = check_record(bad, base)
        assert any("speedup vs HiGHS (x) regressed to 3," in f for f in failures)
        assert check_record(base, base) == []

    def test_large_floor_only_when_baseline_cleared_it(self, record):
        # A baseline below 1.0 (a slow or noisy host) is not held to the
        # floor: a record must always pass against itself.
        rec, _ = record
        slow = self._as_big(rec, speedup_vs_highs=0.8)
        assert check_record(slow, slow) == []

    def test_large_speedup_skipped_without_highs_leg(self, record):
        # A host without SciPy records no HiGHS leg; the ratio checks skip
        # on either side while the warm-hit check still runs.
        rec, _ = record
        base = self._as_big(rec, speedup_vs_highs=6.5)
        no_highs = self._as_big(rec)
        del no_highs["large"]["highs"], no_highs["large"]["speedup_vs_highs"]
        assert check_record(no_highs, base) == []
        assert check_record(base, no_highs) == []
        no_highs["large"]["revised"]["warm_used"] = 0
        assert any(
            "large warm re-solves 0 below" in f
            for f in check_record(no_highs, base)
        )

    def test_large_warm_rejection_fails(self, record):
        rec, _ = record
        base = self._as_big(rec)
        bad = copy.deepcopy(base)
        bad["large"]["revised"]["warm_used"] = 0
        failures = check_record(bad, base)
        assert any("large warm re-solves 0 below" in f for f in failures)

    def test_missing_large_tier_fails(self, record):
        rec, _ = record
        bad = copy.deepcopy(rec)
        del bad["large"]
        failures = check_record(bad, rec)
        assert any("large." in f and "missing" in f for f in failures)

    def test_shrunken_large_tier_fails(self, record):
        rec, _ = record
        base = self._as_big(rec)
        failures = check_record(rec, base)
        assert any("large vars 24 below 200" in f for f in failures)

    def test_host_delivering_one_of_two_cpus_passes_against_itself(self, record):
        rec, _ = record
        oversubscribed = copy.deepcopy(rec)
        oversubscribed["cpu_count_advertised"] = 2
        oversubscribed["cpu_count"] = 1
        oversubscribed["benders"]["speedup"] = 0.2
        assert check_record(oversubscribed, oversubscribed) == []

    def test_benders_floor_fires_when_two_cpus_are_delivered(self, record):
        rec, _ = record
        slow = copy.deepcopy(rec)
        slow["cpu_count_advertised"] = 2
        slow["cpu_count"] = 2
        slow["benders"]["speedup"] = 1.0
        assert any("benders speedup" in f for f in check_record(slow, slow))
