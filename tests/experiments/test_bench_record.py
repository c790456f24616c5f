"""Smoke-test the benchmark harness's machine-readable BENCH_<name>.json.

``benchmarks/conftest.py`` is not a package, so load it by path; the
record writer itself must work under plain pytest (no pytest-benchmark).
"""

import importlib.util
import json
from pathlib import Path

from repro.experiments import fig4_updates, fig10_drrp_costs
from repro.solver.telemetry import EventRecorder


def _load_bench_conftest():
    path = Path(__file__).resolve().parents[2] / "benchmarks" / "conftest.py"
    spec = importlib.util.spec_from_file_location("bench_conftest", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBenchRecord:
    def test_writes_record_for_figure_bench(self, tmp_path, monkeypatch):
        bench = _load_bench_conftest()
        monkeypatch.setenv("REPRO_BENCH_DIR", str(tmp_path))
        result = fig4_updates.run()
        path = bench.write_bench_record(result, 0.123)
        assert path == tmp_path / "BENCH_fig4.json"
        payload = json.loads(path.read_text())
        assert payload["name"] == "fig4"
        assert payload["median_wall_s"] == 0.123
        assert payload["manifest_digest"] == result.digest()
        assert payload["counters"] == {}  # no recorder attached

    def test_counters_come_from_recorded_events(self, tmp_path, monkeypatch):
        bench = _load_bench_conftest()
        monkeypatch.setenv("REPRO_BENCH_DIR", str(tmp_path))
        recorder = EventRecorder()
        result = fig10_drrp_costs.run(horizon=6, n_trials=1, listener=recorder)
        path = bench.write_bench_record(result, 0.5, recorder=recorder)
        payload = json.loads(path.read_text())
        counters = payload["counters"]
        assert counters["events"] == len(recorder)
        assert counters["solves"] == 3  # one DRRP solve per planning class
        assert "phase_seconds" in counters
        assert payload["manifest_digest"].startswith("sha256:")

    def test_env_var_redirects_output(self, tmp_path, monkeypatch):
        bench = _load_bench_conftest()
        monkeypatch.setenv("REPRO_BENCH_DIR", str(tmp_path / "env"))
        result = fig4_updates.run()
        path = bench.write_bench_record(result, 0.01)
        assert path.parent == tmp_path / "env"

    def test_non_experiment_result_yields_no_record(self, tmp_path, monkeypatch):
        bench = _load_bench_conftest()
        monkeypatch.setenv("REPRO_BENCH_DIR", str(tmp_path))
        assert bench.write_bench_record(object(), 0.1) is None
        assert list(tmp_path.iterdir()) == []
