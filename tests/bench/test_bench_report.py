"""Bench-report rendering on fixture records (no live benchmarks)."""

import json
from pathlib import Path

from repro.bench.report import (
    BENCH_FILES,
    bench_kind,
    headline_metrics,
    load_records,
    report_lines,
)

SOLVER = {
    "benchmark": "solver",
    "bb": {"node_throughput_ratio": 2.36, "warm": {"warm_hit_rate": 0.9668}},
    "benders": {"speedup": 0.572},
}
SIM = {
    "benchmark": "sim",
    "ratios": {"no-plan": 1.9907, "oracle": 1.0, "rolling-drrp": 1.2219},
    "service": {"replay_cache_hit_rate": 1.0},
}
SERVICE = {
    "name": "service",
    "requests": 40,
    "dropped": 2,
    "duplicate_share": 0.25,
    "cache": {"hit_rate": 0.8},
}


def _write(root, name, record):
    (root / name).write_text(json.dumps(record))


class TestHeadlineMetrics:
    def test_kind_detection(self):
        assert bench_kind(SOLVER) == "solver"
        assert bench_kind(SERVICE) == "service"  # loadgen labels with "name"
        assert bench_kind({}) == "?"

    def test_solver_metrics(self):
        m = headline_metrics(SOLVER)
        assert m["bb node-throughput ratio (x)"] == 2.36
        assert m["bb warm-hit rate"] == 0.9668
        assert m["benders speedup (x)"] == 0.572

    def test_sim_metrics_sorted_policies(self):
        m = headline_metrics(SIM)
        assert list(m)[:3] == [
            "no-plan cost / oracle", "oracle cost / oracle",
            "rolling-drrp cost / oracle",
        ]
        assert m["service replay cache-hit rate"] == 1.0

    def test_service_metrics(self):
        m = headline_metrics(SERVICE)
        assert m["cache hit rate"] == 0.8
        assert m["dropped requests"] == 2
        assert "saturation 429s" not in m  # the fixture has no probe

    def test_malformed_record_never_raises(self):
        assert headline_metrics({"benchmark": "solver"}) == {}
        assert headline_metrics({"benchmark": "solver", "bb": None}) == {}
        assert headline_metrics({"benchmark": "novel-family", "x": 1}) == {}


class TestLoadRecords:
    def test_skips_missing_and_unparsable(self, tmp_path):
        _write(tmp_path, "BENCH_solver.json", SOLVER)
        (tmp_path / "BENCH_sim.json").write_text("{not json")
        records = load_records(tmp_path)
        assert list(records) == ["BENCH_solver.json"]

    def test_only_known_names(self, tmp_path):
        _write(tmp_path, "BENCH_other.json", SOLVER)
        assert load_records(tmp_path) == {}


class TestReportLines:
    def test_committed_only(self, tmp_path):
        _write(tmp_path, "BENCH_solver.json", SOLVER)
        _write(tmp_path, "BENCH_sim.json", SIM)
        lines = report_lines(tmp_path)
        text = "\n".join(lines)
        assert text.index("solver (BENCH_solver.json)") < text.index("sim (BENCH_sim.json)")
        assert "2.3600" in text and "0.9668" in text
        # Without a fresh dir there is no delta column.
        assert "%" not in text

    def test_committed_vs_fresh_delta(self, tmp_path):
        committed, fresh = tmp_path / "c", tmp_path / "f"
        committed.mkdir(), fresh.mkdir()
        _write(committed, "BENCH_solver.json", SOLVER)
        newer = json.loads(json.dumps(SOLVER))
        newer["bb"]["node_throughput_ratio"] = 2.36 * 1.10
        _write(fresh, "BENCH_solver.json", newer)
        text = "\n".join(report_lines(committed, fresh))
        assert "+10.0%" in text

    def test_fresh_only_family(self, tmp_path):
        committed, fresh = tmp_path / "c", tmp_path / "f"
        committed.mkdir(), fresh.mkdir()
        _write(committed, "BENCH_solver.json", SOLVER)
        _write(fresh, "BENCH_service.json", SERVICE)
        text = "\n".join(report_lines(committed, fresh))
        assert "service (BENCH_service.json)" in text
        assert "cache hit rate" in text

    def test_empty_dirs_explain(self, tmp_path):
        lines = report_lines(tmp_path)
        assert len(lines) == 1 and "no BENCH_" in lines[0]

    def test_headline_free_record_notes_it(self, tmp_path):
        _write(tmp_path, "BENCH_solver.json", {"benchmark": "solver"})
        assert "  (no headline metrics)" in report_lines(tmp_path)

    def test_display_order_matches_bench_files(self):
        assert BENCH_FILES == (
            "BENCH_solver.json", "BENCH_fleet.json", "BENCH_sim.json",
            "BENCH_service.json")

    def test_committed_records_show_every_family(self):
        # The repo's own baselines: every committed family is reported,
        # with the gated numbers the old hand-kept headline list missed.
        text = "\n".join(report_lines(Path(__file__).resolve().parents[2]))
        for name in ("BENCH_solver.json", "BENCH_fleet.json", "BENCH_sim.json"):
            assert f"({name})" in text
        assert "large speedup vs HiGHS (x)" in text
        assert "cohort heuristic/MILP cost ratio" in text
