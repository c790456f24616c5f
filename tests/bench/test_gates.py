"""The bench gate table: committed records, the service gates, rule edges."""

import copy
import json
from pathlib import Path

import pytest

from repro.bench.gates import check_record

ROOT = Path(__file__).resolve().parents[2]

SERVICE = {
    "name": "service",
    "requests": 50,
    "dropped": 0,
    "duplicate_share": 0.3,
    "cache": {"hit_rate": 0.34},
    "saturation": {"probes": 12, "rejected": 11},
}


def _committed(name):
    return json.loads((ROOT / name).read_text())


@pytest.mark.parametrize(
    "name, baseline",
    [
        ("BENCH_solver.json", "self"),
        ("BENCH_fleet.json", "self"),
        ("BENCH_sim.json", "self"),
        ("service fixture", None),
    ],
)
def test_every_record_passes_its_own_gates(name, baseline):
    record = SERVICE if name == "service fixture" else _committed(name)
    assert check_record(record, record if baseline == "self" else None) == []


class TestServiceGates:
    def test_dropped_request_fails(self):
        bad = {**SERVICE, "dropped": 3}
        assert check_record(bad) == ["dropped requests 3 above 0"]

    def test_cache_hit_rate_below_duplicate_share_fails(self):
        bad = {**SERVICE, "cache": {"hit_rate": 0.1}}
        assert check_record(bad) == [
            "cache hit rate 0.1 below duplicate_share 0.3"
        ]

    def test_no_429_fails(self):
        bad = {**SERVICE, "saturation": {"probes": 12, "rejected": 0}}
        assert check_record(bad) == ["saturation 429s 0 below 1"]


class TestRuleEdges:
    def test_unknown_family_and_mismatched_baseline_fail(self):
        assert check_record({"benchmark": "novel"}) == [
            "no gates for bench family 'novel'"
        ]
        solver = _committed("BENCH_solver.json")
        assert check_record(solver, _committed("BENCH_fleet.json")) == [
            "baseline is a 'fleet' record, not 'solver'"
        ]

    def test_baseline_rows_skip_without_a_baseline(self):
        solver = copy.deepcopy(_committed("BENCH_solver.json"))
        solver["bb"]["warm"]["warm_hit_rate"] = 0.0  # a FACTOR row: needs a baseline
        assert check_record(solver) == []

    def test_band_skips_around_a_zero_baseline(self):
        base = copy.deepcopy(_committed("BENCH_fleet.json"))
        base["plan"]["escalation_fraction"] = 0.0
        assert check_record(_committed("BENCH_fleet.json"), base) == []

    def test_excess_band_needs_a_baseline_above_one(self):
        base = copy.deepcopy(_committed("BENCH_fleet.json"))
        base["cohort"]["cost_ratio_mean"] = 1.0
        fresh = copy.deepcopy(base)
        fresh["cohort"]["cost_ratio_mean"] = 1.04  # under the 1.05 ceiling
        assert check_record(fresh, base) == []

    def test_missing_bound_path_skips_the_row(self):
        # Records written before the sweep carried best_nonfixed_ratio.
        sim = copy.deepcopy(_committed("BENCH_sim.json"))
        sim["bid_sweep"].pop("best_nonfixed_ratio", None)
        sim["bid_sweep"]["policies"]["bid-fixed"]["ratio"] = 1.0
        assert not any("bid-fixed" in f for f in check_record(sim))
        sim["bid_sweep"]["best_nonfixed_ratio"] = 1.01
        assert any("bid-fixed" in f and "not above" in f for f in check_record(sim))

    def test_wildcard_over_a_missing_dict_reports_it(self):
        sim = copy.deepcopy(_committed("BENCH_sim.json"))
        del sim["ratios"]
        failures = check_record(sim)
        assert "* cost / oracle: ratios.* missing from the record" in failures
