"""Metrics instruments, the no-op disabled path, and the event aggregator."""

import math

import pytest

from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    MetricsAggregator,
    MetricsRegistry,
    NULL_REGISTRY,
    Series,
)
from repro.solver.telemetry import SolveEvent


def ev(kind, t, **data):
    return SolveEvent(kind=kind, t=float(t), data=data)


class TestInstruments:
    def test_counter_and_gauge(self):
        c = Counter()
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        g = Gauge()
        g.set(4)
        g.set(7)
        assert g.value == 7.0 and g.snapshot()["type"] == "gauge"

    def test_histogram_buckets_and_stats(self):
        h = Histogram(buckets=(1.0, 10.0))
        for v in (0.5, 2.0, 5.0, 50.0):
            h.observe(v)
        assert h.count == 4 and h.min == 0.5 and h.max == 50.0
        assert abs(h.mean - 14.375) < 1e-12
        assert h.buckets[-1] == math.inf  # inf bound appended automatically
        assert h.counts == [1, 2, 1]
        assert h.quantile(0.5) == 10.0

    def test_histogram_rejects_unsorted_buckets(self):
        with pytest.raises(ValueError):
            Histogram(buckets=(3.0, 1.0))

    def test_histogram_empty_stats_are_nan(self):
        h = Histogram()
        assert math.isnan(h.mean) and math.isnan(h.quantile(0.5))

    def test_series_trajectory(self):
        s = Series()
        s.observe(0.0, 10.0)
        s.observe(1.0, 4.0)
        assert s.last == 4.0
        snap = s.snapshot()
        assert snap["first"] == 10.0 and snap["n"] == 2


class TestRegistry:
    def test_create_on_first_use_and_reuse(self):
        reg = MetricsRegistry()
        reg.counter("nodes").inc()
        reg.counter("nodes").inc()
        assert reg.counter("nodes").value == 2
        assert "nodes" in reg and len(reg) == 1

    def test_type_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_snapshot_and_table(self):
        reg = MetricsRegistry()
        reg.counter("a").inc(5)
        reg.histogram("b").observe(0.02)
        snap = reg.snapshot()
        assert snap["a"]["value"] == 5 and snap["b"]["count"] == 1
        table = reg.render_table()
        assert "a" in table and "histogram" in table

    def test_empty_table(self):
        assert MetricsRegistry().render_table() == "(no metrics)"


class TestNullRegistry:
    def test_all_instruments_share_one_noop(self):
        # Identity check: the disabled path allocates nothing per call.
        a = NULL_REGISTRY.counter("anything")
        b = NULL_REGISTRY.histogram("else")
        assert a is b
        a.inc()
        b.observe(1.0)
        NULL_REGISTRY.gauge("g").set(2.0)
        assert len(NULL_REGISTRY) == 0
        assert NULL_REGISTRY.enabled is False
        assert MetricsRegistry.enabled is True


class TestAggregator:
    def test_folds_solve_stream_into_registry(self):
        reg = MetricsRegistry()
        agg = MetricsAggregator(reg)
        for event in [
            ev("solve_start", 0.0, backend="simplex"),
            ev("phase_end", 0.4, phase="simplex_phase2", duration=0.4, pivots=80),
            ev("node_open", 0.5, node=1),
            ev("node_close", 0.6, node=1),
            ev("node_prune", 0.7, node=2),
            ev("incumbent", 0.7, objective=9.0, gap=0.1),
            ev("cut_round", 0.8, round=1, generated=5, added=2),
            ev("solve_end", 1.0, status="optimal", duration=1.0),
        ]:
            agg.on_event(event)
        assert reg.counter("simplex_pivots").value == 80
        assert reg.gauge("pivots_per_sec").value == pytest.approx(200.0)
        assert reg.counter("nodes_opened").value == 1
        assert reg.counter("nodes_explored").value == 1
        assert reg.counter("nodes_pruned").value == 1
        assert reg.counter("cuts_added").value == 2
        assert reg.series("incumbent_objective").last == 9.0
        assert reg.series("incumbent_gap").last == pytest.approx(0.1)
        assert reg.histogram("solve_seconds").count == 1
        assert reg.histogram("solve_seconds").max == pytest.approx(1.0)

    def test_interleaved_hubs_observe_their_own_durations(self):
        # Worker threads share one aggregator while each job's hub runs its
        # own clock: A spans 5 s -> 6 s, B spans 0 s -> 30 s, interleaved.
        # Pairing end with the latest start would record 6 s and 25 s.
        reg = MetricsRegistry()
        agg = MetricsAggregator(reg)
        for event in [
            ev("solve_start", 0.0, backend="simplex"),  # B
            ev("solve_start", 5.0, backend="simplex"),  # A
            ev("solve_end", 6.0, status="optimal", duration=1.0),  # A
            ev("solve_end", 30.0, status="optimal", duration=30.0),  # B
        ]:
            agg.on_event(event)
        hist = reg.histogram("solve_seconds")
        assert reg.counter("solves").value == 2
        assert hist.count == 2
        assert hist.min == pytest.approx(1.0) and hist.max == pytest.approx(30.0)

    def test_solve_end_without_duration_is_not_timed(self):
        reg = MetricsRegistry()
        agg = MetricsAggregator(reg)
        agg.on_event(ev("solve_start", 0.0))
        agg.on_event(ev("solve_end", 2.0, status="optimal"))
        assert reg.counter("solves").value == 1
        assert reg.histogram("solve_seconds").count == 0

    def test_solve_compiled_reports_its_own_duration(self):
        from repro.solver import Model, solve
        from repro.solver.telemetry import EventRecorder, Telemetry

        mdl = Model()
        x = mdl.add_var("x", lb=0.0, ub=4.0)
        mdl.add_constr(x >= 1.0)
        mdl.set_objective(x)
        rec = EventRecorder()
        reg = MetricsRegistry()
        hub = Telemetry(listeners=[rec, MetricsAggregator(reg)])
        solve(mdl, backend="simplex", listener=hub)
        end = rec.of_kind("solve_end")[0]
        # Measured on the hub's clock, which started before the solve.
        assert 0.0 < end.data["duration"] <= end.t
        hist = reg.histogram("solve_seconds")
        assert hist.count == 1 and hist.max == end.data["duration"]

    def test_infinite_incumbent_gap_not_recorded(self):
        reg = MetricsRegistry()
        agg = MetricsAggregator(reg)
        agg.on_event(ev("incumbent", 0.1, objective=3.0, gap=math.inf))
        assert "incumbent_gap" not in reg
        assert reg.series("incumbent_objective").last == 3.0

    def test_benders_bound_trajectories(self):
        reg = MetricsRegistry()
        agg = MetricsAggregator(reg)
        agg.on_event(ev("benders_iteration", 0.2, iteration=1, lower=1.0, upper=math.inf))
        agg.on_event(ev("benders_iteration", 0.5, iteration=2, lower=2.0, upper=4.0))
        assert reg.counter("benders_iterations").value == 2
        assert [v for _, v in reg.series("benders_lower").points] == [1.0, 2.0]
        assert [v for _, v in reg.series("benders_upper").points] == [4.0]

    def test_fuzz_tallies(self):
        reg = MetricsRegistry()
        agg = MetricsAggregator(reg)
        agg.on_event(ev("fuzz_case", 0.1, index=0, certified=True))
        agg.on_event(ev("fuzz_case", 0.2, index=1, certified=False))
        agg.on_event(SolveEvent(kind="fuzz_disagreement", t=0.2,
                                data={"family": "lp", "kind": "objective"}))
        assert reg.counter("fuzz_cases").value == 2
        assert reg.counter("fuzz_certified").value == 1
        assert reg.counter("fuzz_disagreements").value == 1

    def test_warm_cold_lp_solves(self):
        reg = MetricsRegistry()
        agg = MetricsAggregator(reg)
        agg.on_event(ev("lp_cold", 0.1, node=0, pivots=40, reason="no_warm_start"))
        agg.on_event(ev("lp_warm", 0.2, node=1, pivots=3, mode="dual"))
        agg.on_event(ev("lp_warm", 0.3, node=2, pivots=6, mode="primal"))
        assert reg.counter("lp_warm_solves").value == 2
        assert reg.counter("lp_cold_solves").value == 1
        assert reg.gauge("lp_warm_hit_rate").value == pytest.approx(2 / 3)
        hist = reg.histogram("lp_pivots_per_solve")
        assert hist.count == 3
        assert hist.max == 40

    def test_benders_parallel_rounds(self):
        reg = MetricsRegistry()
        agg = MetricsAggregator(reg)
        agg.on_event(ev("benders_parallel", 0.1, iteration=1, scenarios=8,
                        workers=4, warm_hits=0))
        agg.on_event(ev("benders_parallel", 0.4, iteration=2, scenarios=8,
                        workers=4, warm_hits=8))
        assert reg.counter("benders_parallel_rounds").value == 2
        assert reg.counter("benders_warm_hits").value == 8
        assert reg.gauge("benders_workers").value == 4.0
