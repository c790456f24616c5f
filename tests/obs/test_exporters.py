"""Exporter round-trips (JSONL event log, Chrome trace) and terminal rendering."""

from fractions import Fraction

from repro.obs import (
    MetricsRegistry,
    Tracer,
    load_chrome_trace,
    read_process_events,
    render_report,
    render_span_tree,
    top_self_time,
    write_chrome_trace,
    write_process_events,
)
from repro.solver.telemetry import SolveEvent


def ev(kind, t, **data):
    return SolveEvent(kind=kind, t=float(t), data=data)


def sample_events():
    return [
        ev("solve_start", 0.0, backend="simplex"),
        ev("phase_start", 0.1, phase="presolve"),
        ev("phase_end", 0.2, phase="presolve", duration=0.1),
        ev("node_open", 0.3, node=1),
        ev("incumbent", 0.4, objective=5.0, certificate=Fraction(10, 2)),
        ev("node_close", 0.5, node=1),
        ev("backend_degraded", 0.6, from_backend="scipy", to_backend="simplex"),
        ev("solve_end", 1.0, status="optimal"),
    ]


def flatten(roots):
    out = []
    for root in roots:
        for s, depth in root.walk():
            out.append((depth, s.name, s.category, round(s.start, 9),
                        round(s.duration, 9), s.worker, s.truncated))
    return sorted(out)


class TestJsonl:
    def test_round_trip(self, tmp_path):
        events = sample_events()
        path = write_process_events(tmp_path / "events.jsonl", events, label="unit")
        _meta, back = read_process_events(path)
        assert [e.kind for e in back] == [e.kind for e in events]
        assert [e.t for e in back] == [e.t for e in events]
        # Fraction certificates serialize exactly as "p/q" strings
        assert back[4].data["certificate"] == "5/1"

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text('{"kind": "solve_start", "t": 0.0, "backend": "x"}\n\n')
        assert len(read_process_events(path)[1]) == 1


class TestChromeTrace:
    def test_round_trip_preserves_tree(self, tmp_path):
        tracer = Tracer().replay(sample_events())
        roots = tracer.finish()
        path = write_chrome_trace(tmp_path / "t.trace.json", roots, tracer.markers)
        back_roots, back_markers = load_chrome_trace(path)
        assert flatten(back_roots) == flatten(roots)
        assert {m.kind for m in back_markers} == {m.kind for m in tracer.markers}

    def test_document_shape(self, tmp_path):
        import json

        tracer = Tracer().replay(sample_events())
        path = write_chrome_trace(tmp_path / "t.trace.json", tracer.finish(),
                                  tracer.markers, label="unit")
        doc = json.loads(path.read_text())
        assert "traceEvents" in doc
        phases = {rec["ph"] for rec in doc["traceEvents"]}
        assert "X" in phases and "i" in phases and "M" in phases
        meta = doc["traceEvents"][0]
        assert meta["args"]["name"] == "unit"
        # timestamps are microseconds: the solve span lasts 1 s
        solve = next(r for r in doc["traceEvents"]
                     if r["ph"] == "X" and r["name"].startswith("solve"))
        assert abs(solve["dur"] - 1e6) < 1.0

    def test_foreign_trace_degrades_to_flat_roots(self, tmp_path):
        import json

        path = tmp_path / "foreign.json"
        path.write_text(json.dumps({"traceEvents": [
            {"name": "a", "ph": "X", "ts": 0, "dur": 1000, "pid": 0, "tid": 0},
            {"name": "b", "ph": "X", "ts": 100, "dur": 200, "pid": 0, "tid": 0},
        ]}))
        roots, markers = load_chrome_trace(path)
        assert sorted(r.name for r in roots) == ["a", "b"]
        assert markers == []


class TestRendering:
    def test_top_self_time_skips_nodes(self):
        tracer = Tracer().replay(sample_events())
        roots = tracer.finish()
        names = [name for name, _, _ in top_self_time(roots, k=10)]
        assert "presolve" in names
        assert not any(name.startswith("node") for name in names)

    def test_span_tree_elides_long_sibling_runs(self):
        events = [ev("solve_start", 0.0, backend="simplex")]
        for i in range(40):
            events.append(ev("node_open", 0.01 * i, node=i))
            events.append(ev("node_close", 0.01 * i + 0.005, node=i))
        events.append(ev("solve_end", 1.0, status="optimal"))
        tracer = Tracer().replay(events)
        text = render_span_tree(tracer.finish(), max_children=6)
        assert "more spans" in text
        assert text.count("node ") < 40

    def test_render_report_sections(self):
        tracer = Tracer().replay(sample_events())
        roots = tracer.finish()
        reg = MetricsRegistry()
        reg.counter("solves").inc()
        text = render_report(roots, reg, tracer.markers)
        assert "== span tree ==" in text
        assert "by self-time ==" in text
        assert "== notices ==" in text and "backend_degraded" in text
        assert "== metrics ==" in text and "solves" in text

    def test_render_report_empty(self):
        assert "(no spans)" in render_report([], None, [])
