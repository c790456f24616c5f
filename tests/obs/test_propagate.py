"""Trace-context parsing, ambient propagation, process files, and merging."""

import json
from fractions import Fraction

import pytest

from repro.obs.propagate import (
    TraceContext,
    activate,
    collect_event_files,
    current_trace,
    ensure_trace,
    merge_process_traces,
    parse_traceparent,
    read_process_events,
    write_merged_trace,
    write_process_events,
)
from repro.solver.telemetry import SolveEvent


def ev(kind, t, **data):
    return SolveEvent(kind=kind, t=float(t), data=data)


class TestTraceContext:
    def test_new_root_shapes(self):
        ctx = TraceContext.new_root()
        assert len(ctx.trace_id) == 32 and len(ctx.span_id) == 16
        assert ctx.sampled
        int(ctx.trace_id, 16)  # valid hex
        int(ctx.span_id, 16)

    def test_child_keeps_trace_id_fresh_span(self):
        ctx = TraceContext.new_root()
        child = ctx.child()
        assert child.trace_id == ctx.trace_id
        assert child.span_id != ctx.span_id
        assert child.sampled == ctx.sampled

    def test_traceparent_round_trip(self):
        ctx = TraceContext.new_root()
        parsed = parse_traceparent(ctx.to_traceparent())
        assert parsed == ctx
        unsampled = TraceContext(ctx.trace_id, ctx.span_id, sampled=False)
        assert parse_traceparent(unsampled.to_traceparent()) == unsampled

    def test_dict_round_trip(self):
        ctx = TraceContext.new_root()
        assert TraceContext.from_dict(ctx.to_dict()) == ctx


class TestParseTraceparent:
    @pytest.mark.parametrize("header", [
        None,
        "",
        "garbage",
        "00-zz-11-01",
        "00-" + "0" * 32 + "-" + "1" * 16 + "-01",   # all-zero trace id
        "00-" + "1" * 32 + "-" + "0" * 16 + "-01",   # all-zero span id
        "ff-" + "1" * 32 + "-" + "2" * 16 + "-01",   # reserved version
        "00-" + "1" * 31 + "-" + "2" * 16 + "-01",   # short trace id
        "00-" + "A" * 32 + "-" + "2" * 16 + "-01",   # uppercase hex forbidden
        "00-" + "1" * 32 + "-" + "2" * 16 + "-01-extra",
    ])
    def test_invalid_headers_yield_none(self, header):
        assert parse_traceparent(header) is None

    def test_valid_header(self):
        ctx = parse_traceparent("00-" + "a" * 32 + "-" + "b" * 16 + "-01")
        assert ctx is not None and ctx.sampled
        assert ctx.trace_id == "a" * 32 and ctx.span_id == "b" * 16
        assert not parse_traceparent("00-" + "a" * 32 + "-" + "b" * 16 + "-00").sampled


class TestAmbient:
    def test_default_is_none(self):
        assert current_trace() is None

    def test_activate_nests_and_restores(self):
        a, b = TraceContext.new_root(), TraceContext.new_root()
        with activate(a):
            assert current_trace() is a
            with activate(b):
                assert current_trace() is b
            assert current_trace() is a
        assert current_trace() is None

    def test_activate_none_masks_outer(self):
        a = TraceContext.new_root()
        with activate(a):
            with activate(None):
                assert current_trace() is None
            assert current_trace() is a

    def test_ensure_trace_reuses_or_creates(self):
        fresh = ensure_trace()
        assert fresh is not None
        a = TraceContext.new_root()
        with activate(a):
            assert ensure_trace() is a


class TestProcessFiles:
    def test_round_trip_with_meta(self, tmp_path):
        ctx = TraceContext.new_root()
        events = [ev("phase_start", 0.0, phase="x"), ev("phase_end", 0.5, phase="x"),
                  ev("incumbent", 0.7, objective=5.0, certificate=Fraction(10, 2))]
        path = tmp_path / "events.jsonl"
        write_process_events(path, events, label="unit", trace=ctx,
                             parent_span_id="f" * 16, wall_t0=123.0)
        path.write_text(path.read_text().replace("\n", "\n\n"))  # blank lines
        meta, back = read_process_events(path)
        assert meta["label"] == "unit" and meta["wall_t0"] == 123.0
        assert meta["trace"]["trace_id"] == ctx.trace_id
        assert meta["trace"]["parent_span_id"] == "f" * 16
        assert [e.kind for e in back] == ["phase_start", "phase_end", "incumbent"]
        assert [e.t for e in back] == [e.t for e in events]
        assert back[1].data["phase"] == "x"
        # Fraction certificates serialize exactly as "p/q" strings
        assert back[2].data["certificate"] == "5/1"

    def test_read_plain_jsonl_has_no_meta(self, tmp_path):
        path = tmp_path / "plain.jsonl"
        path.write_text(json.dumps({"kind": "solve_start", "t": 0.0}) + "\n")
        meta, events = read_process_events(path)
        assert meta is None and len(events) == 1

    def test_collect_event_files_recurses_sorted(self, tmp_path):
        (tmp_path / "b").mkdir()
        for name in ("b/z.jsonl", "a.jsonl"):
            (tmp_path / name).write_text("")
        (tmp_path / "skip.json").write_text("{}")
        found = collect_event_files(tmp_path)
        assert [p.name for p in found] == ["a.jsonl", "z.jsonl"]


class TestMergeProcessTraces:
    def _write(self, path, label, trace, events, wall_t0, parent_span_id=None):
        write_process_events(path, events, label=label, trace=trace,
                             parent_span_id=parent_span_id, wall_t0=wall_t0)

    def test_merge_pid_lanes_and_flow_arrows(self, tmp_path):
        root = TraceContext.new_root()
        request = root.child()
        job = request.child()
        # Client process: a service_request span advertising its span id.
        self._write(
            tmp_path / "client.jsonl", "campaign", root,
            [ev("phase_start", 0.0, phase="service_request",
                span_id=request.span_id),
             ev("phase_end", 1.0, phase="service_request",
                span_id=request.span_id, duration=1.0)],
            wall_t0=100.0,
        )
        # Server process: its meta says "my parent is that span".
        self._write(
            tmp_path / "server.jsonl", "service:j1", job,
            [ev("phase_start", 0.0, phase="solve"),
             ev("phase_end", 0.4, phase="solve", duration=0.4)],
            wall_t0=100.2, parent_span_id=request.span_id,
        )
        doc = merge_process_traces(
            [tmp_path / "client.jsonl", tmp_path / "server.jsonl"])
        evs = doc["traceEvents"]
        pids = {e["pid"] for e in evs if e.get("ph") == "X"}
        assert pids == {1, 2}                       # one lane per process
        assert doc["otherData"]["trace_ids"] == [root.trace_id]
        starts = [e for e in evs if e.get("ph") == "s"]
        finishes = [e for e in evs if e.get("ph") == "f"]
        assert len(starts) == 1 and len(finishes) == 1
        assert starts[0]["id"] == request.span_id == finishes[0]["id"]
        assert starts[0]["pid"] == 1 and finishes[0]["pid"] == 2
        # Wall-clock offset: server events shifted 0.2s after the client's.
        solve = next(e for e in evs if e.get("ph") == "X" and e["name"].startswith("solve"))
        assert solve["ts"] == pytest.approx(0.2e6, rel=1e-6)
        # The arrow lands at (or after) its source so the renderer draws it.
        assert finishes[0]["ts"] >= starts[0]["ts"]

    def test_merge_without_parent_links_has_no_arrows(self, tmp_path):
        a, b = TraceContext.new_root(), TraceContext.new_root()
        self._write(tmp_path / "a.jsonl", "a", a,
                    [ev("phase_start", 0.0, phase="p"),
                     ev("phase_end", 0.1, phase="p", duration=0.1)], 10.0)
        self._write(tmp_path / "b.jsonl", "b", b,
                    [ev("phase_start", 0.0, phase="q"),
                     ev("phase_end", 0.1, phase="q", duration=0.1)], 11.0)
        doc = merge_process_traces([tmp_path / "a.jsonl", tmp_path / "b.jsonl"])
        assert not [e for e in doc["traceEvents"] if e.get("ph") in ("s", "f")]
        assert doc["otherData"]["trace_ids"] == sorted({a.trace_id, b.trace_id})

    def test_write_merged_trace(self, tmp_path):
        ctx = TraceContext.new_root()
        self._write(tmp_path / "a.jsonl", "a", ctx,
                    [ev("phase_start", 0.0, phase="p"),
                     ev("phase_end", 0.1, phase="p", duration=0.1)], 1.0)
        out = write_merged_trace(tmp_path / "merged.trace.json",
                                 [tmp_path / "a.jsonl"], label="t")
        doc = json.loads(out.read_text())
        assert doc["otherData"]["label"] == "t"
        assert any(e.get("ph") == "X" for e in doc["traceEvents"])
