"""Span exporters: Chrome trace-event and terminal report.

Two renderings of one span tree (the event log itself is written by
:func:`repro.obs.propagate.write_process_events`):

* **Chrome trace-event** — a ``{"traceEvents": [...]}`` document loadable
  in ``chrome://tracing`` and https://ui.perfetto.dev.  Spans are emitted
  as complete (``"ph": "X"``) events with microsecond timestamps; markers
  as instant (``"ph": "i"``) events.  Each span's ``args`` carries its
  ``spanId``/``parentId``, so :func:`load_chrome_trace` reconstructs the
  exact tree — the round-trip is lossless up to float formatting.
* **terminal report** — :func:`render_report`: the span tree with
  durations/self-times, top-k span names by aggregate self-time, and the
  metrics table.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.serialize import jsonable

from .metrics import MetricsRegistry
from .spans import Marker, Span

__all__ = [
    "to_chrome_trace",
    "write_chrome_trace",
    "load_chrome_trace",
    "top_self_time",
    "render_span_tree",
    "render_report",
]


# -- Chrome trace-event format ---------------------------------------------

_US = 1e6  # trace-event timestamps are microseconds


def to_chrome_trace(
    roots: list[Span],
    markers: list[Marker] = (),
    label: str = "repro",
    pid: int = 0,
    t_offset: float = 0.0,
) -> dict:
    """Span forest + markers as a Chrome trace-event document.

    ``pid`` and ``t_offset`` (seconds added to every timestamp) let the
    cross-process merge (:func:`repro.obs.propagate.merge_process_traces`)
    place each process's spans on its own pid lane, on one shared clock.
    """
    trace_events: list[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": label},
        }
    ]
    for root in roots:
        for span, _ in root.walk():
            args = {"spanId": span.span_id, "category": span.category}
            if span.parent_id is not None:
                args["parentId"] = span.parent_id
            if span.attrs:
                args["attrs"] = jsonable(span.attrs)
            if span.counters:
                args["counters"] = jsonable(span.counters)
            if span.truncated:
                args["truncated"] = True
            trace_events.append(
                {
                    "name": span.name,
                    "cat": span.category,
                    "ph": "X",
                    "ts": (span.start + t_offset) * _US,
                    "dur": span.duration * _US,
                    "pid": pid,
                    "tid": span.worker,
                    "args": args,
                }
            )
    for mark in markers:
        trace_events.append(
            {
                "name": mark.kind,
                "cat": "marker",
                "ph": "i",
                "s": "t",
                "ts": (mark.t + t_offset) * _US,
                "pid": pid,
                "tid": mark.worker,
                "args": jsonable(mark.data),
            }
        )
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def write_chrome_trace(
    path: str | Path,
    roots: list[Span],
    markers: list[Marker] = (),
    label: str = "repro",
) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(to_chrome_trace(roots, markers, label), allow_nan=False))
    return path


def load_chrome_trace(path: str | Path) -> tuple[list[Span], list[Marker]]:
    """Reconstruct the span forest and markers from a trace-event file.

    Only documents written by :func:`write_chrome_trace` round-trip
    exactly (they carry ``spanId``/``parentId`` in ``args``); foreign
    trace files degrade gracefully to a flat list of root spans.
    """
    doc = json.loads(Path(path).read_text())
    records = doc["traceEvents"] if isinstance(doc, dict) else doc
    by_id: dict[int, Span] = {}
    parents: dict[int, int] = {}
    roots: list[Span] = []
    markers: list[Marker] = []
    anonymous = -1
    for rec in records:
        ph = rec.get("ph")
        if ph == "X":
            args = rec.get("args", {})
            span_id = args.get("spanId")
            if span_id is None:
                anonymous -= 1
                span_id = anonymous
            start = float(rec.get("ts", 0.0)) / _US
            span = Span(
                name=rec.get("name", "?"),
                category=args.get("category", rec.get("cat", "span")),
                start=start,
                end=start + float(rec.get("dur", 0.0)) / _US,
                span_id=int(span_id),
                worker=int(rec.get("tid", 0)),
                attrs=args.get("attrs", {}),
                counters=args.get("counters", {}),
                truncated=bool(args.get("truncated", False)),
            )
            by_id[span.span_id] = span
            if args.get("parentId") is not None:
                parents[span.span_id] = int(args["parentId"])
        elif ph == "i":
            markers.append(
                Marker(
                    kind=rec.get("name", "?"),
                    t=float(rec.get("ts", 0.0)) / _US,
                    data=rec.get("args", {}),
                    worker=int(rec.get("tid", 0)),
                )
            )
    for span_id, parent_id in parents.items():
        parent = by_id.get(parent_id)
        if parent is not None:
            by_id[span_id].parent_id = parent_id
            parent.children.append(by_id[span_id])
        else:
            roots.append(by_id[span_id])
    for span_id, span in by_id.items():
        if span_id not in parents:
            roots.append(span)
    # Children were appended in file order, which write order preserves.
    return roots, markers


# -- terminal rendering ----------------------------------------------------


def top_self_time(roots: list[Span], k: int = 5) -> list[tuple[str, float, int]]:
    """Top-``k`` span *names* by aggregate self-time: (name, seconds, count).

    ``node`` spans are skipped: their interval is heap residency (push to
    pop), which overlaps the owning solve span rather than partitioning
    it, so ranking them against exclusive compute time would be
    meaningless.
    """
    agg: dict[str, list[float]] = {}
    for root in roots:
        for span, _ in root.walk():
            if span.category == "node":
                continue
            entry = agg.setdefault(span.name, [0.0, 0])
            entry[0] += span.self_time
            entry[1] += 1
    ranked = sorted(agg.items(), key=lambda kv: -kv[1][0])
    return [(name, t, int(n)) for name, (t, n) in ranked[:k]]


def _fmt_ms(seconds: float) -> str:
    return f"{seconds * 1e3:.3f}ms" if seconds < 1.0 else f"{seconds:.3f}s"


def render_span_tree(roots: list[Span], max_children: int = 12) -> str:
    """Indented span tree; sibling runs longer than ``max_children`` are
    elided to head/tail with an aggregate line (B&B explores thousands of
    nodes — the report shows the shape, the trace file keeps every one)."""
    lines: list[str] = []

    def emit(span: Span, depth: int) -> None:
        pad = "  " * depth
        bits = [f"{pad}{span.name}", _fmt_ms(span.duration)]
        if span.children:
            bits.append(f"self={_fmt_ms(span.self_time)}")
        if span.counters:
            bits.append(" ".join(f"{k}={_fmt_num(v)}" for k, v in sorted(span.counters.items())))
        if span.truncated:
            bits.append("[truncated]")
        lines.append("  ".join(bits))
        kids = span.children
        if len(kids) > max_children:
            head = max_children // 2
            tail = max_children - head - 1
            shown = kids[:head]
            hidden = kids[head: len(kids) - tail]
            for child in shown:
                emit(child, depth + 1)
            hidden_t = sum(c.duration for c in hidden)
            lines.append(
                f"{'  ' * (depth + 1)}... {len(hidden)} more spans  {_fmt_ms(hidden_t)}"
            )
            for child in kids[len(kids) - tail:]:
                emit(child, depth + 1)
        else:
            for child in kids:
                emit(child, depth + 1)

    for root in roots:
        emit(root, 0)
    return "\n".join(lines) if lines else "(no spans)"


def _fmt_num(v) -> str:
    if isinstance(v, float) and v != int(v):
        return f"{v:.4g}"
    return str(int(v)) if isinstance(v, (int, float)) else str(v)


def render_report(
    roots: list[Span],
    registry: MetricsRegistry | None = None,
    markers: list[Marker] = (),
    k: int = 5,
) -> str:
    """Full terminal report: span tree, hot spots, markers, metrics."""
    parts = ["== span tree ==", render_span_tree(roots)]
    hot = top_self_time(roots, k=k)
    if hot:
        parts.append(f"\n== top {len(hot)} by self-time ==")
        w = max(len(name) for name, _, _ in hot)
        for name, seconds, count in hot:
            parts.append(f"{name.ljust(w)}  {_fmt_ms(seconds):>10}  x{count}")
    interesting = [m for m in markers if m.kind in ("backend_degraded", "deadline_exceeded",
                                                   "warm_start_rejected", "fuzz_disagreement")]
    if interesting:
        parts.append("\n== notices ==")
        for m in interesting:
            detail = " ".join(f"{k2}={v}" for k2, v in m.data.items())
            parts.append(f"t={m.t:.3f}s {m.kind}: {detail}")
    if registry is not None and len(registry):
        parts.append("\n== metrics ==")
        parts.append(registry.render_table())
    return "\n".join(parts)
