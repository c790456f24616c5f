"""Deterministic phase profiler over the telemetry event stream.

:func:`profile_events` folds a recorded event stream into a
:class:`PhaseProfile`: a partition of wall time across the phases the
solver stack already emits, refined by the instrumentation this layer
added at the emit sites —

* **simplex**: ``phase_end`` events for ``simplex_phase1`` /
  ``simplex_phase2`` / ``simplex_warm`` carry a ``breakdown`` dict
  splitting the phase into pricing, ratio test, basis update,
  refactorization and (on warm repairs) dual-repair seconds;
* **Benders**: the ``benders_subproblems`` phase carries
  ``subproblem_s`` (summed in-worker solve seconds), so the profile
  separates subproblem compute from fan-out/IPC overhead
  (``benders.ipc`` = phase wall minus per-worker average compute);
* **B&B**: ``lp_warm``/``lp_cold`` markers carry per-node LP durations
  (reported as side statistics — node heap residency overlaps the solve
  loop, so it is never double-counted into the wall partition);
* **service**: the server emits an instant ``service_queue_wait`` phase
  per job whose ``duration`` is submit-to-start time, attributing queue
  wait separately from solve time.

The partition property is what makes the profile trustworthy: every
span's *self* time lands in exactly one bucket, so the bucket totals sum
to the traced wall time (up to clock clamping).  :func:`to_speedscope`
exports the same tree as a speedscope-JSON "evented" profile
(https://www.speedscope.app/file-format-schema.json).

Forwarded worker events are profiled on the *parent* clock (their
``worker_t`` re-timing is for trace rendering): the parent clock is the
one whose total equals the wall time being partitioned.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .spans import Span, Tracer

__all__ = [
    "PhaseProfile",
    "profile_events",
    "profile_spans",
    "parent_clock_spans",
    "to_speedscope",
    "write_speedscope",
]

#: Span categories whose intervals overlap their parent (heap residency,
#: work-unit slices) — excluded from the wall partition and the speedscope
#: nesting, counted as side statistics instead.
_OVERLAPPING = {"node", "benders_iter", "fuzz_case"}

_SPEEDSCOPE_SCHEMA = "https://www.speedscope.app/file-format-schema.json"


@dataclass
class PhaseProfile:
    """Wall-time partition across phases, plus side statistics.

    ``entries`` maps bucket name to seconds and partitions the traced
    wall time; ``counts`` holds occurrence counts per bucket; ``extras``
    holds non-partition statistics (CPU seconds across workers, LP
    warm/cold totals, node residency).
    """

    wall: float = 0.0
    entries: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)

    @property
    def tracked(self) -> float:
        return sum(self.entries.values())

    @property
    def coverage(self) -> float:
        """Fraction of wall time attributed to a named bucket."""
        return self.tracked / self.wall if self.wall > 0 else math.nan

    def _add(self, name: str, seconds: float, n: int = 1) -> None:
        self.entries[name] = self.entries.get(name, 0.0) + max(0.0, seconds)
        self.counts[name] = self.counts.get(name, 0) + n

    def _extra(self, name: str, amount: float) -> None:
        self.extras[name] = self.extras.get(name, 0.0) + amount

    def to_dict(self) -> dict:
        return {
            "wall_s": self.wall,
            "tracked_s": self.tracked,
            "coverage": self.coverage,
            "entries": dict(sorted(self.entries.items(), key=lambda kv: -kv[1])),
            "counts": dict(self.counts),
            "extras": dict(self.extras),
        }

    def render(self) -> str:
        """Aligned terminal table, hottest bucket first."""
        rows = sorted(self.entries.items(), key=lambda kv: -kv[1])
        if not rows:
            return "(no phases recorded)"
        w = max(len(name) for name, _ in rows)
        lines = [f"{'phase'.ljust(w)}  {'seconds':>10}  {'share':>6}  count"]
        for name, seconds in rows:
            share = seconds / self.wall * 100 if self.wall > 0 else 0.0
            lines.append(
                f"{name.ljust(w)}  {seconds:>10.4f}  {share:>5.1f}%  "
                f"x{self.counts.get(name, 0)}"
            )
        lines.append(
            f"tracked {self.tracked:.4f}s of {self.wall:.4f}s wall "
            f"({self.coverage * 100:.1f}%)"
        )
        for name in sorted(self.extras):
            lines.append(f"  [{name}] {self.extras[name]:.4f}")
        return "\n".join(lines)


def _strip_worker_clock(events):
    """Re-create forwarded events without ``worker_t`` (parent-clock replay)."""
    from repro.solver.telemetry import SolveEvent

    for ev in events:
        if "worker_t" in ev.data:
            data = {k: v for k, v in ev.data.items() if k != "worker_t"}
            yield SolveEvent(kind=ev.kind, t=ev.t, data=data)
        else:
            yield ev


def parent_clock_spans(events):
    """Span forest + markers on the parent clock (``worker_t`` stripped).

    The representation both :func:`profile_events` and the speedscope
    export work from: forwarded worker spans keep their item-order
    nesting but are timed by the parent hub, so sibling intervals never
    overlap and self-times partition the wall.
    """
    tracer = Tracer()
    for ev in _strip_worker_clock(events):
        tracer.on_event(ev)
    roots = tracer.finish()
    return roots, tracer.markers


def profile_events(events) -> PhaseProfile:
    """Profile a recorded event sequence (e.g. ``EventRecorder.events``)."""
    roots, markers = parent_clock_spans(events)
    return profile_spans(roots, markers)


def profile_spans(roots: list[Span], markers=()) -> PhaseProfile:
    """Profile an already-reconstructed span forest."""
    prof = PhaseProfile()
    starts = [r.start for r in roots]
    ends = [r.end for r in roots if r.end is not None]
    if starts and ends:
        prof.wall = max(0.0, max(ends) - min(starts))
    for root in roots:
        _visit(root, prof)
    for mark in markers:
        if mark.kind in ("lp_warm", "lp_cold"):
            prof.counts[mark.kind] = prof.counts.get(mark.kind, 0) + 1
            dur = mark.data.get("duration")
            if dur is not None:
                prof._extra(f"{mark.kind}_s", float(dur))
    return prof


def _visit(span: Span, prof: PhaseProfile) -> None:
    if span.category in _OVERLAPPING:
        if span.category == "node":
            prof.counts["nodes"] = prof.counts.get("nodes", 0) + 1
            prof._extra("node_residency_s", span.duration)
        for child in span.children:
            _visit(child, prof)
        return

    if span.name == "benders_subproblems":
        # Fan-out phase: in-worker compute (reported by the workers
        # themselves) vs everything else — pickling, fork, result IPC.
        dur = span.duration
        sub_cpu = float(span.attrs.get("subproblem_s") or 0.0)
        workers = max(1, int(span.attrs.get("workers") or 1))
        sub_wall = min(dur, sub_cpu / workers) if sub_cpu > 0 else 0.0
        prof._add("benders.subproblem", sub_wall)
        prof._add("benders.ipc", dur - sub_wall)
        prof._extra("benders_subproblem_cpu_s", sub_cpu)
        # Descendants are the forwarded worker spans: their time is what
        # subproblem/ipc just partitioned — visiting them would double count.
        return

    owned = 0.0
    for child in span.children:
        if child.category not in _OVERLAPPING:
            owned += child.duration
        _visit(child, prof)

    if span.duration == 0.0 and "duration" in span.attrs:
        # A bare phase_end (no start): an instant span carrying time that
        # elapsed outside this event stream — e.g. service queue wait.
        prof._add(span.name, float(span.attrs["duration"]))
        return

    self_time = max(0.0, span.duration - owned)
    breakdown = span.attrs.get("breakdown")
    if isinstance(breakdown, dict) and breakdown:
        split = 0.0
        for comp, seconds in sorted(breakdown.items()):
            seconds = float(seconds)
            prof._add(f"simplex.{comp}", seconds)
            split += seconds
        prof._add(span.name, self_time - split)
    else:
        prof._add(span.name, self_time)


# -- speedscope export -----------------------------------------------------


def to_speedscope(roots: list[Span], name: str = "repro") -> dict:
    """Span forest as a speedscope-JSON "evented" profile.

    Overlapping categories (B&B node residency, iteration slices) are
    dropped — speedscope requires strictly nested open/close events; the
    remaining spans nest by construction (the tracer built them from a
    stack), with child bounds clamped into their parent for safety.
    """
    frames: list[dict] = []
    frame_ix: dict[str, int] = {}
    events: list[dict] = []
    cursor = 0.0

    def fid(frame_name: str) -> int:
        if frame_name not in frame_ix:
            frame_ix[frame_name] = len(frames)
            frames.append({"name": frame_name})
        return frame_ix[frame_name]

    def emit(span: Span, lo: float, hi: float) -> None:
        nonlocal cursor
        if span.category in _OVERLAPPING:
            return
        start = min(max(span.start, lo, cursor), hi)
        end_raw = span.end if span.end is not None else span.start
        end = min(max(end_raw, start), hi)
        frame = fid(span.name)
        events.append({"type": "O", "frame": frame, "at": start})
        cursor = start
        for child in span.children:
            emit(child, start, end)
        cursor = max(cursor, end)
        events.append({"type": "C", "frame": frame, "at": end})

    starts = [r.start for r in roots]
    ends = [r.end if r.end is not None else r.start for r in roots]
    start_value = min(starts) if starts else 0.0
    end_value = max(ends) if ends else 0.0
    for root in sorted(roots, key=lambda s: s.start):
        emit(root, start_value, max(end_value, start_value))

    return {
        "$schema": _SPEEDSCOPE_SCHEMA,
        "name": name,
        "shared": {"frames": frames},
        "profiles": [
            {
                "type": "evented",
                "name": name,
                "unit": "seconds",
                "startValue": start_value,
                "endValue": end_value,
                "events": events,
            }
        ],
    }


def write_speedscope(path: str | Path, roots: list[Span], name: str = "repro") -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(to_speedscope(roots, name=name), allow_nan=False))
    return path
