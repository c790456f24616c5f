"""Cross-process trace propagation: W3C ``traceparent`` + trace merging.

Spans die at two boundaries today: the :func:`repro.parallel.parallel_map`
fork (worker events come back tagged but the *identity* of the calling
trace is lost) and the ``repro.service`` HTTP hop (the server starts a
fresh event stream per job).  This module carries one identity across
both:

* :class:`TraceContext` — a (trace id, span id, sampling decision)
  triple, serialized as a W3C-``traceparent``-style token
  (``00-<32 hex>-<16 hex>-<01|00>``).  The service client injects it as a
  request header; the server parses it (garbled/missing tokens fall back
  to a fresh root — a bad header is never an error) and the job's solve
  runs under a child context.  ``parallel_map`` pickles the ambient
  context into task payloads so worker processes inherit the trace and
  its sampling decision.
* An **ambient context** per thread (:func:`current_trace` /
  :func:`activate`), so layers that never see each other — a campaign
  loop, the service client inside a policy, the pool — agree on the
  active trace without threading it through every signature.
* **Per-process event files** (:func:`write_process_events`): the one
  on-disk event log, JSONL prefixed with one ``process_meta`` line
  recording the process label, wall-clock epoch, and trace identity.
* **Recorded runs** (:func:`record_run`, :func:`write_run`): one run's
  ``manifest.json`` + ``events.jsonl`` (+ Chrome trace) directory, as
  ``repro run`` and the service's per-job captures write it.
* :func:`merge_process_traces` — stitches any number of per-process
  files into a single Chrome-trace document: one pid lane per process,
  tid lanes per worker, clocks aligned on the recorded wall epochs, and
  ``s``/``f`` flow arrows from a client span to the server/worker spans
  it caused (matched on the hex span id the client span recorded in its
  attrs and the child process recorded as its ``parent_span_id``).

Everything here is stdlib-only, like the rest of :mod:`repro.obs`.
"""

from __future__ import annotations

import json
import os
import re
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from typing import TYPE_CHECKING, Any, Callable

from repro.serialize import jsonable

from .exporters import _US, to_chrome_trace, write_chrome_trace
from .manifest import RunManifest
from .metrics import MetricsAggregator, MetricsRegistry
from .spans import Tracer

if TYPE_CHECKING:  # annotation-only: keeps this module stdlib-importable
    from repro.solver.telemetry import SolveEvent

__all__ = [
    "TRACEPARENT_HEADER",
    "TraceContext",
    "parse_traceparent",
    "current_trace",
    "activate",
    "ensure_trace",
    "write_process_events",
    "read_process_events",
    "InstrumentedRun",
    "record_run",
    "write_run",
    "collect_event_files",
    "merge_process_traces",
    "write_merged_trace",
]

#: HTTP header carrying the serialized context (lowercase, per W3C).
TRACEPARENT_HEADER = "traceparent"

_TRACEPARENT_RE = re.compile(
    r"^([0-9a-f]{2})-([0-9a-f]{32})-([0-9a-f]{16})-([0-9a-f]{2})$"
)


def _rand_hex(nbytes: int) -> str:
    return os.urandom(nbytes).hex()


@dataclass(frozen=True)
class TraceContext:
    """One node of a distributed trace: who we are and whether we record.

    ``trace_id`` names the end-to-end operation (a campaign, a request);
    ``span_id`` names *this* hop.  Both are lowercase hex, 32 and 16
    digits.  ``sampled`` is the head-based sampling decision: children
    inherit it, and unsampled contexts suppress event capture in
    ``parallel_map`` workers.
    """

    trace_id: str
    span_id: str
    sampled: bool = True

    @classmethod
    def new_root(cls, sampled: bool = True) -> "TraceContext":
        """A fresh trace with random ids."""
        return cls(trace_id=_rand_hex(16), span_id=_rand_hex(8), sampled=sampled)

    def child(self) -> "TraceContext":
        """A new span under the same trace, inheriting the sampling bit."""
        return TraceContext(self.trace_id, _rand_hex(8), self.sampled)

    def to_traceparent(self) -> str:
        return f"00-{self.trace_id}-{self.span_id}-{'01' if self.sampled else '00'}"

    def to_dict(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "sampled": self.sampled,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TraceContext":
        return cls(
            trace_id=str(d["trace_id"]),
            span_id=str(d["span_id"]),
            sampled=bool(d.get("sampled", True)),
        )


def parse_traceparent(header: str | None) -> TraceContext | None:
    """Parse a ``traceparent`` token; ``None`` on anything malformed.

    Strict per the W3C grammar: four ``-``-separated lowercase-hex
    fields, version ``ff`` reserved, all-zero trace/span ids invalid.  A
    missing or garbled header yields ``None`` — callers fall back to a
    fresh root; propagation failure is never a request failure.
    """
    if not header or not isinstance(header, str):
        return None
    m = _TRACEPARENT_RE.match(header.strip())
    if m is None:
        return None
    version, trace_id, span_id, flags = m.groups()
    if version == "ff":
        return None
    if trace_id == "0" * 32 or span_id == "0" * 16:
        return None
    return TraceContext(trace_id=trace_id, span_id=span_id,
                        sampled=bool(int(flags, 16) & 0x01))


# -- ambient context (per thread) ------------------------------------------

_local = threading.local()


def current_trace() -> TraceContext | None:
    """The context activated on this thread, or ``None``."""
    stack = getattr(_local, "stack", None)
    return stack[-1] if stack else None


@contextmanager
def activate(ctx: TraceContext | None):
    """Install ``ctx`` as the ambient context for the duration of the block.

    ``None`` deactivates (the block runs trace-free) — callers can pass an
    optional context unconditionally.  Re-entrant and thread-scoped.
    """
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    if ctx is None:
        # Mask any outer context rather than pushing None onto the stack.
        saved, _local.stack = stack, []
        try:
            yield None
        finally:
            _local.stack = saved
        return
    stack.append(ctx)
    try:
        yield ctx
    finally:
        stack.pop()


def ensure_trace(sampled: bool = True) -> TraceContext:
    """The ambient context if one is active, else a fresh root (not activated)."""
    ctx = current_trace()
    return ctx if ctx is not None else TraceContext.new_root(sampled=sampled)


# -- per-process event files -----------------------------------------------


def write_process_events(
    path: str | Path,
    events,
    *,
    label: str,
    trace: "TraceContext | dict | None" = None,
    parent_span_id: str | None = None,
    wall_t0: float | None = None,
    pid: int | None = None,
) -> Path:
    """Write a JSONL event log prefixed with one ``process_meta`` line.

    ``wall_t0`` is the wall-clock time (``time.time()``) at which the
    process's hub clock read zero; :func:`merge_process_traces` aligns
    the per-process monotonic clocks on it.  ``parent_span_id`` is the
    hex span id (in *another* process's file) that caused this process's
    work — the hook the merged trace draws its flow arrow from.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    meta: dict = {
        "kind": "process_meta",
        "label": label,
        "pid": os.getpid() if pid is None else int(pid),
    }
    if wall_t0 is not None:
        meta["wall_t0"] = float(wall_t0)
    if trace is not None:
        td = trace.to_dict() if isinstance(trace, TraceContext) else dict(trace)
        if parent_span_id:
            td["parent_span_id"] = parent_span_id
        meta["trace"] = td
    with path.open("w") as fh:
        fh.write(json.dumps(jsonable(meta), allow_nan=False))
        fh.write("\n")
        for ev in events:
            fh.write(json.dumps(jsonable(ev.to_dict()), allow_nan=False))
            fh.write("\n")
    return path


def read_process_events(path: str | Path) -> "tuple[dict | None, list[SolveEvent]]":
    """Load a process event file: ``(meta or None, events)``.

    Event logs without a ``process_meta`` line (as older code wrote
    them) load with ``meta=None``.
    """
    from repro.solver.telemetry import SolveEvent

    meta: dict | None = None
    events: list[SolveEvent] = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        obj = json.loads(line)
        if obj.get("kind") == "process_meta":
            if meta is None:
                obj.pop("kind")
                meta = obj
            continue
        kind = obj.pop("kind")
        t = float(obj.pop("t"))
        events.append(SolveEvent(kind=kind, t=t, data=obj))
    return meta, events


# -- recorded runs -----------------------------------------------------------


@dataclass
class InstrumentedRun:
    """Everything one recorded run produced (see :func:`record_run`)."""

    result: Any                                      # what the run returned
    manifest: RunManifest
    roots: list = field(default_factory=list)        # span forest
    markers: list = field(default_factory=list)
    events: list = field(default_factory=list)
    registry: object = None                          # MetricsRegistry
    manifest_path: Path | None = None
    trace_path: Path | None = None
    events_path: Path | None = None


def write_run(out_dir: str | Path, manifest: RunManifest, events, **meta) -> tuple[Path, Path]:
    """Write one run's directory: ``manifest.json`` and ``events.jsonl``.

    ``meta`` (``label``, ``trace``, ``parent_span_id``, ``wall_t0``) goes
    to the events file's ``process_meta`` line
    (:func:`write_process_events`).  Returns both paths.
    """
    out_dir = Path(out_dir)
    return (manifest.write(out_dir / "manifest.json"),
            write_process_events(out_dir / "events.jsonl", events, **meta))


def record_run(
    run: Callable,
    manifest: Callable[[Any, list], RunManifest],
    *,
    label: str,
    trace_name: str,
    out_dir: str | Path | None = None,
    trace_path: str | Path | None = None,
) -> InstrumentedRun:
    """Call ``run(hub)`` under a recording hub and keep what it produced.

    The hub fans every event out to an event recorder, a :class:`Tracer`
    and a metrics aggregator; ``manifest(result, events)`` builds the
    run's :class:`RunManifest`.
    With ``out_dir`` set, :func:`write_run` writes the run directory
    (events labelled ``label`` on the hub's wall clock) and the Chrome
    trace defaults to ``out_dir/trace_name``; ``trace_path`` names it
    explicitly.  An exception from ``run`` propagates; nothing is written.
    """
    from repro.solver.telemetry import EventRecorder, Telemetry

    recorder, tracer, registry = EventRecorder(), Tracer(), MetricsRegistry()
    wall_t0 = time.time()
    result = run(Telemetry(listeners=[recorder, tracer, MetricsAggregator(registry)]))
    out = InstrumentedRun(
        result=result, manifest=manifest(result, recorder.events),
        roots=tracer.finish(), markers=tracer.markers,
        events=recorder.events, registry=registry,
    )
    if out_dir is not None:
        out.manifest_path, out.events_path = write_run(
            out_dir, out.manifest, recorder.events, label=label, wall_t0=wall_t0,
        )
        if trace_path is None:
            trace_path = Path(out_dir) / trace_name
    if trace_path is not None:
        out.trace_path = write_chrome_trace(trace_path, out.roots, out.markers, label=label)
    return out


def collect_event_files(root: str | Path) -> list[Path]:
    """Every ``*.jsonl`` under ``root`` (recursively), sorted for determinism."""
    root = Path(root)
    if root.is_file():
        return [root]
    return sorted(p for p in root.rglob("*.jsonl") if p.is_file())


# -- cross-process trace merging -------------------------------------------


def merge_process_traces(paths, label: str = "merged") -> dict:
    """Stitch per-process event files into one Chrome-trace document.

    Each input file becomes a pid lane (named from its ``process_meta``
    label); worker tags inside a file keep their tid lanes.  Clocks are
    aligned on the recorded ``wall_t0`` epochs (files without one start
    at the merged origin).  When a file's meta records a
    ``parent_span_id`` and some span in another file carries that hex id
    in its ``span_id`` attr, an ``s``/``f`` flow-arrow pair links cause
    to effect across the pid lanes.  The document's ``otherData`` lists
    every distinct trace id seen — a healthy end-to-end run has one.
    """
    procs = []
    for p in paths:
        p = Path(p)
        meta, events = read_process_events(p)
        tracer = Tracer()
        tracer.replay(events)
        roots = tracer.finish()
        procs.append((p, meta or {}, roots, tracer.markers))

    epochs = [m.get("wall_t0") for _, m, _, _ in procs if m.get("wall_t0") is not None]
    base = min(epochs) if epochs else 0.0

    trace_events: list[dict] = []
    producers: dict[str, tuple[int, int, float]] = {}  # span-id hex -> (pid, tid, ts us)
    trace_ids: set[str] = set()
    lanes = []
    for idx, (path, meta, roots, markers) in enumerate(procs):
        pid = idx + 1
        wall_t0 = meta.get("wall_t0")
        offset = float(wall_t0) - base if wall_t0 is not None else 0.0
        proc_label = str(meta.get("label") or path.stem)
        trace = meta.get("trace") or {}
        if trace.get("trace_id"):
            trace_ids.add(str(trace["trace_id"]))
        sub = to_chrome_trace(roots, markers, label=proc_label, pid=pid, t_offset=offset)
        trace_events.extend(sub["traceEvents"])
        for root in roots:
            for sp, _ in root.walk():
                sid = sp.attrs.get("span_id")
                if isinstance(sid, str) and sid:
                    producers[sid] = (pid, sp.worker, (sp.start + offset) * _US)
        lanes.append((pid, offset, trace, roots))

    for pid, offset, trace, roots in lanes:
        parent = trace.get("parent_span_id")
        if not parent or parent not in producers:
            continue
        src_pid, src_tid, src_ts = producers[parent]
        if src_pid == pid:
            continue
        dst_ts = min(((r.start + offset) * _US for r in roots), default=offset * _US)
        arrow = {"name": "trace", "cat": "trace", "id": str(parent)}
        trace_events.append(
            {**arrow, "ph": "s", "ts": src_ts, "pid": src_pid, "tid": src_tid}
        )
        trace_events.append(
            {**arrow, "ph": "f", "bp": "e", "ts": max(dst_ts, src_ts), "pid": pid, "tid": 0}
        )

    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {"label": label, "trace_ids": sorted(trace_ids)},
    }


def write_merged_trace(path: str | Path, paths, label: str = "merged") -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(merge_process_traces(paths, label=label), allow_nan=False))
    return path
