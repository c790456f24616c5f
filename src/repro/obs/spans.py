"""Hierarchical spans reconstructed from the flat solve-event stream.

The solver stack reports progress as a flat sequence of
:class:`~repro.solver.telemetry.SolveEvent` records.  That answers *what
happened* but not *where the time went*: a ``phase_end`` for
``simplex_phase2`` says nothing about which B&B node, which Benders
iteration, or which fuzz case it served.  :class:`Tracer` is a telemetry
listener that folds the stream back into a parent/child **span tree**:

* ``solve_start``/``solve_end`` and ``phase_start``/``phase_end`` bracket
  strictly nested spans (a stack);
* ``node_open``/``node_close``/``node_prune`` are matched **by node id**,
  not stack order — B&B explores nodes best-first, so open intervals
  interleave freely;
* ``benders_iteration`` and ``fuzz_case`` events mark the *end* of one
  unit of work, so the tracer slices them into back-to-back spans that
  tile their parent;
* everything else (``incumbent``, ``backend_degraded``,
  ``deadline_exceeded``, ...) becomes an instant **marker** attached to
  the tree, and increments work counters on the enclosing span.

A stream truncated by a deadline (a ``phase_start`` whose ``phase_end``
never arrives) is handled by :meth:`Tracer.finish`, which force-closes
open spans at the last observed timestamp and flags them ``truncated``.

Spans carry a ``worker`` lane (0 = the parent process) so event streams
forwarded from :func:`repro.parallel.parallel_map` workers merge into one
tree; see :mod:`repro.parallel.pool`.

Experiment code that wants its own top-level structure uses the
:func:`span` context manager, which emits the same ``phase_start`` /
``phase_end`` pair through the hub and therefore nests naturally around
any solver activity it encloses.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from dataclasses import dataclass, field

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # annotation-only: keeps this module stdlib-importable
    from repro.solver.telemetry import SolveEvent, Telemetry

__all__ = ["Span", "Marker", "Tracer", "span"]


@dataclass
class Marker:
    """An instant (zero-duration) annotation on the trace timeline."""

    kind: str
    t: float
    data: dict = field(default_factory=dict)
    worker: int = 0


@dataclass
class Span:
    """One node of the reconstructed span tree.

    ``start``/``end`` are seconds on the owning hub's clock; ``end`` is
    ``None`` while the span is open (only ever observable mid-stream).
    ``counters`` aggregates work attributed to this span *itself* (nodes
    explored while it was innermost, cut rounds, pivots, ...).
    """

    name: str
    category: str
    start: float
    end: float | None = None
    span_id: int = 0
    parent_id: int | None = None
    worker: int = 0
    attrs: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    children: list["Span"] = field(default_factory=list)
    truncated: bool = False

    @property
    def duration(self) -> float:
        """Wall-clock extent in seconds (0.0 while still open)."""
        return 0.0 if self.end is None else self.end - self.start

    @property
    def self_time(self) -> float:
        """Duration minus the duration of direct *exclusive* children.

        ``node`` children are excluded from the subtraction: a B&B node
        span covers its whole queue residency (heap push to pop), so node
        intervals overlap each other and their parent freely — subtracting
        them would zero out the parent's genuine loop time.
        """
        owned = sum(c.duration for c in self.children if c.category != "node")
        return max(0.0, self.duration - owned)

    def count(self, key: str, amount: float = 1.0) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def walk(self, depth: int = 0):
        """Yield ``(span, depth)`` over the subtree, depth-first preorder."""
        yield self, depth
        for child in self.children:
            yield from child.walk(depth + 1)

    def find(self, name: str) -> "Span | None":
        """First span in the subtree whose name equals ``name``."""
        for s, _ in self.walk():
            if s.name == name:
                return s
        return None

    def total_counter(self, key: str) -> float:
        """Sum of one counter over the whole subtree."""
        return sum(s.counters.get(key, 0) for s, _ in self.walk())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = f"{self.duration * 1e3:.2f}ms" if self.end is not None else "open"
        return f"Span({self.name!r}, {state}, children={len(self.children)})"


#: Event kinds that mark the completion of one sliced unit of work.
_SLICED = {"benders_iteration": "benders_iter", "fuzz_case": "fuzz_case"}

#: Instant kinds that become markers (plus counters on the enclosing span).
_MARKERS = {
    "incumbent",
    "cut_round",
    "backend_degraded",
    "warm_start_rejected",
    "numerical_trouble",
    "deadline_exceeded",
    "fuzz_disagreement",
    "fuzz_summary",
}


class Tracer:
    """Telemetry listener reconstructing the span tree from solve events.

    Use as a listener (``solve(model, listener=tracer)``) or feed recorded
    events through :meth:`replay`; call :meth:`finish` (idempotent) and
    read :attr:`roots` / :attr:`markers`.
    """

    def __init__(self) -> None:
        self.roots: list[Span] = []
        self.markers: list[Marker] = []
        self._stack: list[Span] = []
        self._open_nodes: dict[tuple[int, int], Span] = {}
        self._ids = itertools.count(1)
        self._last_t = 0.0
        # Per-parent timestamp of the previous sliced event, so consecutive
        # benders_iteration / fuzz_case events tile the parent interval.
        self._slice_cursor: dict[int | None, float] = {}
        # Per-(enclosing span, worker) clock offset mapping in-worker
        # ``worker_t`` timestamps onto the parent clock; see _worker_time.
        self._worker_offset: dict[tuple[int | None, int], float] = {}
        self._finished = False

    # -- listener protocol -------------------------------------------------

    def on_event(self, event: SolveEvent) -> None:
        data = dict(event.data)
        worker = int(data.pop("worker", 0))
        t = event.t
        self._last_t = max(self._last_t, t)
        worker_t = data.pop("worker_t", None)
        if worker_t is not None:
            t = self._worker_time(worker, float(worker_t), t)
        kind = event.kind

        if kind == "solve_start":
            self._open(f"solve[{data.get('backend', '?')}]", "solve", t, data, worker)
        elif kind == "solve_end":
            self._close_category("solve", t, data)
        elif kind == "phase_start":
            name = str(data.pop("phase", "?"))
            self._open(name, "phase", t, data, worker)
        elif kind == "phase_end":
            name = str(data.pop("phase", "?"))
            self._close_phase(name, t, data)
        elif kind == "node_open":
            self._node_open(t, data, worker)
        elif kind == "node_close":
            self._node_close(t, data, worker, pruned=False)
        elif kind == "node_prune":
            self._node_close(t, data, worker, pruned=True)
        elif kind in _SLICED:
            self._slice(kind, t, data, worker)
        else:
            self.markers.append(Marker(kind=kind, t=t, data=data, worker=worker))
            self._mark_counters(kind, data)

    __call__ = on_event  # also usable as a plain-callable listener

    # -- stream replay / finalisation --------------------------------------

    def replay(self, events) -> "Tracer":
        """Feed a recorded event sequence (e.g. ``EventRecorder.events``)."""
        for ev in events:
            self.on_event(ev)
        return self

    def finish(self) -> list[Span]:
        """Force-close any open spans at the last timestamp; return roots.

        A deadline can expire between ``phase_start`` and ``phase_end`` —
        the enclosing solver layer unwinds without emitting the closing
        event.  Those spans are closed here and flagged ``truncated`` so
        reports can render them honestly.
        """
        if not self._finished:
            for span in reversed(self._stack):
                span.end = self._last_t
                span.truncated = True
            self._stack.clear()
            for span in self._open_nodes.values():
                span.end = self._last_t
                span.truncated = True
            self._open_nodes.clear()
            self._finished = True
        return self.roots

    # -- internals ---------------------------------------------------------

    def _worker_time(self, worker: int, worker_t: float, t: float) -> float:
        """Map a forwarded in-worker timestamp onto the parent clock.

        ``parallel_map`` re-emits captured worker events only after the
        pool completes, so their parent-hub timestamps all collapse at
        the fan-out's end — every worker span would render as a zero-width
        sliver on one lane.  ``worker_t`` is monotone on a per-process
        epoch, so anchoring each worker's first event at the enclosing
        span's start recovers real in-worker start times and durations on
        that worker's own lane.  The anchor is keyed per enclosing span:
        each fan-out phase spawns a fresh pool, so worker ids (and their
        epochs) only mean something within one phase.  Spans owned by
        this same worker are skipped when picking the anchor — otherwise
        a worker's ``phase_end`` would re-anchor on the span being closed
        and collapse it to zero width.
        """
        anchor = next(
            (s for s in reversed(self._stack) if s.worker != worker), None
        )
        key = (anchor.span_id if anchor is not None else None, worker)
        offset = self._worker_offset.get(key)
        if offset is None:
            base = anchor.start if anchor is not None else t
            offset = base - worker_t
            self._worker_offset[key] = offset
        # Never run past the re-emission time: the fan-out demonstrably
        # finished by then, whatever the two clocks disagree about.
        return min(worker_t + offset, t)

    def _attach(self, span: Span) -> None:
        if self._stack:
            parent = self._stack[-1]
            span.parent_id = parent.span_id
            parent.children.append(span)
        else:
            self.roots.append(span)

    def _open(self, name: str, category: str, t: float, data: dict, worker: int) -> Span:
        span = Span(
            name=name, category=category, start=t,
            span_id=next(self._ids), worker=worker, attrs=data,
        )
        self._attach(span)
        self._stack.append(span)
        self._slice_cursor[span.span_id] = t
        return span

    def _close_category(self, category: str, t: float, data: dict) -> None:
        for i in range(len(self._stack) - 1, -1, -1):
            if self._stack[i].category == category:
                # Unbalanced inner spans (deadline unwinding) close with us.
                for inner in self._stack[i + 1:]:
                    inner.end = t
                    inner.truncated = True
                span = self._stack[i]
                span.end = t
                span.attrs.update(data)
                del self._stack[i:]
                self._close_queued_nodes(span, t)
                return
        # end without a start: record an instant span at t
        s = Span(name=category, category=category, start=t, end=t,
                 span_id=next(self._ids), attrs=data)
        self._attach(s)

    def _close_phase(self, name: str, t: float, data: dict) -> None:
        for i in range(len(self._stack) - 1, -1, -1):
            if self._stack[i].category == "phase" and self._stack[i].name == name:
                for inner in self._stack[i + 1:]:
                    inner.end = t
                    inner.truncated = True
                span = self._stack[i]
                span.end = t
                span.attrs.update(data)
                del self._stack[i:]
                self._close_queued_nodes(span, t)
                return
        s = Span(name=name, category="phase", start=t, end=t,
                 span_id=next(self._ids), attrs=data)
        self._attach(s)

    def _close_queued_nodes(self, owner: Span, t: float) -> None:
        """Close node spans still queued when their owning span ends.

        B&B can terminate with open nodes on the heap (bound domination
        prunes the remainder in one step); those were never explored, so
        they close with the solve and are flagged ``open_at_exit`` rather
        than left dangling for :meth:`finish` to call truncated.
        """
        for key in [k for k, s in self._open_nodes.items() if s.parent_id == owner.span_id]:
            node_span = self._open_nodes.pop(key)
            node_span.end = t
            node_span.attrs["open_at_exit"] = True

    def _node_open(self, t: float, data: dict, worker: int) -> None:
        node = int(data.get("node", -1))
        span = Span(
            name=f"node {node}", category="node", start=t,
            span_id=next(self._ids), worker=worker, attrs=data,
        )
        # Nodes attach to the innermost *stack* span (the solve or phase
        # that owns the B&B loop), never to another node: open intervals
        # interleave in heap order, not containment order.
        self._attach(span)
        if node >= 0:
            self._open_nodes[(worker, node)] = span
        if self._stack:
            self._stack[-1].count("nodes_opened")

    def _node_close(self, t: float, data: dict, worker: int, pruned: bool) -> None:
        node = int(data.get("node", -1))
        span = self._open_nodes.pop((worker, node), None)
        if span is None:
            # prune of a never-opened child bound, or a stray close: the
            # work still counts, but there is no interval to close.
            if self._stack:
                self._stack[-1].count("nodes_pruned" if pruned else "nodes_closed")
            return
        span.end = t
        span.attrs.update(data)
        if pruned:
            span.attrs["pruned"] = True
        if self._stack:
            self._stack[-1].count("nodes_pruned" if pruned else "nodes_closed")

    def _slice(self, kind: str, t: float, data: dict, worker: int) -> None:
        parent_id = self._stack[-1].span_id if self._stack else None
        start = self._slice_cursor.get(parent_id, self._stack[-1].start if self._stack else t)
        base = _SLICED[kind]
        index = data.get("iteration", data.get("index"))
        name = base if index is None else f"{base} {index}"
        span = Span(
            name=name, category=base, start=min(start, t), end=t,
            span_id=next(self._ids), worker=worker, attrs=data,
        )
        self._attach(span)
        self._slice_cursor[parent_id] = t
        if self._stack:
            self._stack[-1].count(f"{base}s")

    def _mark_counters(self, kind: str, data: dict) -> None:
        if not self._stack:
            return
        top = self._stack[-1]
        if kind == "incumbent":
            top.count("incumbents")
        elif kind == "cut_round":
            top.count("cut_rounds")
            top.count("cuts_added", float(data.get("added", 0)))
        elif kind == "backend_degraded":
            top.count("degradations")
        elif kind == "deadline_exceeded":
            top.truncated = True


@contextmanager
def span(telemetry: Telemetry | None, name: str, **attrs):
    """Bracket a block of experiment code as a span in the event stream.

    Emits the same ``phase_start``/``phase_end`` pair the solver phases
    use, so :class:`Tracer` nests any enclosed solver activity under it.
    ``telemetry`` may be ``None`` (the disabled path): the block then runs
    with zero bookkeeping.  Yields a dict merged into the closing event,
    for attaching counters from the body.
    """
    if telemetry is None:
        yield {}
        return
    with telemetry.phase(name, **attrs) as info:
        yield info
