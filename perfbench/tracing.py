"""Out-of-tree tracing: wrap the program's public functions, keep spans in
memory, and split a traced wall into per-layer self times.

A span is ``(id, layer, op, start, end, parent, run id)``; its parent is the
span open on the same thread when it started, or an explicit link (the
service server links its spans to the client request that caused them).
Times come from ``time.monotonic``, which on Linux is one system-wide
clock, so spans of the server process and of the client share a timeline.

:func:`attribute` turns spans into self times.  Each *lane* (one thread
of the workload's own loop) has a window; every instant of a window goes
to the deepest span open at that instant (the latest-started one on a
tie), or to nobody.  For spans nested on one thread this is exactly
``self = span - children``; spans of other threads or processes linked
into a lane (a server job under a client request) are handled by the same
rule.  Per lane, the self times plus the unattributed time add up to the
window, by construction.

Functions are wrapped at the attribute their caller looks up, e.g.
``repro.fleet.planner.solve_heuristic`` rather than the definition in
``repro.fleet.heuristic``: that is the name ``plan_fleet`` resolves at
call time.  :func:`installed` swaps wrappers in and restores the originals.
"""

from __future__ import annotations

import heapq
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

clock = time.monotonic


@dataclass
class Span:
    sid: str
    layer: str
    op: str
    start: float
    end: float
    parent: str | None
    run_id: str
    lane: str | None = None  # set on spans opened with no parent


class Tracer:
    """In-memory span and counter store for one process."""

    def __init__(self, run_id: str, prefix: str) -> None:
        self.run_id = run_id
        self.prefix = prefix
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def new_id(self) -> str:
        return f"{self.prefix}{next(self._ids)}"

    def stack(self) -> list[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def lane(self) -> str:
        """Key of the calling thread's lane."""
        return f"{self.prefix}{threading.get_ident()}"

    def add(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counts[name] += value

    def record(self, sid: str, layer: str, op: str, start: float, end: float,
               parent: str | None) -> None:
        lane = None if parent is not None else self.lane()
        self.spans.append(Span(sid, layer, op, start, end, parent, self.run_id, lane))

    @contextmanager
    def span(self, layer: str, op: str, sid: str | None = None,
             parent: str | None = None):
        stack = self.stack()
        sid = sid or self.new_id()
        if parent is None and stack:
            parent = stack[-1]
        stack.append(sid)
        start = clock()
        try:
            yield sid
        finally:
            end = clock()
            stack.pop()
            self.record(sid, layer, op, start, end, parent)

    def wrap(self, fn, layer: str, op: str, after, link):
        """``fn`` timed as a span; ``after(tracer, result, args, kwargs)``,
        unless None, updates counters; ``link(args, kwargs)``, unless None,
        names an explicit parent when no span is open on this thread."""
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer.stack()
            sid = tracer.new_id()
            parent = stack[-1] if stack else (link(args, kwargs) if link else None)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                tracer.record(sid, layer, op, start, end, parent)
            if after is not None:
                after(tracer, result, args, kwargs)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", op)
        wrapper.__qualname__ = getattr(fn, "__qualname__", op)
        return wrapper

    def dump(self) -> dict:
        return {"run_id": self.run_id, "counts": dict(self.counts),
                "spans": [list(asdict(s).values()) for s in self.spans]}


def load_spans(doc: dict) -> list[Span]:
    return [Span(*row) for row in doc["spans"]]


def _resolve(target: str):
    """``"pkg.mod:Attr.sub"`` -> (owner object, attribute name)."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


@contextmanager
def installed(tracer: Tracer, patches):
    """Install ``(target, layer, op, after, link)`` wrappers; restore on exit."""
    originals = []
    try:
        for target, layer, op, after, link in patches:
            owner, attr = _resolve(target)
            fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            originals.append((owner, attr, fn))
            setattr(owner, attr, tracer.wrap(fn, layer, op, after, link))
        yield tracer
    finally:
        for owner, attr, fn in reversed(originals):
            setattr(owner, attr, fn)


def attribute(spans: list[Span], windows: dict[str, tuple[float, float]]):
    """Self time per ``(layer, op)`` over the lanes in ``windows``.

    Returns ``(self_s, unattributed_s, wall_s)``: the sum over lanes of the
    time owned by each span kind, the time owned by no span, and the total
    window length.  Spans whose root is not in a lane of ``windows`` are
    ignored; every span is clipped to its parent (and lane window).
    """
    by_id = {s.sid: s for s in spans}
    info: dict[str, tuple[str, int, float, float]] = {}  # sid -> lane, depth, lo, hi

    def resolve(sid: str):
        if sid in info:
            return info[sid]
        chain = []
        cur = by_id.get(sid)
        while cur is not None and cur.sid not in info:
            chain.append(cur)
            cur = by_id.get(cur.parent) if cur.parent is not None else None
        if cur is not None:
            lane, depth, lo, hi = info[cur.sid]
        else:
            top = chain.pop()
            if top.lane in windows:
                w0, w1 = windows[top.lane]
                lane, depth = top.lane, 0
                lo, hi = max(top.start, w0), min(top.end, w1)
            else:
                lane, depth, lo, hi = None, 0, 0.0, 0.0
            info[top.sid] = (lane, depth, lo, hi)
        for s in reversed(chain):
            depth += 1
            lo, hi = max(s.start, lo), min(s.end, hi)
            info[s.sid] = (lane, depth, lo, hi)
        return info[sid]

    events: dict[str, list] = defaultdict(list)
    for seq, s in enumerate(spans):
        lane, depth, lo, hi = resolve(s.sid)
        if lane is None or hi <= lo:
            continue
        events[lane].append((lo, 1, seq, depth))
        events[lane].append((hi, 0, seq, depth))

    owned: dict[tuple[str, str], float] = defaultdict(float)
    unattributed = 0.0
    wall = 0.0
    for lane, (w0, w1) in windows.items():
        wall += w1 - w0
        evs = sorted(events.get(lane, ()))
        heap: list = []
        ended: set[int] = set()
        t = w0
        for when, kind, seq, depth in evs:
            if when > t:
                while heap and heap[0][2] in ended:
                    heapq.heappop(heap)
                if heap:
                    s = spans[heap[0][2]]
                    owned[(s.layer, s.op)] += when - t
                else:
                    unattributed += when - t
                t = when
            if kind == 1:
                heapq.heappush(heap, (-depth, -spans[seq].start, seq))
            else:
                ended.add(seq)
        if w1 > t:
            while heap and heap[0][2] in ended:
                heapq.heappop(heap)
            if heap:
                s = spans[heap[0][2]]
                owned[(s.layer, s.op)] += w1 - t
            else:
                unattributed += w1 - t
    return dict(owned), unattributed, wall


def write_trace(path: Path, docs: list[dict], windows: dict) -> None:
    """Persist the merged spans of one traced pass."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"windows": windows, "processes": docs}))
