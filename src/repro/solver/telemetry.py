"""Structured solve telemetry and wall-clock deadlines.

Two small primitives shared by every backend:

:class:`Deadline`
    One wall-clock budget created at the top of :func:`repro.solver.solve`
    and threaded through branch-and-bound node loops, Gomory cut rounds,
    simplex pivot loops, and Benders iterations.  Every layer polls the
    same object, so a budget of 0.1 s means 0.1 s for the *whole* solve,
    not 0.1 s per layer, and an expired deadline surfaces as an honest
    ``TIME_LIMIT``/``FEASIBLE`` status with the best incumbent found.

:class:`Telemetry`
    An event hub: backends call :meth:`Telemetry.emit` with an event kind
    and payload; the hub timestamps the event (monotonic seconds since the
    solve started) and fans it out to listeners.  Listeners are plain
    callables taking one :class:`SolveEvent`, or objects exposing
    ``on_event(event)``.  :class:`EventRecorder` is the bundled listener
    that collects events for JSON dumps and summary lines (used by the
    CLI's ``--telemetry`` flag).

Event kinds (``SolveEvent.kind``) emitted by the stack:

``solve_start`` / ``solve_end``
    Bracket one ``solve_compiled`` call; payload carries backend, sizes,
    and the final status.  ``solve_end`` also carries the call's own
    ``duration``, so listeners shared by several hubs need not pair the
    two events.
``phase_start`` / ``phase_end``
    Timed phases (presolve, simplex phase 1/2, root cuts, ...);
    ``phase_end`` carries ``duration`` and work counters such as simplex
    ``pivots``.
``node_open`` / ``node_close`` / ``node_prune``
    Branch-and-bound lifecycle: a node is pushed on the heap, explored,
    or discarded by bound domination.
``lp_warm`` / ``lp_cold``
    One per B&B node LP solve: the relaxation restarted from the parent
    basis (payload: pivots, repair ``mode``) or ran a cold two-phase
    solve (payload: pivots, ``reason``).  The ratio is the warm-hit rate.
    A child the dual repair proves infeasible is an ``lp_warm`` with
    ``mode="dual"``.
``incumbent``
    A new best integer-feasible solution (payload: objective, source).
``cut_round``
    One Gomory cut-generation round at the root (payload: cuts added).
``benders_iteration``
    One L-shaped master/subproblem round (payload: lower, upper, cuts).
``benders_parallel``
    Scenario subproblems fanned out across processes for one iteration
    (payload: scenarios, workers, warm-started count).
``backend_degraded``
    The ``"auto"`` backend fell back along its chain (HiGHS -> pure
    simplex), e.g. because SciPy is not importable.
``warm_start_rejected``
    A supplied initial incumbent failed the feasibility check, or the
    simplex fell back cold from a warm basis (``where="simplex"``,
    ``reason``).
``numerical_trouble``
    A cold simplex solve lost its basis (a refactorization came out
    singular) and returns ``ERROR``; payload ``where="simplex"`` and the
    ``reason``.  Branch-and-bound relays it for its node LPs, adding the
    ``node``.
``deadline_exceeded``
    A layer observed the shared deadline expiring and is unwinding.
``fuzz_case`` / ``fuzz_disagreement`` / ``fuzz_summary``
    Differential-fuzzing progress from :mod:`repro.verify.fuzz`: one event
    per generated case (family, verdict), one per oracle divergence, and
    one final tally.
"""

from __future__ import annotations

import json
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

# jsonable moved to repro.serialize (shared with stdlib-only consumers);
# re-exported here so existing call sites keep working.
from repro.serialize import jsonable

__all__ = [
    "EVENT_KINDS",
    "Deadline",
    "SolveEvent",
    "Telemetry",
    "EventRecorder",
    "jsonable",
]

EVENT_KINDS = frozenset(
    {
        "solve_start",
        "solve_end",
        "phase_start",
        "phase_end",
        "node_open",
        "node_close",
        "node_prune",
        "lp_warm",
        "lp_cold",
        "incumbent",
        "cut_round",
        "benders_iteration",
        "benders_parallel",
        "backend_degraded",
        "warm_start_rejected",
        "numerical_trouble",
        "deadline_exceeded",
        "fuzz_case",
        "fuzz_disagreement",
        "fuzz_summary",
    }
)


class Deadline:
    """A wall-clock budget measured from construction time.

    The object is intentionally tiny — ``expired()`` is polled inside
    pivot/node loops, so it does one clock read and one subtraction.
    ``Deadline(math.inf)`` never expires and costs the same to poll.
    """

    __slots__ = ("budget", "_start", "_clock")

    def __init__(self, budget: float = math.inf, clock=time.monotonic) -> None:
        if budget < 0:
            raise ValueError(f"deadline budget must be nonnegative, got {budget}")
        self.budget = float(budget)
        self._clock = clock
        self._start = clock()

    @classmethod
    def from_budget(cls, deadline: "Deadline | float | None" = None,
                    time_limit: float | None = None) -> "Deadline | None":
        """The ``deadline``/``time_limit`` arguments of a solve entry point
        as one deadline: a ``Deadline`` passes through, a number of seconds
        (either argument) starts a fresh one, neither means none."""
        if isinstance(deadline, (int, float)):
            return cls(float(deadline))
        if deadline is None and time_limit is not None:
            return cls(float(time_limit))
        return deadline

    @classmethod
    def never(cls) -> "Deadline":
        """A deadline that never expires (identity element for threading)."""
        return cls(math.inf)

    def elapsed(self) -> float:
        """Seconds since the deadline was created."""
        return self._clock() - self._start

    def remaining(self) -> float:
        """Seconds left in the budget (negative once expired)."""
        return self.budget - self.elapsed()

    def expired(self) -> bool:
        return self.remaining() <= 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Deadline(budget={self.budget}, remaining={self.remaining():.3f})"


@dataclass(frozen=True, slots=True)
class SolveEvent:
    """One telemetry record: ``kind`` (see :data:`EVENT_KINDS`), a
    timestamp ``t`` in seconds since the owning :class:`Telemetry` was
    created, and a free-form ``data`` payload.

    Slotted because recorders keep every event: a rolling campaign retains
    thousands of them per run.
    """

    kind: str
    t: float
    data: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "t": self.t, **self.data}


def _as_callback(listener):
    """Accept plain callables or objects with an ``on_event`` method."""
    on_event = getattr(listener, "on_event", None)
    if callable(on_event):
        return on_event
    if callable(listener):
        return listener
    raise TypeError(
        f"telemetry listener must be callable or define on_event(); got {listener!r}"
    )


class Telemetry:
    """Timestamps events and fans them out to listeners.

    Backends receive ``telemetry: Telemetry | None``; passing ``None``
    (the default when no listener is attached) keeps the hot loops free
    of any callback overhead, so guard emission sites with
    ``if telemetry:``.
    """

    __slots__ = ("_callbacks", "_clock", "_t0", "_last_t")

    def __init__(self, listeners=(), clock=time.monotonic) -> None:
        if not isinstance(listeners, (list, tuple)):
            listeners = (listeners,)
        self._callbacks = [_as_callback(cb) for cb in listeners]
        self._clock = clock
        self._t0 = clock()
        self._last_t = 0.0

    @classmethod
    def from_listener(cls, listener) -> "Telemetry | None":
        """``None`` passthrough so call sites stay one-liners."""
        if listener is None:
            return None
        if isinstance(listener, Telemetry):
            return listener
        return cls(listeners=(listener,))

    def now(self) -> float:
        """Seconds since the hub was created, on the hub's own clock."""
        return self._clock() - self._t0

    def emit(self, kind: str, **data) -> None:
        """Timestamp and dispatch one event to every listener."""
        # Clamp to the last emitted timestamp so event streams are monotone
        # even under clock adjustments or sub-resolution spacing.
        t = max(self._clock() - self._t0, self._last_t)
        self._last_t = t
        event = SolveEvent(kind=kind, t=t, data=data)
        for cb in self._callbacks:
            cb(event)

    @contextmanager
    def phase(self, name: str, **data):
        """Bracket a timed phase; yields a dict merged into ``phase_end``
        so the body can attach counters (pivots, cuts, ...)."""
        self.emit("phase_start", phase=name, **data)
        start = self._clock()
        extra: dict = {}
        try:
            yield extra
        finally:
            self.emit(
                "phase_end", phase=name, duration=self._clock() - start, **data, **extra
            )


class EventRecorder:
    """Listener that keeps every event, with JSON/summary convenience.

    >>> rec = EventRecorder()
    >>> solve(model, listener=rec)          # doctest: +SKIP
    >>> rec.summary_line()                  # doctest: +SKIP
    """

    def __init__(self) -> None:
        self.events: list[SolveEvent] = []

    def on_event(self, event: SolveEvent) -> None:
        self.events.append(event)

    def __len__(self) -> int:
        return len(self.events)

    def kinds(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for ev in self.events:
            counts[ev.kind] = counts.get(ev.kind, 0) + 1
        return counts

    def of_kind(self, kind: str) -> list[SolveEvent]:
        return [ev for ev in self.events if ev.kind == kind]

    def to_dicts(self) -> list[dict]:
        """Events as strictly-JSON-safe dicts (see :func:`jsonable`)."""
        return [jsonable(ev.to_dict()) for ev in self.events]

    def to_json(self, indent: int | None = None) -> str:
        # allow_nan=False guarantees the output parses everywhere; jsonable
        # already mapped non-finite floats and exotic payload types.
        return json.dumps(self.to_dicts(), indent=indent, allow_nan=False)

    def summary(self) -> dict:
        """Aggregate view used by the CLI summary line."""
        counts = self.kinds()
        incumbents = self.of_kind("incumbent")
        phases = {}
        for ev in self.of_kind("phase_end"):
            name = ev.data.get("phase", "?")
            phases[name] = phases.get(name, 0.0) + float(ev.data.get("duration", 0.0))
        return {
            "events": len(self.events),
            "wall_time": self.events[-1].t if self.events else 0.0,
            "nodes": counts.get("node_close", 0),
            "pruned": counts.get("node_prune", 0),
            "incumbents": len(incumbents),
            "best_objective": incumbents[-1].data.get("objective") if incumbents else None,
            "cut_rounds": counts.get("cut_round", 0),
            "benders_iterations": counts.get("benders_iteration", 0),
            "degradations": counts.get("backend_degraded", 0),
            "phase_seconds": phases,
        }

    def summary_line(self) -> str:
        s = self.summary()
        bits = [f"events={s['events']}", f"wall={s['wall_time']:.3f}s"]
        if s["nodes"]:
            bits.append(f"nodes={s['nodes']} (pruned {s['pruned']})")
        if s["incumbents"]:
            bits.append(f"incumbents={s['incumbents']} best={s['best_objective']:.6g}")
        if s["cut_rounds"]:
            bits.append(f"cut_rounds={s['cut_rounds']}")
        if s["benders_iterations"]:
            bits.append(f"benders_iters={s['benders_iterations']}")
        if s["degradations"]:
            bits.append(f"degraded={s['degradations']}")
        if s["phase_seconds"]:
            top = max(s["phase_seconds"], key=s["phase_seconds"].get)
            bits.append(f"hottest_phase={top}:{s['phase_seconds'][top]:.3f}s")
        return "telemetry: " + " ".join(bits)
