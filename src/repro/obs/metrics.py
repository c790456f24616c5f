"""Counters, gauges, histograms, and time series over solve events.

A :class:`MetricsRegistry` holds named instruments; the
:class:`MetricsAggregator` listener populates a registry live from the
telemetry stream (pivots, nodes explored, cut rounds, incumbent
trajectory, Benders bound trajectory), so any solve or fuzz run can end
with a one-call metrics table.

The **disabled path** is designed to cost nothing: the module-level
:data:`NULL_REGISTRY` hands out one shared no-op instrument for every
name, so code can write ``registry.counter("nodes").inc()`` unconditionally
and pay a single attribute call when metrics are off.  The registry used
by the solvers themselves is stricter still — backends emit events only
behind ``if telemetry:`` guards, so with no listener attached *zero*
events and *zero* instruments exist (see ``Telemetry.from_listener``
returning ``None``).
"""

from __future__ import annotations

import math
import re
import threading
from dataclasses import dataclass, field

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # annotation-only: keeps this module stdlib-importable
    from repro.solver.telemetry import SolveEvent

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Series",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "MetricsAggregator",
    "DEFAULT_DURATION_BUCKETS",
    "to_prometheus",
]

#: Upper bounds (seconds) for duration histograms; the last bucket is +inf.
DEFAULT_DURATION_BUCKETS = (
    0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0, math.inf
)

#: Upper bounds (pivot counts) for the per-LP work histogram: warm restarts
#: land in the single-digit buckets, cold two-phase solves in the hundreds.
_PIVOT_BUCKETS = (0.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0, math.inf)


@dataclass
class Counter:
    """Monotone accumulator."""

    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def snapshot(self) -> dict:
        return {"type": "counter", "value": self.value}


@dataclass
class Gauge:
    """Last-write-wins point-in-time value."""

    value: float = math.nan

    def set(self, value: float) -> None:
        self.value = float(value)

    def snapshot(self) -> dict:
        return {"type": "gauge", "value": self.value}


class Histogram:
    """Fixed-bucket histogram (cumulative-style buckets, like Prometheus).

    ``buckets`` are upper bounds; an observation lands in the first bucket
    whose bound is >= the value.  The bound list is frozen at creation so
    two runs of the same workload produce comparable vectors.
    """

    __slots__ = ("buckets", "counts", "count", "sum", "min", "max")

    def __init__(self, buckets=DEFAULT_DURATION_BUCKETS) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds or sorted(bounds) != list(bounds):
            raise ValueError(f"histogram buckets must be sorted and non-empty: {buckets}")
        if bounds[-1] != math.inf:
            bounds = bounds + (math.inf,)
        self.buckets = bounds
        self.counts = [0] * len(bounds)
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.sum += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[i] += 1
                return

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else math.nan

    def quantile(self, q: float) -> float:
        """Bucket-resolution quantile estimate (upper bound of the bucket)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return math.nan
        target = q * self.count
        seen = 0
        for bound, n in zip(self.buckets, self.counts):
            seen += n
            if seen >= target:
                return bound
        return self.buckets[-1]

    def snapshot(self) -> dict:
        return {
            "type": "histogram",
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean,
            "min": self.min if self.count else math.nan,
            "max": self.max if self.count else math.nan,
            "buckets": list(self.buckets),
            "counts": list(self.counts),
        }


@dataclass
class Series:
    """An append-only ``(t, value)`` trajectory (bounds over time, gaps)."""

    points: list[tuple[float, float]] = field(default_factory=list)

    def observe(self, t: float, value: float) -> None:
        self.points.append((float(t), float(value)))

    @property
    def last(self) -> float:
        return self.points[-1][1] if self.points else math.nan

    def snapshot(self) -> dict:
        return {
            "type": "series",
            "n": len(self.points),
            "first": self.points[0][1] if self.points else math.nan,
            "last": self.last,
            "points": [[t, v] for t, v in self.points],
        }


class _NullInstrument:
    """Shared do-nothing instrument for the disabled path."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, *args) -> None:
        pass


_NULL = _NullInstrument()


class MetricsRegistry:
    """Named instruments with create-on-first-use semantics.

    Thread-safe at the registry level: the planning service mutates
    instruments from solver worker threads while HTTP handler threads
    snapshot ``/metrics`` concurrently, so create-on-first-use and
    :meth:`snapshot` hold a lock — an unlocked check-then-set can hand
    two racing threads *different* instruments for the same name,
    silently dropping one thread's observations.
    """

    enabled = True

    def __init__(self) -> None:
        self._metrics: dict[str, object] = {}
        self._lock = threading.Lock()

    def _get(self, name: str, factory, cls):
        with self._lock:
            inst = self._metrics.get(name)
            if inst is None:
                inst = factory()
                self._metrics[name] = inst
            elif not isinstance(inst, cls):
                raise TypeError(
                    f"metric {name!r} already registered as {type(inst).__name__}, "
                    f"not {cls.__name__}"
                )
            return inst

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge, Gauge)

    def histogram(self, name: str, buckets=DEFAULT_DURATION_BUCKETS) -> Histogram:
        return self._get(name, lambda: Histogram(buckets), Histogram)

    def series(self, name: str) -> Series:
        return self._get(name, Series, Series)

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def snapshot(self) -> dict:
        """JSON-friendly dump of every instrument, sorted by name."""
        with self._lock:
            return {name: self._metrics[name].snapshot() for name in sorted(self._metrics)}

    def render_table(self) -> str:
        """Aligned text table for terminal reports."""
        rows = []
        for name in self.names():
            snap = self._metrics[name].snapshot()
            kind = snap["type"]
            if kind == "counter" or kind == "gauge":
                detail = _fmt(snap["value"])
            elif kind == "histogram":
                detail = (
                    f"n={snap['count']} mean={_fmt(snap['mean'])} "
                    f"min={_fmt(snap['min'])} max={_fmt(snap['max'])}"
                )
            else:  # series
                detail = f"n={snap['n']} first={_fmt(snap['first'])} last={_fmt(snap['last'])}"
            rows.append((name, kind, detail))
        if not rows:
            return "(no metrics)"
        w_name = max(len(r[0]) for r in rows)
        w_kind = max(len(r[1]) for r in rows)
        return "\n".join(f"{n.ljust(w_name)}  {k.ljust(w_kind)}  {d}" for n, k, d in rows)


class _NullRegistry(MetricsRegistry):
    """Registry whose instruments all alias one shared no-op object."""

    enabled = False

    def __init__(self) -> None:
        super().__init__()

    def counter(self, name: str):
        return _NULL

    def gauge(self, name: str):
        return _NULL

    def histogram(self, name: str, buckets=DEFAULT_DURATION_BUCKETS):
        return _NULL

    def series(self, name: str):
        return _NULL


#: The shared disabled registry: every instrument is the same no-op object.
NULL_REGISTRY = _NullRegistry()


def _fmt(v) -> str:
    if isinstance(v, float):
        if math.isnan(v):
            return "-"
        if v == int(v) and abs(v) < 1e15:
            return str(int(v))
        return f"{v:.6g}"
    return str(v)


# -- Prometheus text exposition (format 0.0.4) ------------------------------

_PROM_BAD_CHARS = re.compile(r"[^a-zA-Z0-9_:]")


def _prom_name(name: str, namespace: str) -> str:
    full = f"{namespace}_{name}" if namespace else name
    full = _PROM_BAD_CHARS.sub("_", full)
    if full and full[0].isdigit():
        full = "_" + full
    return full


def _prom_value(v) -> str:
    v = float(v)
    if math.isnan(v):
        return "NaN"
    if math.isinf(v):
        return "+Inf" if v > 0 else "-Inf"
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(v)


def to_prometheus(snapshot: dict, namespace: str = "repro") -> str:
    """Render a :meth:`MetricsRegistry.snapshot` as Prometheus text 0.0.4.

    Counters and gauges map directly; a :class:`Series` is exposed as a
    gauge of its last value.  Histogram buckets are rendered with the
    **cumulative** counts the exposition format requires (the in-memory
    representation keeps per-bucket counts), plus ``_sum``/``_count``.
    Nested/unknown snapshot entries (e.g. the service's cache summary)
    are skipped — the JSON endpoint carries those.
    """
    lines: list[str] = []
    for name in sorted(snapshot):
        snap = snapshot[name]
        if not isinstance(snap, dict) or "type" not in snap:
            continue
        metric = _prom_name(name, namespace)
        kind = snap["type"]
        if kind == "counter":
            lines.append(f"# TYPE {metric} counter")
            lines.append(f"{metric} {_prom_value(snap['value'])}")
        elif kind == "gauge":
            lines.append(f"# TYPE {metric} gauge")
            lines.append(f"{metric} {_prom_value(snap['value'])}")
        elif kind == "series":
            lines.append(f"# TYPE {metric} gauge")
            lines.append(f"{metric} {_prom_value(snap['last'])}")
        elif kind == "histogram":
            lines.append(f"# TYPE {metric} histogram")
            cumulative = 0
            for bound, count in zip(snap["buckets"], snap["counts"]):
                cumulative += int(count)
                lines.append(
                    f'{metric}_bucket{{le="{_prom_value(bound)}"}} {cumulative}'
                )
            lines.append(f"{metric}_sum {_prom_value(snap['sum'])}")
            lines.append(f"{metric}_count {int(snap['count'])}")
    return "\n".join(lines) + "\n"


class MetricsAggregator:
    """Telemetry listener that folds solve events into a registry.

    Derived metrics:

    * ``simplex_pivots`` / ``pivots_per_sec`` from simplex ``phase_end``;
    * ``phase_seconds.<name>`` counters and a ``phase_duration_s``
      histogram across all phases;
    * ``nodes_explored`` / ``nodes_opened`` / ``nodes_pruned``;
    * ``cut_rounds`` / ``cuts_added``;
    * ``incumbent_objective`` and ``incumbent_gap`` series over time;
    * ``benders_lower`` / ``benders_upper`` bound trajectories;
    * ``solves`` / ``solve_seconds`` (the ``duration`` each ``solve_end``
      carries — one aggregator may listen to many hubs, each on its own
      clock, so start/end timestamps are never paired across events);
    * fuzz campaign tallies.
    """

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()

    def on_event(self, event: SolveEvent) -> None:
        reg = self.registry
        kind = event.kind
        data = event.data
        if kind == "phase_end":
            name = data.get("phase", "?")
            duration = float(data.get("duration", 0.0))
            reg.counter(f"phase_seconds.{name}").inc(duration)
            reg.histogram("phase_duration_s").observe(duration)
            pivots = data.get("pivots")
            if pivots is not None:
                reg.counter("simplex_pivots").inc(float(pivots))
                if duration > 0:
                    reg.gauge("pivots_per_sec").set(float(pivots) / duration)
        elif kind == "node_open":
            reg.counter("nodes_opened").inc()
        elif kind == "node_close":
            reg.counter("nodes_explored").inc()
        elif kind == "node_prune":
            reg.counter("nodes_pruned").inc()
        elif kind == "lp_warm" or kind == "lp_cold":
            reg.counter("lp_warm_solves" if kind == "lp_warm" else "lp_cold_solves").inc()
            pivots = data.get("pivots")
            if pivots is not None:
                reg.histogram(
                    "lp_pivots_per_solve", buckets=_PIVOT_BUCKETS
                ).observe(float(pivots))
            duration = data.get("duration")
            if duration is not None:
                reg.histogram("lp_solve_s").observe(float(duration))
            warm = reg.counter("lp_warm_solves").value
            cold = reg.counter("lp_cold_solves").value
            reg.gauge("lp_warm_hit_rate").set(warm / (warm + cold))
        elif kind == "benders_parallel":
            reg.counter("benders_parallel_rounds").inc()
            reg.counter("benders_warm_hits").inc(float(data.get("warm_hits", 0)))
            workers = data.get("workers")
            if workers is not None:
                reg.gauge("benders_workers").set(float(workers))
        elif kind == "incumbent":
            obj = data.get("objective")
            if obj is not None:
                reg.series("incumbent_objective").observe(event.t, float(obj))
            gap = data.get("gap")
            if gap is not None and math.isfinite(float(gap)):
                reg.series("incumbent_gap").observe(event.t, float(gap))
        elif kind == "cut_round":
            reg.counter("cut_rounds").inc()
            reg.counter("cuts_added").inc(float(data.get("added", 0)))
        elif kind == "benders_iteration":
            reg.counter("benders_iterations").inc()
            if "lower" in data:
                reg.series("benders_lower").observe(event.t, float(data["lower"]))
            if "upper" in data and math.isfinite(float(data["upper"])):
                reg.series("benders_upper").observe(event.t, float(data["upper"]))
        elif kind == "solve_start":
            reg.counter("solves").inc()
        elif kind == "solve_end":
            duration = data.get("duration")
            if duration is not None:
                reg.histogram("solve_seconds").observe(float(duration))
        elif kind == "backend_degraded":
            reg.counter("backend_degradations").inc()
        elif kind == "deadline_exceeded":
            reg.counter("deadline_hits").inc()
        elif kind == "fuzz_case":
            reg.counter("fuzz_cases").inc()
            if data.get("certified"):
                reg.counter("fuzz_certified").inc()
        elif kind == "fuzz_disagreement":
            reg.counter("fuzz_disagreements").inc()
