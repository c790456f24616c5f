"""Shared fixtures for the benchmark harness.

Every ``test_bench_figN.py`` regenerates the corresponding figure of the
paper through :mod:`repro.experiments` and

* times the regeneration with pytest-benchmark (one round — these are
  end-to-end experiment harnesses, not microbenchmarks),
* asserts the figure's qualitative findings, so a bench run doubles as a
  reproduction check, and
* writes a machine-readable ``BENCH_<experiment>.json`` next to the
  working directory (override with ``REPRO_BENCH_DIR``): median wall
  time, event-derived work counters (for runners that accept a telemetry
  ``listener``), and the result's manifest digest — the perf-history
  record that used to exist only as human-readable text.

Run with ``pytest benchmarks/ --benchmark-only``.
"""

from __future__ import annotations

import inspect
import time
from pathlib import Path

import pytest

from repro import serialize
from repro.solver.telemetry import EventRecorder

__all__ = ["write_bench_record"]


def write_bench_record(
    result,
    median_s: float,
    recorder: EventRecorder | None = None,
) -> Path | None:
    """Write ``BENCH_<experiment>.json`` for one benchmarked experiment.

    Returns the written path, or ``None`` when ``result`` has no
    experiment id (non-experiment benchmarks produce no record).
    """
    name = getattr(result, "experiment", None)
    if not name:
        return None
    counters: dict = {}
    if recorder is not None and len(recorder):
        summary = recorder.summary()
        counters = {
            "events": summary["events"],
            "solves": recorder.kinds().get("solve_start", 0),
            "nodes": summary["nodes"],
            "pruned": summary["pruned"],
            "incumbents": summary["incumbents"],
            "cut_rounds": summary["cut_rounds"],
            "benders_iterations": summary["benders_iterations"],
            "phase_seconds": summary["phase_seconds"],
        }
    payload = {
        "name": name,
        "median_wall_s": float(median_s),
        "counters": counters,
        "manifest_digest": result.digest() if hasattr(result, "digest") else None,
        "created": time.time(),
    }
    return serialize.write_bench_record(payload, f"BENCH_{name}.json")


@pytest.fixture
def run_experiment(benchmark):
    """Benchmark an experiment runner once, echo its table, record JSON."""

    def _run(fn, *args, **kwargs):
        recorder = EventRecorder()
        if "listener" in inspect.signature(fn).parameters:
            kwargs.setdefault("listener", recorder)
        result = benchmark.pedantic(lambda: fn(*args, **kwargs), rounds=1, iterations=1)
        print()
        print(result.to_text())
        stats = getattr(getattr(benchmark, "stats", None), "stats", None)
        median = float(stats.median) if stats is not None else float("nan")
        write_bench_record(result, median, recorder)
        return result

    return _run
