"""Run every experiment and render a combined report.

``python -m repro.experiments.report`` regenerates all ten figures' data
and prints them — the programmatic backbone of EXPERIMENTS.md.

:func:`run_instrumented` is the provenance-carrying variant used by
``repro run``: it wraps one experiment in a root span, records the full
event stream, and produces a ``manifest.json`` (seed/config, package
versions, backend chain, event counts, result digest) plus optional
Chrome-trace and event-log files, so any figure can be replayed and
diffed.
"""

from __future__ import annotations

import inspect
from pathlib import Path
from typing import Callable

from repro.obs import InstrumentedRun

from .base import ExperimentResult
from . import (
    ext_availability,
    ext_horizon,
    ext_risk,
    ext_value,
    fig3_outliers,
    fig4_updates,
    fig5_histogram,
    fig6_decompose,
    fig7_correlogram,
    fig8_prediction,
    fig10_drrp_costs,
    fig11_sensitivity,
    fig12a_overpay,
    fig12b_precision,
)

__all__ = ["ALL_EXPERIMENTS", "run_all", "render_report", "run_instrumented", "InstrumentedRun"]

#: Experiment id -> zero-argument runner with the paper's default parameters.
ALL_EXPERIMENTS: dict[str, Callable[[], ExperimentResult]] = {
    "fig3": fig3_outliers.run,
    "fig4": fig4_updates.run,
    "fig5": fig5_histogram.run,
    "fig6": fig6_decompose.run,
    "fig7": fig7_correlogram.run,
    "fig8": fig8_prediction.run,
    "fig10": fig10_drrp_costs.run,
    "fig11": fig11_sensitivity.run,
    "fig12a": fig12a_overpay.run,
    "fig12b": fig12b_precision.run,
    # extensions beyond the paper (see EXPERIMENTS.md)
    "ext_value": ext_value.run,
    "ext_availability": ext_availability.run,
    "ext_horizon": ext_horizon.run,
    "ext_risk": ext_risk.run,
}


def run_all(only: list[str] | None = None) -> dict[str, ExperimentResult]:
    """Run all (or a subset of) experiments; returns id -> result."""
    ids = only or list(ALL_EXPERIMENTS)
    unknown = set(ids) - set(ALL_EXPERIMENTS)
    if unknown:
        raise ValueError(f"unknown experiment ids: {sorted(unknown)}")
    return {eid: ALL_EXPERIMENTS[eid]() for eid in ids}


def render_report(results: dict[str, ExperimentResult]) -> str:
    """Render results into one text report."""
    return "\n\n".join(results[eid].to_text() for eid in results)


def run_instrumented(
    eid: str,
    out_dir: str | Path | None = None,
    trace_path: str | Path | None = None,
    **runner_kwargs,
) -> InstrumentedRun:
    """Run one experiment under full observability.

    The run is bracketed by an ``experiment:<eid>`` root span; runners
    that accept a ``listener`` parameter (e.g. fig10) additionally stream
    every inner solve's events into the same hub.  With ``out_dir`` set,
    ``manifest.json``, ``events.jsonl`` and ``<eid>.trace.json`` are
    written there (:func:`repro.obs.record_run`); ``trace_path`` names
    the Chrome trace explicitly.  ``runner_kwargs`` (seed, horizon,
    backend, ...) are forwarded to the runner and recorded in the
    manifest's config.
    """
    from repro.obs import RunManifest, record_run, span

    if eid not in ALL_EXPERIMENTS:
        raise ValueError(f"unknown experiment id {eid!r}; expected one of {sorted(ALL_EXPERIMENTS)}")
    runner = ALL_EXPERIMENTS[eid]
    takes_listener = "listener" in inspect.signature(runner).parameters

    def run(hub) -> ExperimentResult:
        kwargs = {**runner_kwargs, "listener": hub} if takes_listener else runner_kwargs
        with span(hub, f"experiment:{eid}") as info:
            result = runner(**kwargs)
            info["rows"] = len(result.rows)
        return result

    def manifest(result: ExperimentResult, events: list) -> RunManifest:
        return RunManifest.from_run(
            "experiment",
            eid,
            result=result.to_dict(),
            seed=runner_kwargs.get("seed"),
            config=runner_kwargs,
            recorded_events=events,
            elapsed=events[-1].t if events else None,
        )

    return record_run(run, manifest, label=f"repro {eid}", out_dir=out_dir,
                      trace_path=trace_path, trace_name=f"{eid}.trace.json")


def main(argv: list[str] | None = None) -> None:  # pragma: no cover - CLI
    import argparse

    parser = argparse.ArgumentParser(description="Regenerate the paper's figures")
    parser.add_argument("experiments", nargs="*", help="subset of experiment ids")
    args = parser.parse_args(argv)
    results = run_all(args.experiments or None)
    print(render_report(results))


if __name__ == "__main__":  # pragma: no cover
    main()
