"""Observability over the solve pipeline: spans, metrics, traces, manifests.

Layered on the :mod:`repro.solver.telemetry` event hub — no solver
changes required to adopt it:

>>> from repro.obs import Tracer
>>> tracer = Tracer()
>>> result = solve(model, listener=tracer)            # doctest: +SKIP
>>> roots = tracer.finish()
>>> print(render_report(roots))                       # doctest: +SKIP

* :mod:`repro.obs.spans` — hierarchical span reconstruction
  (:class:`Tracer`) and the explicit :func:`span` context manager;
* :mod:`repro.obs.metrics` — counters/gauges/histograms/series with a
  zero-cost disabled path (:data:`NULL_REGISTRY`);
* :mod:`repro.obs.exporters` — Chrome trace-event / Perfetto span
  dumps with a lossless loader, and the terminal report;
* :mod:`repro.obs.manifest` — per-run provenance manifests with result
  digests, for replaying and diffing figure/fuzz runs;
* :mod:`repro.obs.propagate` — W3C-``traceparent``-style
  :class:`TraceContext` carried across ``parallel_map`` forks and
  service HTTP hops, the one on-disk event log (``process_meta`` JSONL),
  recorded-run directories (:func:`record_run`), and the cross-process
  trace merge behind ``repro trace``;
* :mod:`repro.obs.prof` — the deterministic phase profiler
  (:func:`profile_events`) and speedscope export behind ``repro profile``.

See ``docs/observability.md`` for the event-to-span mapping and file
formats.
"""

from .exporters import (
    load_chrome_trace,
    render_report,
    render_span_tree,
    to_chrome_trace,
    top_self_time,
    write_chrome_trace,
)
from .manifest import (
    RunManifest,
    backend_chain,
    canonical_json,
    diff_manifests,
    event_counts,
    package_versions,
    result_digest,
)
from .metrics import (
    DEFAULT_DURATION_BUCKETS,
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsAggregator,
    MetricsRegistry,
    Series,
    to_prometheus,
)
from .prof import (
    PhaseProfile,
    parent_clock_spans,
    profile_events,
    profile_spans,
    to_speedscope,
    write_speedscope,
)
from .propagate import (
    TRACEPARENT_HEADER,
    InstrumentedRun,
    TraceContext,
    activate,
    collect_event_files,
    current_trace,
    ensure_trace,
    merge_process_traces,
    parse_traceparent,
    read_process_events,
    record_run,
    write_merged_trace,
    write_process_events,
    write_run,
)
from .spans import Marker, Span, Tracer, span

__all__ = [
    # spans
    "Span",
    "Marker",
    "Tracer",
    "span",
    # metrics
    "Counter",
    "Gauge",
    "Histogram",
    "Series",
    "MetricsRegistry",
    "MetricsAggregator",
    "NULL_REGISTRY",
    "DEFAULT_DURATION_BUCKETS",
    "to_prometheus",
    # propagation
    "TRACEPARENT_HEADER",
    "TraceContext",
    "parse_traceparent",
    "current_trace",
    "activate",
    "ensure_trace",
    "write_process_events",
    "read_process_events",
    "collect_event_files",
    # recorded runs
    "InstrumentedRun",
    "record_run",
    "write_run",
    "merge_process_traces",
    "write_merged_trace",
    # profiler
    "PhaseProfile",
    "profile_events",
    "profile_spans",
    "parent_clock_spans",
    "to_speedscope",
    "write_speedscope",
    # exporters
    "to_chrome_trace",
    "write_chrome_trace",
    "load_chrome_trace",
    "render_span_tree",
    "render_report",
    "top_self_time",
    # manifests
    "RunManifest",
    "result_digest",
    "canonical_json",
    "package_versions",
    "backend_chain",
    "event_counts",
    "diff_manifests",
]
