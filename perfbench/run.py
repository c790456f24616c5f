"""Benchmark of the rental planner: fleet, rolling campaign and HTTP service.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload fleet --seed 1 --seconds 25 --trace 0

``--trace 0`` runs the workload for ``--seconds`` untraced and reports the
end-to-end metrics, throughput and latencies scaled to a reference host
speed (see ``common.HostSpeed``).  ``--trace 1`` runs a fixed number of work units twice
(untraced, then with every layer wrapped) and reports the per-layer
metrics, the share of the traced wall no span covers, and the tracing
overhead.  Both check the program's outputs.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``; the exit code is 0 only when every output check passed.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import uuid
from collections import Counter

from common import (
    ROOT,
    STATE_DIR,
    Tally,
    code_digest,
    note,
    peak_rss_mb,
    percentile,
    result_line,
    samples_beyond,
    warn,
)
from layers import CAMPAIGN, DETERMINISTIC, FLEET, PER_LAYER, layer_metrics, layer_totals
from tracing import Tracer, attribute, clock, installed, load_spans, write_trace
from workloads import WORKLOADS, Server, import_probe

#: name -> (unit, what it measures) of every end-to-end metric.  Throughput
#: and latencies are at the reference host speed (see ``common.HostSpeed``);
#: set-up, mostly process start and imports, does not follow that speed.
END_TO_END = {
    "setup_s": ("s", "imports, input generation and server boot (median of 3 set-ups)"),
    "peak_rss_mb": ("MB", "peak resident memory of the planning processes"),
    "throughput_per_s": ("1/s", "work units completed per second"),
    "latency_p50_ms": ("ms", "median latency of one operation"),
    "latency_p90_ms": ("ms", "90th-percentile latency of one operation"),
    "cost_ratio": ("ratio", "plan cost over the workload's cost reference"),
}

#: What the generic metrics are called on each workload.
ALIASES = {
    "fleet": ("tenants_per_s", "tenant_plan_p50_ms", "tenant_plan_p90_ms"),
    "campaign-simplex": ("replans_per_s", "replan_p50_ms", "replan_p90_ms"),
    "service": ("requests_per_s", "request_p50_ms", "request_p90_ms"),
}

SETUPS = 3


def _host_facts() -> str:
    import numpy
    import scipy

    return (f"host: nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={numpy.__version__} scipy={scipy.__version__}")


def _untraced(wl, seconds: float) -> tuple[dict, Tally]:
    t0 = clock()
    p = wl.run(seconds=seconds)
    t1 = clock()
    wl.close()
    # Memory is read before the output checks, which fork reference workers
    # and solve in this process; the server reports its own peak at exit.
    rss = peak_rss_mb()
    if wl.name == "service":
        if wl.server_rss_mb is None:
            p.tally.fail("the server did not report its peak memory")
        else:
            note(f"{wl.name}: peak RSS {rss:.1f} MB here, {wl.server_rss_mb:.1f} MB server")
            rss += wl.server_rss_mb
    t2 = clock()
    wl.check(p)
    note(f"{wl.name}: timed pass {t1 - t0:.1f} s, shutdown {t2 - t1:.1f} s, "
         f"output checks {clock() - t2:.1f} s")
    throughput = p.units / p.wall_s
    p50, p90 = percentile(p.latencies_ms, 0.5), percentile(p.latencies_ms, 0.9)
    slow = p.host.slowdown
    metrics = {
        "peak_rss_mb": rss,
        "throughput_per_s": throughput * slow,
        "latency_p50_ms": p50 / slow,
        "latency_p90_ms": p90 / slow,
        "cost_ratio": p.cost_ratio,
    }
    names = ALIASES[wl.name]
    n = len(p.latencies_ms)
    note(f"{wl.name}: as measured: {names[0]} {throughput:.3f} 1/s "
         f"({p.units} {wl.unit}s in {p.wall_s:.2f} s); latency of one {wl.latency_of}: "
         f"{names[1]} {p50:.2f} ms, {names[2]} {p90:.2f} ms "
         f"({n} samples, {samples_beyond(n, 0.9)} beyond p90)")
    note(f"{wl.name}: host slowdown {slow:.4f} (mean of {len(p.host.samples)} samples); "
         f"at the reference speed: {metrics['throughput_per_s']:.3f} 1/s, "
         f"{metrics['latency_p50_ms']:.2f} ms, {metrics['latency_p90_ms']:.2f} ms")
    note(f"{wl.name}: error_rate {p.tally.error_rate:.4f} "
         f"({p.tally.failed}/{p.tally.attempted}) {p.tally.reasons or ''}")
    note(f"{wl.name}: measured properties " + json.dumps(p.props, sort_keys=True))
    return metrics, p.tally


def _traced(wl, seed: int) -> tuple[dict, Tally]:
    from repro.solver import reset_compile_cache

    run_id = uuid.uuid4().hex[:12]
    units = wl.traced_units
    reference = wl.run(units=units)
    reset_compile_cache()
    tracer = Tracer(run_id, prefix="c")
    if wl.name == "service":
        wl.close()
        server = Server(run_id)
        try:
            traced = wl.run(units=units, tracer=tracer, server=server)
        finally:
            server.stop()
        server_doc = json.loads(server.trace_path.read_text())
        server.trace_path.unlink()
        traced.extra["compile"] = server_doc["compile"]  # the solves ran there
        docs = [tracer.dump(), server_doc]
    else:
        with installed(tracer, FLEET if wl.name == "fleet" else CAMPAIGN):
            traced = wl.run(units=units, tracer=tracer)
        docs = [tracer.dump()]

    wl.check(reference)
    wl.check(traced)
    spans = [s for doc in docs for s in load_spans(doc)]
    counts: dict[str, float] = {}
    for doc in docs:
        for name, value in doc["counts"].items():
            counts[name] = counts.get(name, 0) + value
    owned, unattributed, wall = attribute(spans, traced.windows)
    traced.extra["overhead_share"] = (traced.wall_s - reference.wall_s) / reference.wall_s
    metrics = layer_metrics(spans, owned, unattributed, wall, counts, traced.extra)
    metrics["count_mismatches"] = _check_counts(wl.name, seed, metrics)
    write_trace(STATE_DIR / "traces" / f"{wl.name}-seed{seed}-{run_id}.json", docs,
                traced.windows)

    note(f"{wl.name}: traced {units} units ({traced.units} {wl.unit}s): wall {wall:.3f} s "
         f"over {len(traced.windows)} lane(s); untraced pass {reference.wall_s:.3f} s, "
         f"traced pass {traced.wall_s:.3f} s")
    for layer, seconds in layer_totals(owned).most_common():
        note(f"  {layer:24s} self {seconds:9.4f} s  {seconds / wall:7.2%}")
    note(f"  {'(unattributed)':24s} self {unattributed:9.4f} s  {unattributed / wall:7.2%}")
    note(f"{wl.name}: measured properties " + json.dumps(traced.props, sort_keys=True))
    tally = Tally(reference.tally.attempted + traced.tally.attempted,
                  reference.tally.failed + traced.tally.failed,
                  dict(Counter(reference.tally.reasons) + Counter(traced.tally.reasons)))
    return metrics, tally


def _check_counts(workload: str, seed: int, metrics: dict) -> int:
    """Compare the deterministic counts with an earlier traced run of the
    same seed and code; returns the number of counts that differ."""
    counts = {name: metrics[name] for name in DETERMINISTIC}
    path = STATE_DIR / "counts" / f"{workload}-seed{seed}-{code_digest()}.json"
    if not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(counts, sort_keys=True))
        return 0
    earlier = json.loads(path.read_text())
    differ = sorted(name for name in counts if earlier.get(name) != counts[name])
    for name in differ:
        warn(f"count mismatch: {name} = {counts[name]} here, {earlier.get(name)} before")
    return len(differ)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        warn(f"no program source under {ROOT / 'src'}; nothing to benchmark")
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        warn(f"cannot import the program: {exc}")
        return 2

    wl = WORKLOADS[args.workload](args.seed)
    note(_host_facts())
    try:
        setups = []
        for _ in range(1 if args.trace else SETUPS):  # traced runs report no setup_s
            seconds = import_probe(wl.imports)
            t0 = clock()
            wl.setup()
            setups.append(seconds + clock() - t0)
        if args.trace:
            metrics, tally = _traced(wl, args.seed)
            units = {name: (unit, "") for name, unit in PER_LAYER.items()}
        else:
            metrics, tally = _untraced(wl, args.seconds)
            metrics["setup_s"] = statistics.median(setups)
            units = END_TO_END
    finally:
        wl.close()
    note(f"{wl.name}: set-up times {', '.join(f'{s:.3f}' for s in setups)} s")
    for name, (unit, meaning) in units.items():
        note(f"  {name:36s} {metrics[name]:14.6g} {unit:6s} {meaning}")
    correct = tally.failed == 0 and tally.attempted > 0
    print(result_line(correct, tally, {name: (metrics[name], unit)
                                       for name, (unit, _) in units.items()}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
