"""Start the planning service the way ``repro serve`` does, for the benchmark.

Usage: ``python3 perfbench/launcher.py [--trace RUN_ID]``

Boots :func:`repro.service.server.serve` with the ``repro serve`` defaults
on an ephemeral port, prints ``READY <url>`` once it accepts requests, and
serves until a line (or end of file) arrives on standard input.  The
solver stack is imported before ``READY`` so the lazy imports of the first
request count as boot time, not request time.  After shutting down it
prints ``PEAK_RSS_MB <value>``, its own peak resident memory, and exits.

With ``--trace`` the same layer functions the client-side run wraps are
wrapped here before ``serve()`` is called; the spans and counters are
written to ``.perfbench/tmp/server-RUN_ID.json`` at exit and merged with
the client's.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import ExitStack
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from common import peak_rss_mb, server_trace_path  # noqa: E402
from layers import SERVER  # noqa: E402
from tracing import Tracer, clock, installed  # noqa: E402


def _traced_run_job(tracer: Tracer, run_job):
    """``PlanningService._run_job`` as a span linked to the calling request,
    preceded by the job's queue wait (submit to worker pick-up)."""

    def wrapper(self, job):
        picked = clock()
        tracer.record(tracer.new_id(), "service.server", "queue_wait",
                      job.submitted, picked, job.trace_parent)
        with tracer.span("service.server", "job", parent=job.trace_parent):
            return run_job(self, job)

    return wrapper


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", metavar="RUN_ID", default=None)
    args = parser.parse_args(argv)

    import repro.core  # noqa: F401
    import repro.service.executor  # noqa: F401
    from repro.service import server
    from repro.solver import compile_cache_stats
    from repro.solver.scipy_backend import scipy_available

    scipy_available()
    tracer = Tracer(args.trace, prefix="s") if args.trace else None
    with ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(installed(tracer, SERVER))
            original = server.PlanningService._run_job
            server.PlanningService._run_job = _traced_run_job(tracer, original)
            stack.callback(setattr, server.PlanningService, "_run_job", original)
        service, httpd = server.serve(port=0, config=server.ServiceConfig(), block=False)
        print(f"READY {httpd.url}", flush=True)
        # The pipe is read again only at exit; send other output (HiGHS
        # writes to file descriptor 1) to standard error, so it cannot fill.
        report = os.fdopen(os.dup(sys.stdout.fileno()), "w")
        os.dup2(sys.stderr.fileno(), sys.stdout.fileno())
        sys.stdin.readline()
        httpd.shutdown()
        httpd.server_close()
        service.close()
    if tracer is not None:
        doc = tracer.dump()
        doc["compile"] = compile_cache_stats()
        out = server_trace_path(args.trace)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(doc))
    print(f"PEAK_RSS_MB {peak_rss_mb()!r}", file=report, flush=True)
    report.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
