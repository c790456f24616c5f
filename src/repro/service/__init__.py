"""repro.service — planning-as-a-service on top of the solver stack.

A stdlib-only HTTP server plus client for submitting DRRP/SRRP planning
jobs: bounded job queue, solver worker pool, content-addressed plan
cache with in-flight coalescing, admission control with backpressure
(429/503 + ``Retry-After``), graceful degradation to polynomial
heuristics under overload, and ``/healthz`` / ``/metrics`` endpoints
fed by the :mod:`repro.obs` metrics registry.

Importing this package pulls in nothing beyond the standard library;
the solver stack (numpy/scipy) loads lazily on the first solve.  See
``docs/service.md`` for the API and operational semantics.
"""

import importlib

# Public name -> defining submodule, imported on first access.  Importing
# any submodule runs this file first, so it imports none itself: the CLI
# reading ``encoding.BACKENDS`` or a process using only the client would
# otherwise pay for the HTTP server and client stacks too.
_EXPORTS = {
    "PlanCache": "cache",
    "ReplanPolicy": "client",
    "Saturated": "client",
    "ServiceClient": "client",
    "ServiceError": "client",
    "SubmitResult": "client",
    "drrp_payload": "client",
    "BadRequest": "encoding",
    "build_instance": "encoding",
    "normalize_request": "encoding",
    "plan_payload": "encoding",
    "request_digest": "encoding",
    "Job": "jobs",
    "JobState": "jobs",
    "JobStore": "jobs",
    "LoadgenConfig": "loadgen",
    "run_loadgen": "loadgen",
    "PlanningHTTPServer": "server",
    "PlanningService": "server",
    "ServiceConfig": "server",
    "serve": "server",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
