"""The planning server: bounded queue, worker pool, cache, HTTP front end.

Two layers, separable for testing:

:class:`PlanningService`
    The in-process core — admission control, the job queue and worker
    threads, the plan cache with in-flight coalescing, metrics, and
    per-job capture.  Usable directly (no sockets) by tests and by the
    load generator.

:class:`PlanningHTTPServer` / :func:`serve`
    A stdlib ``ThreadingHTTPServer`` front end exposing the JSON API
    (``docs/service.md``):

    ========  =======================  ==========================================
    method    path                     behaviour
    ========  =======================  ==========================================
    POST      ``/v1/jobs``             submit; 202 queued/coalesced, 200 cache
                                       hit or degraded, 400 malformed, 429/503
                                       saturated (``Retry-After`` header)
    POST      ``/v1/plan``             submit and wait; adds 504 on wait timeout
    POST      ``/v1/fleet``            batch multi-tenant planning: forces
                                       ``kind: "fleet"``, then behaves like
                                       ``/v1/plan`` (same queue, cache, and
                                       overload policy; the body is the fleet
                                       spec — ``tenants``/``seed``/``horizon``/
                                       ``utilization``)
    GET       ``/v1/jobs/<id>``        job status
    GET       ``/v1/jobs/<id>/plan``   plan body; 409 while pending
    GET       ``/healthz``             liveness + queue/cache summary
    GET       ``/metrics``             metrics-registry snapshot; JSON by
                                       default, Prometheus text 0.0.4 with
                                       ``?format=prom`` or ``Accept: text/plain``
    ========  =======================  ==========================================

Trace propagation: ``POST`` handlers parse the W3C ``traceparent``
header; an admitted job runs under a *child* span context of the
caller's (a fresh root when the header is absent or malformed — a
garbled header is never an error).  With ``capture_dir`` set, each job's
``events.jsonl`` starts with a ``process_meta`` line carrying that
context, so ``repro trace`` can stitch client- and server-side event
files into one cross-process trace, and the queue wait is recorded as a
synthetic ``service_queue_wait`` phase distinct from solve time.

Admission control: the queue is bounded; when it is full a submission
either gets 429 with a ``Retry-After`` estimate (``on_overload:
"reject"``, the default) or an inline polynomial-time heuristic plan
with ``degraded`` set (``on_overload: "degrade"``; 429 again when no
such plan keeps the request's capacity caps) — the server never
blocks a submission behind a solve.  Per-request ``time_limit`` budgets
cover queue wait *and* solve, mapped onto the solver's ``Deadline``.

Solve slots: ``workers`` permits bound how many jobs solve at once.  A
worker holds one while it runs a queued job; a synchronous ``/v1/plan``
or ``/v1/fleet`` handler that finds one free (and nothing queued ahead
of it) runs its admitted job on its own thread instead of handing it to
a worker and back.  A request whose ``wait_s`` is shorter than its
budget always takes the queue, so the 504 reply still comes by
``wait_s``.  ``workers=0`` leaves no permits: every job queues.

Everything importable here is stdlib-only; solver work is deferred to
:mod:`repro.service.executor`, and every solve (worker or handler
thread) runs under :func:`repro.parallel.serial_guard` so solver-level
``parallel_map`` calls cannot fork-bomb the host.
"""

from __future__ import annotations

import json
import math
import queue
import socket
import threading
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import TYPE_CHECKING

from repro.obs.metrics import MetricsAggregator, MetricsRegistry, to_prometheus
from repro.obs.propagate import (
    TRACEPARENT_HEADER,
    TraceContext,
    activate,
    parse_traceparent,
)
from repro.serialize import jsonable

from .cache import PlanCache
from .encoding import BadRequest, normalize_request, request_digest
from .jobs import Job, JobState, JobStore

if TYPE_CHECKING:  # solver imports stay lazy so this module is stdlib-only
    from repro.solver.telemetry import EventRecorder

__all__ = ["ServiceConfig", "PlanningService", "PlanningHTTPServer", "serve"]

_SENTINEL = object()

#: Latency buckets in seconds, weighted toward the cached/fast end.
_LATENCY_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0, math.inf,
)


@dataclass(frozen=True)
class ServiceConfig:
    """Knobs for one :class:`PlanningService`.

    ``workers`` is also the number of solve slots (see the module
    docstring).  ``workers=0`` starts no worker threads and has no slots
    (submissions queue until the queue fills, then backpressure
    applies) — used by saturation tests and the load generator's 429
    probe.
    """

    workers: int = 2
    queue_size: int = 64
    cache_size: int = 512
    retain_jobs: int = 4096
    default_time_limit: float | None = 60.0  # per-job budget when unset
    max_wait_s: float = 60.0                 # cap on synchronous /v1/plan waits
    capture_dir: str | None = None           # per-job manifest + event log

    def __post_init__(self) -> None:
        if self.workers < 0:
            raise ValueError("workers must be >= 0")
        if self.queue_size < 1:
            raise ValueError("queue_size must be >= 1")


class PlanningService:
    """In-process planning service core (see module docstring)."""

    def __init__(self, config: ServiceConfig | None = None,
                 registry: MetricsRegistry | None = None) -> None:
        self.config = config or ServiceConfig()
        self.registry = registry if registry is not None else MetricsRegistry()
        self.cache = PlanCache(self.config.cache_size)
        self.jobs = JobStore(retain=self.config.retain_jobs)
        self._queue: queue.Queue = queue.Queue(maxsize=self.config.queue_size)
        self._inflight: dict[str, Job] = {}
        self._lock = threading.Lock()
        self._workers: list[threading.Thread] = []
        self._slots = threading.Semaphore(self.config.workers)
        self._closed = False
        self._started = time.monotonic()
        # Solver events from every worker fold into the shared registry;
        # each solve_end carries its own duration, so concurrent solves
        # keep every counter and histogram exact.
        self._aggregator = MetricsAggregator(self.registry)
        self._latency = self.registry.histogram("service_job_latency_s", _LATENCY_BUCKETS)
        self._solve_latency = self.registry.histogram("service_solve_s", _LATENCY_BUCKETS)

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "PlanningService":
        for i in range(self.config.workers):
            t = threading.Thread(target=self._worker, name=f"plan-worker-{i}", daemon=True)
            t.start()
            self._workers.append(t)
        return self

    def close(self, timeout: float = 10.0) -> None:
        """Stop admissions, fail still-queued jobs, join the workers."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        while True:
            try:
                job = self._queue.get_nowait()
            except queue.Empty:
                break
            if job is not _SENTINEL:
                self._finish_job(job, error="server shutting down")
        for _ in self._workers:
            self._queue.put(_SENTINEL)
        for t in self._workers:
            t.join(timeout=timeout)
        self._workers = [t for t in self._workers if t.is_alive()]

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "PlanningService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    # -- admission ---------------------------------------------------------

    def submit(self, payload, trace: TraceContext | None = None,
               wait_s: float | None = None) -> tuple[int, dict]:
        """Admit one submission; returns ``(http_status, body)``.

        Without ``wait_s`` this never blocks on solver work: the slow
        paths are a queue insert, a cache lookup, or (``on_overload:
        "degrade"``) one polynomial-time heuristic.

        ``wait_s`` is how long the caller will block for the answer (a
        synchronous ``/v1/plan``).  When the job's budget fits in it, a
        solve slot is free and nothing is queued, the admitted job runs
        on the calling thread and the reply is its :meth:`plan_view`.

        ``trace`` is the caller's propagated context (parsed from the
        ``traceparent`` header by the HTTP layer); the job runs under a
        child span of it, or a fresh root when absent.
        """
        self.registry.counter("service_submissions").inc()
        job_trace = trace.child() if trace is not None else TraceContext.new_root()
        trace_fields = {"trace": job_trace,
                        "trace_parent": trace.span_id if trace is not None else None}
        try:
            request = normalize_request(payload)
        except BadRequest as exc:
            self.registry.counter("service_bad_requests").inc()
            return 400, {"error": str(exc)}
        digest = request_digest(request)

        with self._lock:
            if self._closed:
                return 503, {"error": "server is shutting down",
                             "retry_after": self.retry_after()}
            cached = self.cache.get(digest)
            if cached is not None:
                self.registry.counter("service_cache_hits").inc()
                job = self.jobs.create(digest, request, state=JobState.DONE,
                                       cached=True, **trace_fields)
                job.finish(plan=cached)
                self._latency.observe(job.latency)
                return 200, {"job": job.to_dict(), "plan": cached}
            inflight = self._inflight.get(digest)
            if inflight is not None:
                inflight.coalesced += 1
                self.registry.counter("service_coalesced").inc()
                return 202, {"job": inflight.to_dict()}
            from repro.solver.telemetry import Deadline

            budget = request["time_limit"]
            if budget is None:
                budget = self.config.default_time_limit
            deadline = Deadline(budget) if budget is not None else Deadline.never()
            job = self.jobs.create(digest, request, deadline=deadline, **trace_fields)
            inline = (wait_s is not None and deadline.budget <= wait_s
                      and self._queue.empty() and self._slots.acquire(blocking=False))
            if inline:
                # Registered before it runs, so duplicates coalesce onto it.
                self._inflight[digest] = job
            else:
                try:
                    self._queue.put_nowait(job)
                except queue.Full:
                    return self._overload(job, request)
                self._inflight[digest] = job
                self.registry.gauge("service_queue_depth").set(self._queue.qsize())
                return 202, {"job": job.to_dict()}
        self.registry.counter("service_inline_solves").inc()
        self._solve(job)
        return self._plan_reply(job)

    def _overload(self, job: Job, request: dict) -> tuple[int, dict]:
        """Queue-full handling: degrade inline or reject with Retry-After."""
        if request["on_overload"] == "degrade":
            from .executor import DegradeInvalid, DegradeRefused, degraded_request

            try:
                payload = degraded_request(request)
            except DegradeRefused as exc:
                job.finish(error=str(exc))
                self.registry.counter("service_degrade_refused").inc()
                return 429, {"error": f"planning queue is full; {exc}",
                             "degrade_refused": True, "retry_after": self.retry_after()}
            except DegradeInvalid as exc:
                job.degrade_invalid = True
                job.finish(error=f"DegradeInvalid: {exc}")
                self.registry.counter("service_degrade_invalid").inc()
                return self._plan_reply(job)
            job.degraded = payload["degraded"]
            job.finish(plan=payload)
            self.registry.counter("service_degraded").inc()
            self._latency.observe(job.latency)
            return 200, {"job": job.to_dict(), "plan": payload}
        job.finish(error="queue full")
        self.registry.counter("service_rejected").inc()
        return 429, {"error": "planning queue is full", "retry_after": self.retry_after()}

    def retry_after(self) -> float:
        """Seconds a rejected client should back off before retrying.

        Estimated as the backlog drained at the observed mean solve time;
        1 s when nothing has been measured yet.
        """
        mean = self._solve_latency.mean
        if not self._solve_latency.count or not math.isfinite(mean):
            return 1.0
        workers = max(len(self._workers), 1)
        depth = self._queue.qsize() + 1
        return round(max(0.1, mean * depth / workers), 3)

    # -- workers -----------------------------------------------------------

    def _worker(self) -> None:
        while True:
            job = self._queue.get()
            if job is _SENTINEL:
                return
            self.registry.gauge("service_queue_depth").set(self._queue.qsize())
            self._slots.acquire()
            self._solve(job)

    def _solve(self, job: Job) -> None:
        """Run ``job`` on this thread, then give back the slot it holds."""
        from repro.parallel import serial_guard

        try:
            with serial_guard():
                self._run_job(job)
        finally:
            self._slots.release()

    def _run_job(self, job: Job) -> None:
        from repro.solver.telemetry import EventRecorder, Telemetry

        from .executor import DegradeInvalid, degraded_request, execute_request

        request = job.request   # finish() drops it from the job
        job.state = JobState.RUNNING
        job.started = time.monotonic()
        recorder = EventRecorder() if self.config.capture_dir else None
        job.wall_t0 = time.time()
        hub = Telemetry(
            listeners=(self._aggregator,) if recorder is None
            else (recorder, self._aggregator)
        )
        # The queue wait just ended; record it as a synthetic zero-width
        # phase so profilers and the aggregator see it separately from
        # solve time (the hub's clock only starts now, so a real span
        # could not cover the wait retroactively).
        hub.emit("phase_end", phase="service_queue_wait",
                 duration=job.started - job.submitted, job=job.id)
        remaining = job.deadline.remaining() if job.deadline is not None else None
        if remaining is not None and math.isinf(remaining):
            remaining = None
        try:
            # The job's span context becomes ambient for the solve: any
            # parallel_map fan-out inherits it (child spans, sampling).
            with activate(job.trace):
                payload = execute_request(request, time_limit=remaining,
                                          listener=hub)
            self._finish_job(job, plan=payload)
        except RuntimeError as exc:
            if job.deadline is not None and job.deadline.expired():
                # Budget gone (possibly entirely to queue wait): answer with
                # the heuristic plan rather than an error, marked honestly.
                # Its raise (DegradeRefused, or a degraded fleet plan that
                # failed) is caught here: the sibling handler below does not
                # see exceptions raised inside this one.
                try:
                    payload = degraded_request(request)
                except DegradeInvalid as invalid:
                    job.degrade_invalid = True
                    self.registry.counter("service_degrade_invalid").inc()
                    self._finish_job(job, error=f"DegradeInvalid: {invalid}")
                except Exception as refusal:  # noqa: BLE001 - a worker must never die
                    self.registry.counter("service_degrade_refused").inc()
                    self._finish_job(job, error=f"{type(refusal).__name__}: {refusal}")
                else:
                    payload["status"] = "time_limit"
                    job.degraded = payload["degraded"]
                    self._finish_job(job, plan=payload)
            else:
                self._finish_job(job, error=str(exc))
        except Exception as exc:  # noqa: BLE001 - a worker must never die
            self._finish_job(job, error=f"{type(exc).__name__}: {exc}")
        if recorder is not None:
            self._capture(job, recorder)

    def _finish_job(self, job: Job, plan: dict | None = None, error: str | None = None) -> None:
        job.finish(plan=plan, error=error)
        with self._lock:
            if self._inflight.get(job.digest) is job:
                del self._inflight[job.digest]
        if error is None:
            self.registry.counter("service_jobs_done").inc()
            if plan.get("status") == "optimal" and job.degraded is None:
                self.cache.put(job.digest, plan)
        else:
            self.registry.counter("service_jobs_failed").inc()
        self._latency.observe(job.latency)
        if job.started is not None:
            self._solve_latency.observe(job.finished - job.started)

    def _capture(self, job: Job, recorder: EventRecorder) -> None:
        """Write per-job provenance under ``capture_dir/<job id>/``."""
        from pathlib import Path

        from repro.obs import RunManifest, write_run

        result = job.plan if job.plan is not None else {"error": job.error}
        extra = {}
        if job.trace is not None:
            extra["trace"] = {**job.trace.to_dict(), "parent_span_id": job.trace_parent}
        manifest = RunManifest.from_run(
            "service",
            f"{job.kind}:{job.id}",
            result=result,
            config={"backend": job.backend, "digest": job.digest,
                    "degraded": job.degraded},
            recorded_events=recorder.events,
            deadline_budget=(
                None if job.deadline is None or math.isinf(job.deadline.budget)
                else job.deadline.budget
            ),
            elapsed=job.latency,
            extra=extra,
        )
        write_run(
            Path(self.config.capture_dir) / job.id, manifest, recorder.events,
            label=f"service:{job.id}", trace=job.trace,
            parent_span_id=job.trace_parent, wall_t0=job.wall_t0,
        )

    # -- read views --------------------------------------------------------

    def wait(self, job_id: str, timeout: float | None = None) -> Job | None:
        job = self.jobs.get(job_id)
        if job is None:
            return None
        job.done_event.wait(timeout)
        return job

    def job_view(self, job_id: str) -> tuple[int, dict]:
        job = self.jobs.get(job_id)
        if job is None:
            return 404, {"error": f"unknown job {job_id!r}"}
        return 200, {"job": job.to_dict()}

    def plan_view(self, job_id: str) -> tuple[int, dict]:
        job = self.jobs.get(job_id)
        if job is None:
            return 404, {"error": f"unknown job {job_id!r}"}
        return self._plan_reply(job)

    def _plan_reply(self, job: Job) -> tuple[int, dict]:
        if job.state is JobState.FAILED:
            body = {"job": job.to_dict(), "error": job.error}
            if job.degrade_invalid:
                body["degrade_invalid"] = True
            return 500, body
        if not job.state.finished:
            return 409, {"job": job.to_dict(), "error": "plan not ready; poll the job"}
        return 200, {"job": job.to_dict(), "plan": job.plan}

    def health(self) -> dict:
        return {
            "status": "closed" if self._closed else "ok",
            "uptime_s": time.monotonic() - self._started,
            "workers": len(self._workers),
            "queue_depth": self._queue.qsize(),
            "queue_capacity": self.config.queue_size,
            "jobs": self.jobs.counts(),
            "cache": self.cache.stats(),
        }

    def metrics_snapshot(self) -> dict:
        snap = self.registry.snapshot()
        snap["service_cache"] = {"type": "summary", **self.cache.stats()}
        return jsonable(snap)


class PlanningHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer bound to one :class:`PlanningService`."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: tuple[str, int], service: PlanningService,
                 quiet: bool = True) -> None:
        self.service = service
        self.quiet = quiet
        self.closing = False
        self._connections: set[socket.socket] = set()
        self._connections_lock = threading.Lock()
        super().__init__(address, _Handler)

    def process_request(self, request, client_address) -> None:
        with self._connections_lock:
            self._connections.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        with self._connections_lock:
            self._connections.discard(request)
        super().shutdown_request(request)

    def server_close(self) -> None:
        """Close the listener and end every keep-alive connection.

        Without this an idle client connection would hold its handler
        thread until the idle timeout (handler threads are daemons, so
        nothing joins them).  Only the read side is shut: an idle handler
        sees end-of-file at once, and one in the middle of a request still
        sends its reply before it exits.  A handler that reads a new
        request after this point closes its connection unanswered (see
        ``_Handler.parse_request``), so a keep-alive client reconnects to
        whatever serves the port next.
        """
        self.closing = True
        with self._connections_lock:
            for conn in self._connections:
                try:
                    conn.shutdown(socket.SHUT_RD)
                except OSError:
                    pass
        super().server_close()

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"


_JSON_LEAVES = frozenset({str, int, float, bool, type(None)})
_STR = frozenset({str})


def _str_keyed(obj) -> bool:
    """Whether every mapping nested in ``obj`` has only ``str`` keys.

    Only then does ``json.dumps`` write a body the same as it writes its
    :func:`jsonable` form: a ``True`` or ``None`` key is ``"true"`` or
    ``"null"`` to the former and ``"True"`` or ``"None"`` to the latter.
    """
    if isinstance(obj, dict):
        if not _STR.issuperset(map(type, obj)):
            return False
        obj = obj.values()
    if _JSON_LEAVES.issuperset(map(type, obj)):
        return True
    for v in obj:
        if isinstance(v, (dict, list, tuple)) and not _str_keyed(v):
            return False
    return True


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server: PlanningHTTPServer
    # Keep-alive transport: TCP_NODELAY, so a reply on a reused connection
    # is not held back by Nagle waiting on the client's delayed ACK; a
    # buffered ``wfile``, so a reply's headers and body leave in the one
    # write of ``handle_one_request``'s flush; and an idle timeout, so a
    # client that vanished cannot hold its handler thread forever.
    disable_nagle_algorithm = True
    wbufsize = 64 * 1024
    timeout = 15.0

    # -- plumbing ----------------------------------------------------------

    def log_message(self, fmt, *args):  # pragma: no cover - log noise
        if not self.server.quiet:
            super().log_message(fmt, *args)

    def _send(self, status: int, body: dict, retry_after: float | None = None) -> None:
        data = None
        if _str_keyed(body):
            try:
                data = json.dumps(body, allow_nan=False)
            except (TypeError, ValueError):  # non-JSON leaves: numpy, Fraction, inf, ...
                pass
        if data is None:
            data = json.dumps(jsonable(body), allow_nan=False)
        self._send_raw(status, data.encode(), "application/json", retry_after=retry_after)

    def _send_raw(self, status: int, data: bytes, content_type: str,
                  retry_after: float | None = None) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        if retry_after is not None:
            self.send_header("Retry-After", f"{retry_after:g}")
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(data)

    def parse_request(self) -> bool:
        # A request read after server_close() began (it raced the read-side
        # shutdown of its keep-alive connection) goes unanswered: the
        # service behind this server is closing, and the client resends it
        # on a fresh connection.
        if self.server.closing:
            self.close_connection = True
            return False
        return super().parse_request()

    def _reply(self, status: int, body: dict) -> None:
        retry_after = body.get("retry_after") if status in (429, 503) else None
        self._send(status, body, retry_after=retry_after)

    def _read_json(self):
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            length = 0
        if length <= 0 or length > 16 * 1024 * 1024:
            # Any body left unread would be parsed as the next request on
            # this keep-alive connection: reply, then hang up.
            self.close_connection = True
            return None, "request body required" if length <= 0 else "request body too large"
        raw = self.rfile.read(length)
        try:
            return json.loads(raw), None
        except json.JSONDecodeError as exc:
            return None, f"invalid JSON body: {exc}"

    # -- routes ------------------------------------------------------------

    def _wants_prometheus(self) -> bool:
        """Content negotiation for ``/metrics``: query beats Accept header."""
        from urllib.parse import parse_qs, urlsplit

        query = parse_qs(urlsplit(self.path).query)
        fmt = (query.get("format") or [""])[0].lower()
        if fmt:
            return fmt in ("prom", "prometheus", "text")
        accept = self.headers.get("Accept", "")
        return "text/plain" in accept.lower()

    def do_GET(self) -> None:  # noqa: N802 - stdlib casing
        service = self.server.service
        path = self.path.split("?", 1)[0].rstrip("/")
        if path == "/healthz":
            health = service.health()
            self._reply(200 if health["status"] == "ok" else 503, health)
        elif path == "/metrics":
            if self._wants_prometheus():
                text = to_prometheus(service.metrics_snapshot())
                self._send_raw(200, text.encode(),
                               "text/plain; version=0.0.4; charset=utf-8")
            else:
                self._reply(200, service.metrics_snapshot())
        elif path.startswith("/v1/jobs/") and path.endswith("/plan"):
            self._reply(*service.plan_view(path[len("/v1/jobs/"):-len("/plan")]))
        elif path.startswith("/v1/jobs/"):
            self._reply(*service.job_view(path[len("/v1/jobs/"):]))
        else:
            self._reply(404, {"error": f"no such endpoint: GET {path}"})

    def do_POST(self) -> None:  # noqa: N802 - stdlib casing
        service = self.server.service
        path = self.path.split("?", 1)[0].rstrip("/")
        if path not in ("/v1/jobs", "/v1/plan", "/v1/fleet"):
            self._reply(404, {"error": f"no such endpoint: POST {path}"})
            return
        payload, err = self._read_json()
        if err is not None:
            self._reply(400, {"error": err})
            return
        if path == "/v1/fleet" and isinstance(payload, dict):
            payload = {**payload, "kind": "fleet"}
        # Missing or garbled traceparent parses to None — the job simply
        # starts a fresh trace root; propagation is never worth a 4xx/5xx.
        trace = parse_traceparent(self.headers.get(TRACEPARENT_HEADER))
        if path == "/v1/jobs":
            self._reply(*service.submit(payload, trace=trace))
            return
        wait_s = payload.get("wait_s") if isinstance(payload, dict) else None
        try:
            wait_s = min(float(wait_s), service.config.max_wait_s) if wait_s is not None \
                else service.config.max_wait_s
        except (TypeError, ValueError):
            self._reply(400, {"error": "wait_s must be a number"})
            return
        # Synchronous: the job solves right here when a slot is free;
        # otherwise wait for the queued (or coalesced) job.
        status, body = service.submit(payload, trace=trace, wait_s=wait_s)
        if status != 202:
            self._reply(status, body)
            return
        job = service.wait(body["job"]["id"], timeout=wait_s)
        if job is None or not job.state.finished:
            self._reply(504, {"job": body["job"] if job is None else job.to_dict(),
                              "error": "job not finished within wait_s; poll it"})
            return
        self._reply(*service.plan_view(job.id))


def serve(
    host: str = "127.0.0.1",
    port: int = 0,
    config: ServiceConfig | None = None,
    block: bool = True,
) -> tuple[PlanningService, PlanningHTTPServer]:
    """Start a planning service and its HTTP front end.

    ``block=True`` (the CLI) runs ``serve_forever`` on the calling thread
    until interrupted, then shuts down cleanly.  ``block=False`` (tests,
    load generator) returns immediately with the server running on a
    daemon thread; callers stop it with ``httpd.shutdown()`` +
    ``service.close()``.

    SciPy's optimizer loads on first use; probing for it here pays that
    import at start-up, so the first MILP request does not pay it inside
    its deadline.
    """
    from repro.solver.scipy_backend import scipy_available

    scipy_available()
    service = PlanningService(config).start()
    httpd = PlanningHTTPServer((host, port), service)
    if block:  # pragma: no cover - exercised via the CLI, interactively
        try:
            httpd.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            httpd.shutdown()
            httpd.server_close()
            service.close()
        return service, httpd
    thread = threading.Thread(target=httpd.serve_forever, name="plan-http", daemon=True)
    thread.start()
    return service, httpd
