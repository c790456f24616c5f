"""Python client for the planning service (stdlib-only: ``http.client``).

:class:`ServiceClient` wraps the JSON API: submit, poll, wait, fetch,
plus health and metrics.  Saturation (429/503) surfaces as
:class:`Saturated` carrying the server's ``Retry-After`` hint, so
callers implement backoff explicitly instead of silently spinning.
Each calling thread keeps one persistent HTTP/1.1 connection, so a
request pays no TCP handshake (see :class:`ServiceClient`).

:class:`ReplanPolicy` is the rolling-horizon session the paper's §V-D
practice maps onto: each slot it submits the *suffix* instance (demand
still ahead, current inventory, current price view) and executes the
returned plan's first-slot decision.  Because submissions are
content-addressed, a re-plan tick whose inputs did not change — same
remaining demand, same prices, inventory exactly as planned — is a plan
cache hit on the server: the session costs one solve per *distinct*
state, not one per tick.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from dataclasses import dataclass, field
from urllib.parse import urlsplit

from repro.obs.propagate import TRACEPARENT_HEADER, TraceContext, current_trace

__all__ = [
    "ServiceClient",
    "ServiceError",
    "Saturated",
    "SubmitResult",
    "ReplanPolicy",
    "drrp_payload",
]


class ServiceError(Exception):
    """Non-2xx response from the service."""

    def __init__(self, status: int, body: dict | None = None, message: str | None = None):
        self.status = status
        self.body = body or {}
        super().__init__(message or f"HTTP {status}: {self.body.get('error', 'error')}")


class Saturated(ServiceError):
    """The server applied backpressure (429/503); back off and retry."""

    def __init__(self, status: int, body: dict | None = None, retry_after: float = 1.0):
        self.retry_after = retry_after
        super().__init__(status, body)


@dataclass
class SubmitResult:
    """Outcome of one submission (plus the plan, when already available)."""

    job_id: str
    state: str
    cached: bool = False
    coalesced: bool = False
    degraded: str | None = None
    plan: dict | None = None
    latency_s: float | None = None

    @property
    def hit(self) -> bool:
        """True when no new solve was admitted for this submission."""
        return self.cached or self.coalesced

    @classmethod
    def from_body(cls, body: dict, coalesced: bool = False) -> "SubmitResult":
        job = body.get("job", {})
        plan = body.get("plan")
        return cls(
            job_id=job.get("id", ""),
            state=job.get("state", ""),
            cached=bool(job.get("cached")),
            coalesced=coalesced or job.get("coalesced", 0) > 0,
            degraded=job.get("degraded") or (plan or {}).get("degraded"),
            plan=plan,
            latency_s=job.get("latency_s"),
        )


#: What a reused socket the server has since closed raises on the next
#: request (``RemoteDisconnected`` is itself a ``ConnectionResetError``).
_STALE_CONNECTION = (http.client.RemoteDisconnected, BrokenPipeError, ConnectionResetError)


class ServiceClient:
    """Minimal JSON/HTTP client for one planning server.

    Each thread that calls it keeps its own persistent (keep-alive)
    connection.  When a reused connection turns out to be closed by the
    server (idle timeout, restart) before any byte of the reply arrived,
    the request is sent once more on a fresh connection.  That resend is
    safe because a submission is content-addressed by its request digest:
    a duplicate coalesces with the first or hits the plan cache.
    :meth:`close` (or leaving a ``with`` block) closes every thread's
    connection; a later request simply reconnects.
    """

    def __init__(self, base_url: str, timeout: float = 60.0,
                 trace: TraceContext | None = None) -> None:
        self.base_url = base_url.rstrip("/")
        url = urlsplit(self.base_url)
        if url.scheme != "http" or not url.hostname:
            raise ValueError(f"not an http:// URL: {base_url!r}")
        self._address = (url.hostname, url.port)
        self._path = url.path
        self.timeout = timeout
        #: Explicit trace context for outgoing requests; when unset, the
        #: thread's ambient context (``current_trace()``) is used instead.
        self.trace = trace
        self._local = threading.local()
        # Every thread's connection, so close() reaches them all.
        self._connections: dict[threading.Thread, http.client.HTTPConnection] = {}
        self._connections_lock = threading.Lock()

    def close(self) -> None:
        """Close every thread's connection (call with no request in flight)."""
        with self._connections_lock:
            connections = list(self._connections.values())
        for conn in connections:
            conn.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- transport ---------------------------------------------------------

    def _connection(self) -> http.client.HTTPConnection:
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = http.client.HTTPConnection(*self._address, timeout=self.timeout)
            self._local.conn = conn
            with self._connections_lock:
                # A thread that has ended will not send again: close its
                # connection now rather than when the client goes away.
                for thread in [t for t in self._connections if not t.is_alive()]:
                    self._connections.pop(thread).close()
                self._connections[threading.current_thread()] = conn
        return conn

    @staticmethod
    def _response(conn: http.client.HTTPConnection, method: str, target: str,
                  data: bytes | None, headers: dict) -> http.client.HTTPResponse:
        """Send one request and read its status line and headers."""
        try:
            conn.request(method, target, body=data, headers=headers)
            return conn.getresponse()
        except BaseException:
            conn.close()  # a half-done exchange leaves the connection unusable
            raise

    def _request(self, method: str, path: str, body: dict | None = None) -> tuple[int, dict, dict]:
        data = None if body is None else json.dumps(body).encode()
        headers = {"Content-Type": "application/json"} if data else {}
        ctx = self.trace if self.trace is not None else current_trace()
        if ctx is not None:
            headers[TRACEPARENT_HEADER] = ctx.to_traceparent()
        conn = self._connection()
        reused = conn.sock is not None
        try:
            resp = self._response(conn, method, self._path + path, data, headers)
        except _STALE_CONNECTION:
            if not reused:
                raise
            resp = self._response(conn, method, self._path + path, data, headers)
        try:
            raw = resp.read()
        except BaseException:
            conn.close()
            raise
        try:
            payload = json.loads(raw or b"{}")
        except json.JSONDecodeError:
            if resp.status < 400:
                raise
            payload = {}
        return resp.status, payload, dict(resp.headers)

    def _checked(self, method: str, path: str, body: dict | None = None,
                 ok: tuple[int, ...] = (200, 202)) -> tuple[int, dict]:
        status, payload, headers = self._request(method, path, body)
        if status in (429, 503):
            try:
                retry_after = float(headers.get("Retry-After",
                                                payload.get("retry_after", 1.0)))
            except (TypeError, ValueError):
                retry_after = 1.0
            raise Saturated(status, payload, retry_after=retry_after)
        if status not in ok:
            raise ServiceError(status, payload)
        return status, payload

    # -- API ---------------------------------------------------------------

    def healthz(self) -> dict:
        return self._checked("GET", "/healthz")[1]

    def metrics(self) -> dict:
        return self._checked("GET", "/metrics")[1]

    def submit(self, payload: dict) -> SubmitResult:
        """Asynchronous submit (``POST /v1/jobs``); never waits on a solve."""
        status, body = self._checked("POST", "/v1/jobs", payload)
        return SubmitResult.from_body(body, coalesced=status == 202 and
                                      body.get("job", {}).get("coalesced", 0) > 0)

    def status(self, job_id: str) -> dict:
        return self._checked("GET", f"/v1/jobs/{job_id}")[1]["job"]

    def plan(self, job_id: str) -> dict:
        return self._checked("GET", f"/v1/jobs/{job_id}/plan")[1]["plan"]

    def wait(self, job_id: str, timeout: float = 60.0, poll_s: float = 0.02) -> dict:
        """Poll a job to completion; returns the final job view."""
        deadline = time.monotonic() + timeout
        while True:
            job = self.status(job_id)
            if job["state"] in ("done", "failed"):
                return job
            if time.monotonic() >= deadline:
                raise TimeoutError(f"job {job_id} still {job['state']} after {timeout}s")
            time.sleep(poll_s)

    def solve(self, payload: dict, wait_s: float | None = None) -> SubmitResult:
        """Submit and wait (``POST /v1/plan``): returns the finished plan.

        Falls back to polling if the server's synchronous wait window
        elapses first (504).
        """
        body = dict(payload)
        if wait_s is not None:
            body["wait_s"] = wait_s
        status, resp = self._checked("POST", "/v1/plan", body, ok=(200, 504))
        if status == 504:
            job_id = resp.get("job", {}).get("id", "")
            job = self.wait(job_id, timeout=wait_s or self.timeout)
            if job["state"] == "failed":
                raise ServiceError(500, {"error": job.get("error")})
            return SubmitResult.from_body({"job": job, "plan": self.plan(job_id)})
        return SubmitResult.from_body(resp)


#: Default non-compute cost rates, mirroring ``repro.market.CostRates``
#: (storage $/GB-month over Amazon's 730 h billing month).
DEFAULT_RATES = {
    "storage": 0.10 / 730.0,
    "io": 0.20,
    "transfer_in": 0.10,
    "transfer_out": 0.17,
}


def drrp_payload(
    demand,
    compute_prices,
    *,
    phi: float = 0.5,
    initial_storage: float = 0.0,
    vm_name: str = "vm",
    backend: str = "auto",
    rates: dict | None = None,
    costs: dict | None = None,
    time_limit: float | None = None,
    on_overload: str | None = None,
) -> dict:
    """Build one explicit DRRP submission payload.

    The canonical spelling of the wire format every client-side planner
    shares: ``demand`` and ``compute_prices`` are per-slot floats; the
    four non-compute cost series come either from flat ``rates``
    (:data:`DEFAULT_RATES` when omitted) broadcast over the window, or —
    for aggregated multi-resolution windows whose holding rates vary per
    block — as explicit per-slot lists via ``costs``
    (``{"storage": [...], "io": [...], "transfer_in": [...],
    "transfer_out": [...]}``, each entry optional).
    """
    demand = [float(x) for x in demand]
    compute = [float(x) for x in compute_prices]
    if len(compute) != len(demand):
        raise ValueError("need a compute price for every demand slot")
    flat = dict(DEFAULT_RATES if rates is None else rates)
    explicit = costs or {}
    series: dict = {"compute": compute}
    for key in ("storage", "io", "transfer_in", "transfer_out"):
        if key in explicit:
            column = [float(x) for x in explicit[key]]
            if len(column) != len(demand):
                raise ValueError(f"costs[{key!r}] must have one entry per slot")
        else:
            column = [float(flat[key])] * len(demand)
        series[key] = column
    payload = {
        "kind": "drrp",
        "backend": backend,
        "instance": {
            "demand": demand,
            "costs": series,
            "phi": float(phi),
            "initial_storage": float(initial_storage),
            "vm_name": vm_name,
        },
    }
    if time_limit is not None:
        payload["time_limit"] = float(time_limit)
    if on_overload is not None:
        payload["on_overload"] = on_overload
    return payload


@dataclass
class ReplanPolicy:
    """Rolling-horizon replanning session over the service (see module doc).

    Pure stdlib: demand and compute prices are plain float lists for the
    whole evaluation window; each slot's submission is the explicit
    suffix instance over ``lookahead`` slots.  Deterministic by
    construction — inventory follows the *returned plan* (``beta[0]``),
    so two sessions replaying the same window submit byte-identical
    instances and the second one runs entirely out of the plan cache.
    """

    client: ServiceClient
    demand: list[float]
    compute_prices: list[float]
    lookahead: int = 6
    phi: float = 0.5
    initial_storage: float = 0.0
    vm_name: str = "vm"
    backend: str = "auto"
    rates: dict = field(default_factory=lambda: dict(DEFAULT_RATES))
    time_limit: float | None = None

    def __post_init__(self) -> None:
        if len(self.compute_prices) < len(self.demand):
            raise ValueError("need a compute price for every slot")
        if self.lookahead < 1:
            raise ValueError("lookahead must be >= 1")
        self.t = 0
        self.inventory = float(self.initial_storage)
        self.results: list[SubmitResult] = []

    @property
    def horizon(self) -> int:
        return len(self.demand)

    @property
    def done(self) -> bool:
        return self.t >= self.horizon

    def payload_for_slot(self) -> dict:
        """The suffix instance submission for the current slot."""
        stop = min(self.t + self.lookahead, self.horizon)
        window = range(self.t, stop)
        return drrp_payload(
            [self.demand[i] for i in window],
            [self.compute_prices[i] for i in window],
            phi=self.phi,
            initial_storage=self.inventory,
            vm_name=self.vm_name,
            backend=self.backend,
            rates=self.rates,
            time_limit=self.time_limit,
        )

    def plan_slot(self, wait_s: float | None = None) -> SubmitResult:
        """Submit the current suffix instance and return the solved plan.

        Idempotent per state: calling again before :meth:`advance` (a
        re-plan tick with nothing changed) is a cache hit on the server.
        """
        if self.done:
            raise RuntimeError("session already past the final slot")
        result = self.client.solve(self.payload_for_slot(), wait_s=wait_s)
        if result.plan is None:
            raise ServiceError(500, {"error": "no plan in response"})
        return result

    def advance(self, result: SubmitResult) -> None:
        """Execute the first-slot decision of ``result`` and move one slot."""
        self.results.append(result)
        # beta[0] is the plan's own end-of-slot inventory: carrying it
        # forward exactly (not re-deriving it) keeps successive suffix
        # instances reproducible across sessions, hence cacheable.
        self.inventory = float(result.plan["beta"][0])
        self.t += 1

    def run(self, wait_s: float | None = None) -> list[SubmitResult]:
        """Plan and advance through every remaining slot."""
        while not self.done:
            self.advance(self.plan_slot(wait_s=wait_s))
        return self.results

    @property
    def cache_hits(self) -> int:
        return sum(1 for r in self.results if r.hit)
