"""End-to-end trace propagation through the planning service.

Covers the satellite acceptance points: a garbled ``traceparent`` is
never an HTTP error (the server mints a fresh root), a valid header's
trace id survives bit-for-bit into the job's capture manifest and event
file, child sampling follows the caller, and ``/metrics`` serves
parsable Prometheus text while jobs are in flight.
"""

import json
import threading
import urllib.request
from pathlib import Path

import pytest

from repro.obs.manifest import RunManifest
from repro.obs.propagate import (
    TRACEPARENT_HEADER,
    TraceContext,
    activate,
    read_process_events,
)
from repro.service import (
    PlanningService,
    ServiceClient,
    ServiceConfig,
    serve,
)

DRRP = {"kind": "drrp", "vm": "c1.medium", "horizon": 5, "seed": 1,
        "demand_mean": 0.4, "demand_std": 0.1}


def req(seed):
    return {**DRRP, "seed": seed}


@pytest.fixture()
def captured(tmp_path):
    cfg = ServiceConfig(workers=2, capture_dir=str(tmp_path / "cap"))
    with PlanningService(cfg) as svc:
        yield svc, Path(cfg.capture_dir)


@pytest.fixture(scope="module")
def live():
    service, httpd = serve(port=0, config=ServiceConfig(workers=2), block=False)
    yield service, httpd
    httpd.shutdown()
    httpd.server_close()
    service.close()


def wait_done(service, job_id, timeout=30.0):
    job = service.wait(job_id, timeout=timeout)
    assert job is not None and job.state.finished, job
    return job


def post(url, payload, headers=None):
    data = json.dumps(payload).encode()
    request = urllib.request.Request(
        url, data=data, headers={"Content-Type": "application/json", **(headers or {})})
    with urllib.request.urlopen(request, timeout=30.0) as resp:
        return resp.status, json.loads(resp.read())


class TestSubmitTraceWiring:
    def test_job_trace_is_child_of_caller(self, captured):
        svc, _ = captured
        caller = TraceContext.new_root()
        _, body = svc.submit(req(31), trace=caller)
        job = wait_done(svc, body["job"]["id"])
        assert job.trace.trace_id == caller.trace_id
        assert job.trace.span_id != caller.span_id
        assert job.trace_parent == caller.span_id

    def test_no_trace_mints_fresh_root(self, captured):
        svc, _ = captured
        _, body = svc.submit(req(32))
        job = wait_done(svc, body["job"]["id"])
        assert job.trace is not None and job.trace_parent is None
        assert len(job.trace.trace_id) == 32

    def test_child_sampling_follows_caller(self, captured):
        svc, _ = captured
        root = TraceContext.new_root()
        unsampled = TraceContext(root.trace_id, root.span_id, sampled=False)
        _, body = svc.submit(req(33), trace=unsampled)
        job = wait_done(svc, body["job"]["id"])
        assert job.trace.sampled is False

    def test_trace_id_round_trips_into_capture(self, tmp_path):
        cap = tmp_path / "cap"
        caller = TraceContext.new_root()
        # Close the service before reading: capture files are written by
        # the worker thread just after the job result is published.
        with PlanningService(ServiceConfig(workers=2, capture_dir=str(cap))) as svc:
            _, body = svc.submit(req(34), trace=caller)
            job = wait_done(svc, body["job"]["id"])

        manifest = RunManifest.load(cap / job.id / "manifest.json")
        trace = manifest.extra["trace"]
        assert trace["trace_id"] == caller.trace_id           # bit-for-bit
        assert trace["parent_span_id"] == caller.span_id

        meta, events = read_process_events(cap / job.id / "events.jsonl")
        assert meta["trace"]["trace_id"] == caller.trace_id
        assert meta["trace"]["parent_span_id"] == caller.span_id
        assert meta["label"] == f"service:{job.id}"
        assert meta["wall_t0"] == job.wall_t0
        # The synthetic queue-wait phase is in the captured stream.
        waits = [e for e in events
                 if e.kind == "phase_end" and e.data.get("phase") == "service_queue_wait"]
        assert len(waits) == 1 and waits[0].data["job"] == job.id


class TestHTTPTraceHeader:
    def test_valid_header_propagates(self, live):
        service, httpd = live
        ctx = TraceContext.new_root()
        status, body = post(httpd.url + "/v1/jobs", req(41),
                            {TRACEPARENT_HEADER: ctx.to_traceparent()})
        assert status in (200, 202)
        job = wait_done(service, body["job"]["id"])
        assert job.trace.trace_id == ctx.trace_id

    @pytest.mark.parametrize("header", [
        "garbage",
        "00-zzzz-11-01",
        "00-" + "0" * 32 + "-" + "1" * 16 + "-01",
        "ff-" + "1" * 32 + "-" + "2" * 16 + "-01",
    ])
    def test_garbled_header_is_never_an_error(self, live, header):
        service, httpd = live
        status, body = post(httpd.url + "/v1/jobs", req(42),
                            {TRACEPARENT_HEADER: header})
        assert status in (200, 202)        # fresh root, not a 4xx/5xx
        job = wait_done(service, body["job"]["id"])
        assert job.trace is not None and job.trace_parent is None

    def test_client_sends_ambient_trace(self, live):
        service, httpd = live
        ctx = TraceContext.new_root()
        with ServiceClient(httpd.url, timeout=30.0) as client, activate(ctx):
            result = client.submit(req(43))
        job = wait_done(service, result.job_id)
        assert job.trace.trace_id == ctx.trace_id
        assert job.trace_parent == ctx.span_id
        assert job.to_dict()["trace_id"] == ctx.trace_id

    def test_explicit_client_trace_beats_ambient(self, live):
        service, httpd = live
        explicit = TraceContext.new_root()
        with ServiceClient(httpd.url, timeout=30.0, trace=explicit) as client, \
                activate(TraceContext.new_root()):
            result = client.submit(req(44))
        job = wait_done(service, result.job_id)
        assert job.trace.trace_id == explicit.trace_id


def _parse_prometheus(text):
    """Minimal 0.0.4 parser: returns {metric_name: [(labels, value), ...]}."""
    samples = {}
    for line in text.strip().splitlines():
        if line.startswith("#"):
            parts = line.split()
            assert parts[1] in ("TYPE", "HELP")
            continue
        name_part, value = line.rsplit(" ", 1)
        if "{" in name_part:
            name, labels = name_part.split("{", 1)
            assert labels.endswith("}")
        else:
            name, labels = name_part, ""
        float(value.replace("+Inf", "inf").replace("NaN", "nan"))
        samples.setdefault(name, []).append((labels, value))
    return samples


class TestMetricsExposition:
    def test_json_is_default(self, live):
        _, httpd = live
        with urllib.request.urlopen(httpd.url + "/metrics", timeout=10.0) as resp:
            assert resp.headers["Content-Type"].startswith("application/json")
            json.loads(resp.read())

    @pytest.mark.parametrize("how", ["query", "accept"])
    def test_prometheus_negotiation(self, live, how):
        _, httpd = live
        url = httpd.url + "/metrics"
        headers = {}
        if how == "query":
            url += "?format=prom"
        else:
            headers["Accept"] = "text/plain"
        request = urllib.request.Request(url, headers=headers)
        with urllib.request.urlopen(request, timeout=10.0) as resp:
            ctype = resp.headers["Content-Type"]
            assert ctype.startswith("text/plain") and "version=0.0.4" in ctype
            _parse_prometheus(resp.read().decode())

    def test_prometheus_parses_under_load(self, live):
        service, httpd = live
        stop = threading.Event()
        errors = []

        def scrape():
            while not stop.is_set():
                try:
                    with urllib.request.urlopen(
                            httpd.url + "/metrics?format=prom", timeout=10.0) as resp:
                        _parse_prometheus(resp.read().decode())
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(exc)
                    return

        scraper = threading.Thread(target=scrape)
        scraper.start()
        try:
            ids = [post(httpd.url + "/v1/jobs", req(50 + i))[1]["job"]["id"]
                   for i in range(4)]
            for job_id in ids:
                wait_done(service, job_id)
        finally:
            stop.set()
            scraper.join()
        assert not errors, errors

        # After real solves the scrape carries solver metrics.
        with urllib.request.urlopen(
                httpd.url + "/metrics?format=prom", timeout=10.0) as resp:
            samples = _parse_prometheus(resp.read().decode())
        assert any(name.startswith("repro_") for name in samples)
        assert "repro_service_submissions" in samples
        assert "repro_solves" in samples
