"""Keep-alive transport between ``ServiceClient`` and the planning server.

Each client thread reuses one connection; a connection the server closed
(idle timeout, restart) is reopened and the request resent once; 429s,
trace headers and the plan-cache key behave exactly as they did when
every request opened its own connection.
"""

import http.client
import sys
import threading
import time

import pytest

from repro.obs.propagate import TraceContext, activate
from repro.service import (
    Saturated,
    ServiceClient,
    ServiceConfig,
    normalize_request,
    request_digest,
    serve,
)
from repro.service import server as server_mod

DRRP = {"kind": "drrp", "vm": "c1.medium", "horizon": 5, "seed": 1,
        "demand_mean": 0.4, "demand_std": 0.1}

SRRP = {"kind": "srrp", "instance": {
    "demand": [0.3] * 3,
    "costs": {"compute": [0.4] * 3, "storage": [0.0001] * 3,
              "io": [0.2] * 3, "transfer_in": [0.1] * 3,
              "transfer_out": [0.17] * 3},
    "phi": 0.5, "vm_name": "s",
    "tree": {"root_price": 0.1,
             "stages": [{"values": [0.1, 0.4], "probs": [0.5, 0.5]}] * 2}}}


def req(seed):
    return {**DRRP, "seed": seed}


class Server:
    """A live server that records the client port of every connection it
    accepts (the peer port names the client-side socket)."""

    def __init__(self, port=0, config=None):
        self.service, self.httpd = serve(
            port=port, config=config or ServiceConfig(workers=2), block=False,
        )
        self.ports: list[int] = []
        accept = self.httpd.process_request

        def process_request(request, client_address):
            self.ports.append(client_address[1])
            accept(request, client_address)

        self.httpd.process_request = process_request

    @property
    def url(self):
        return self.httpd.url

    def stop(self):
        self.httpd.shutdown()
        self.httpd.server_close()
        self.service.close()


@pytest.fixture()
def server():
    srv = Server()
    yield srv
    srv.stop()


def local_port(client):
    return client._local.conn.sock.getsockname()[1]


class TestConnectionReuse:
    def test_each_thread_reuses_its_own_connection(self, server):
        # More client threads than cores, switching often: a connection
        # shared between threads would hand one thread another's reply.
        lanes = 4
        client = ServiceClient(server.url, timeout=30.0)
        seen: dict[int, set] = {lane: set() for lane in range(lanes)}
        errors = []

        def drive(lane):
            try:
                for i in range(6):
                    payload = req(100 + 10 * lane + i)
                    result = client.submit(payload)
                    digest = request_digest(normalize_request(payload))
                    assert result.job_id.endswith(digest[7:15])
                    seen[lane].add(local_port(client))
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=drive, args=(lane,)) for lane in range(lanes)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        assert all(len(ports) == 1 for ports in seen.values())
        ports = set().union(*seen.values())
        assert len(ports) == lanes
        assert sorted(server.ports) == sorted(ports)
        ended = list(client._connections.values())
        assert len(ended) == lanes
        client.healthz()  # a new thread's connection retires the ended threads'
        assert all(conn.sock is None for conn in ended)
        assert list(client._connections) == [threading.current_thread()]
        client.close()

    def test_close_then_reconnect(self, server):
        with ServiceClient(server.url, timeout=30.0) as client:
            client.healthz()
            first = local_port(client)
        assert client._local.conn.sock is None
        client.healthz()
        assert local_port(client) != first
        assert len(server.ports) == 2
        client.close()

    def test_server_closes_an_idle_connection(self, monkeypatch):
        monkeypatch.setattr(server_mod._Handler, "timeout", 0.2)
        srv = Server()
        try:
            client = ServiceClient(srv.url, timeout=30.0)
            client.healthz()
            deadline = time.monotonic() + 10.0
            while srv.httpd._connections and time.monotonic() < deadline:
                time.sleep(0.02)  # until the handler gives up on the idle connection
            assert not srv.httpd._connections
            assert client.solve(req(200)).plan["status"] == "optimal"
            assert len(srv.ports) == 2
            client.close()
        finally:
            srv.stop()

    def test_server_restarts_between_two_calls(self):
        srv = Server()
        port = srv.httpd.server_address[1]
        client = ServiceClient(srv.url, timeout=30.0)
        try:
            first = client.solve(req(300))
            srv.stop()
            srv = Server(port=port)
            second = client.solve(req(300))
            assert not second.cached  # a new server with an empty cache
            assert second.plan["total_cost"] == first.plan["total_cost"]
            assert len(srv.ports) == 1
        finally:
            client.close()
            srv.stop()

    def test_request_read_while_closing_goes_unanswered(self):
        # The race the restart test can hit: a keep-alive request that the
        # old handler reads after server_close() began must not be answered
        # by the closing service; the connection closes and the client
        # resends elsewhere.
        srv = Server()
        conn = http.client.HTTPConnection(*srv.httpd.server_address[:2], timeout=10)
        try:
            conn.request("GET", "/healthz")
            assert conn.getresponse().read()
            srv.httpd.closing = True
            conn.request("GET", "/healthz")
            with pytest.raises(http.client.RemoteDisconnected):
                conn.getresponse()
        finally:
            conn.close()
            srv.stop()

    def test_fresh_connection_failure_is_not_retried(self):
        srv = Server()
        srv.stop()
        client = ServiceClient(srv.url, timeout=5.0)
        with pytest.raises(ConnectionRefusedError):
            client.healthz()

    def test_server_close_ends_idle_keepalive_connections(self):
        srv = Server()
        client = ServiceClient(srv.url, timeout=30.0)
        client.healthz()  # leaves one idle keep-alive connection open
        t0 = time.monotonic()
        srv.stop()
        assert time.monotonic() - t0 < server_mod._Handler.timeout / 2
        client.close()


class TestProtocolOnReusedConnections:
    def test_429_retry_after_on_a_reused_connection(self):
        srv = Server(config=ServiceConfig(workers=0, queue_size=1))
        try:
            client = ServiceClient(srv.url, timeout=10.0)
            client.healthz()
            client.submit(req(400))
            with pytest.raises(Saturated) as exc:
                client.submit(req(401))
            assert exc.value.status == 429 and exc.value.retry_after > 0
            assert client.healthz()["queue_depth"] == 1
            assert len(srv.ports) == 1
            client.close()
        finally:
            srv.stop()

    def test_traceparent_crosses_on_every_request(self, server):
        client = ServiceClient(server.url, timeout=30.0)
        for seed in range(500, 504):
            ctx = TraceContext.new_root()
            with activate(ctx):
                result = client.submit(req(seed))
            job = server.service.wait(result.job_id, timeout=30.0)
            assert job.trace.trace_id == ctx.trace_id
            assert job.trace_parent == ctx.span_id
        assert len(server.ports) == 1
        client.close()

    def test_unread_body_closes_the_connection(self, server):
        conn = http.client.HTTPConnection(*server.httpd.server_address[:2], timeout=10)
        conn.putrequest("POST", "/v1/jobs")
        conn.putheader("Content-Length", str(32 * 1024 * 1024))
        conn.endheaders()
        resp = conn.getresponse()
        assert resp.status == 400
        assert resp.getheader("Connection") == "close"
        resp.read()
        conn.close()


class TestRequestDigestPinned:
    """Cache keys are content addresses: their bytes must not drift."""

    def test_drrp(self):
        assert request_digest(normalize_request(DRRP)) == (
            "sha256:82983b65fbc21314c839005e6411d9c2570b3252b9e13302620ddcfbe98fd15a"
        )

    def test_srrp(self):
        assert request_digest(normalize_request(SRRP)) == (
            "sha256:41cbc893e769dbf875c05f08d39c71518eb5018c4704d3d88c2bed8d99df1daf"
        )
