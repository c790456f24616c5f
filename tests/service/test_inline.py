"""Synchronous requests solve on the handler thread when a slot is free.

``workers`` permits bound the solves running at once, whether a worker
thread or a ``/v1/plan`` handler holds them; requests that find no free
slot, or whose ``wait_s`` is shorter than their budget, take the queue.
"""

import json
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.service import ServiceClient, ServiceConfig, ServiceError, serve
from repro.service import executor

DRRP = {"kind": "drrp", "vm": "c1.medium", "horizon": 5, "seed": 1,
        "demand_mean": 0.4, "demand_std": 0.1}


def other(seed):
    return {**DRRP, "seed": seed}


@pytest.fixture()
def start():
    """Boot servers on demand; every one is shut down after the test."""
    running = []

    def boot(**config):
        service, httpd = serve(port=0, config=ServiceConfig(**config), block=False)
        client = ServiceClient(httpd.url, timeout=30.0)
        running.append((service, httpd, client))
        return service, client

    yield boot
    for service, httpd, client in running:
        client.close()
        httpd.shutdown()
        httpd.server_close()
        service.close()


def counter(client, name):
    return client.metrics().get(name, {}).get("value", 0)


def wait_for(predicate, timeout=10.0):
    stop = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < stop, "condition never held"
        time.sleep(0.005)


class Gate:
    """``execute_request`` that blocks until opened, counting the solves
    that run at once and the threads they run on."""

    def __init__(self):
        self.real = executor.execute_request
        self.open = threading.Event()
        self.lock = threading.Lock()
        self.active = self.peak = self.entered = 0
        self.threads = []

    def __call__(self, request, **kwargs):
        with self.lock:
            self.active += 1
            self.entered += 1
            self.peak = max(self.peak, self.active)
            self.threads.append(threading.current_thread().name)
        try:
            assert self.open.wait(10.0), "gate never opened"
            return self.real(request, **kwargs)
        finally:
            with self.lock:
                self.active -= 1


@pytest.fixture()
def gate(monkeypatch):
    g = Gate()
    monkeypatch.setattr(executor, "execute_request", g)
    return g


def in_threads(fn, payloads):
    results = [None] * len(payloads)

    def run(i):
        try:
            results[i] = fn(payloads[i])
        except Exception as exc:  # noqa: BLE001 - reported by the caller's asserts
            results[i] = exc

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(payloads))]
    for t in threads:
        t.start()
    return threads, results


class TestInline:
    def test_idle_server_solves_on_the_handler_thread(self, start, gate):
        gate.open.set()
        _, client = start(workers=2)
        result = client.solve(other(1))
        assert result.plan["status"] == "optimal"
        assert gate.threads and not gate.threads[0].startswith("plan-worker-")
        assert counter(client, "service_inline_solves") == 1

    def test_one_slot_runs_one_solve_at_a_time(self, start, gate):
        service, client = start(workers=1)
        threads, results = in_threads(client.solve, [other(s) for s in (11, 12, 13)])
        wait_for(lambda: len(service.jobs) == 3 and gate.entered == 1)
        time.sleep(0.05)
        assert gate.entered == 1  # the other two wait for the only slot
        gate.open.set()
        for t in threads:
            t.join(30)
        assert all(r is not None and not isinstance(r, Exception) for r in results), results
        assert all(r.plan["status"] == "optimal" for r in results)
        assert gate.peak == 1
        # the first solve took the slot inline; the other two queued
        assert [n.startswith("plan-worker-") for n in gate.threads] == [False, True, True]
        assert counter(client, "service_inline_solves") == 1

    def test_duplicate_coalesces_onto_an_inline_solve(self, start, gate):
        _, client = start(workers=2)
        threads, results = in_threads(client.solve, [other(21)])
        wait_for(lambda: gate.entered == 1)
        assert not gate.threads[0].startswith("plan-worker-")
        more, late = in_threads(client.solve, [other(21)])
        wait_for(lambda: counter(client, "service_coalesced") == 1)
        gate.open.set()
        for t in threads + more:
            t.join(30)
        first, second = results[0], late[0]
        assert second.job_id == first.job_id and second.coalesced
        assert second.plan == first.plan
        assert gate.entered == 1

    def test_expired_budget_inline_still_degrades(self, start, monkeypatch):
        def no_solve(*args, **kwargs):
            raise RuntimeError("solver gave up")

        monkeypatch.setattr(executor, "execute_request", no_solve)
        _, client = start(workers=1)
        result = client.solve({**other(31), "time_limit": 1e-9})
        assert result.plan["status"] == "time_limit"
        assert result.degraded == "wagner-whitin"
        assert counter(client, "service_inline_solves") == 1

    def test_invalid_degraded_answer_inline_is_500(self, start, monkeypatch):
        import repro.core

        def no_solve(*args, **kwargs):
            raise RuntimeError("solver gave up")

        def cap_breaking_noplan(instance):
            plan = real_noplan(instance)
            plan.alpha[0] += 1.0  # over the 0.7 cap, and out of balance
            return plan

        real_noplan = repro.core.solve_noplan
        monkeypatch.setattr(executor, "execute_request", no_solve)
        monkeypatch.setattr(repro.core, "solve_noplan", cap_breaking_noplan)
        T = 4
        capped = {"kind": "drrp", "time_limit": 1e-9, "instance": {
            "demand": [0.4, 0.5, 0.3, 0.6],
            "costs": {"compute": [2.0] * T, "storage": [3.0] * T, "io": [0.2] * T,
                      "transfer_in": [0.1] * T, "transfer_out": [0.17] * T},
            "phi": 0.5, "vm_name": "k",
            "bottleneck_rate": 1.0, "bottleneck_capacity": [0.7] * T}}
        _, client = start(workers=1)
        with pytest.raises(ServiceError) as exc:
            client.solve(capped)
        assert exc.value.status == 500
        assert exc.value.body["degrade_invalid"] is True
        assert counter(client, "service_degrade_invalid") == 1
        assert counter(client, "service_inline_solves") == 1

    def test_no_workers_means_no_inline_solve(self, start):
        _, client = start(workers=0, queue_size=1)
        client.submit(other(41))  # fills the queue; nothing drains it
        with pytest.raises(ServiceError) as exc:
            client.solve(other(42))
        assert exc.value.status == 429
        assert counter(client, "service_inline_solves") == 0


class TestSlotStress:
    def test_many_clients_never_exceed_the_slots(self, start, monkeypatch):
        """More client threads than slots, slots than cores, and a short
        switch interval: solves never outnumber the slots, every request
        is answered, and every slot comes back."""
        real = executor.execute_request
        lock = threading.Lock()
        state = {"active": 0, "peak": 0}

        def counted(request, **kwargs):
            with lock:
                state["active"] += 1
                state["peak"] = max(state["peak"], state["active"])
            try:
                time.sleep(0.002)
                return real(request, **kwargs)
            finally:
                with lock:
                    state["active"] -= 1

        monkeypatch.setattr(executor, "execute_request", counted)
        service, client = start(workers=3, queue_size=64)
        payloads = [other(100 + i % 15) for i in range(48)]  # duplicates too
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads, results = in_threads(lambda chunk: [client.solve(p) for p in chunk],
                                          [payloads[k::8] for k in range(8)])
            for t in threads:
                t.join(60)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        assert not any(isinstance(r, Exception) for r in results), results
        assert all(a.plan["status"] == "optimal" for r in results for a in r)
        assert state["peak"] <= 3
        assert counter(client, "service_inline_solves") >= 1
        slots = [service._slots.acquire(blocking=False) for _ in range(4)]
        assert slots == [True, True, True, False]  # none lost, none extra


class TestWaitTimeout:
    def test_wait_shorter_than_budget_is_504_then_done(self, start, monkeypatch):
        real = executor.execute_request

        def slow(request, **kwargs):
            time.sleep(1.0)
            return real(request, **kwargs)

        monkeypatch.setattr(executor, "execute_request", slow)
        _, client = start(workers=2)
        req = urllib.request.Request(
            client.base_url + "/v1/plan",
            data=json.dumps({**other(51), "wait_s": 0.2}).encode(),
            headers={"Content-Type": "application/json"}, method="POST",
        )
        t0 = time.monotonic()
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=30)
        waited = time.monotonic() - t0
        with err.value:
            assert err.value.code == 504
            body = json.loads(err.value.read())
        assert waited < 0.9  # by wait_s, not by the one-second solve
        assert "wait_s" in body["error"]
        job = client.wait(body["job"]["id"], timeout=30)
        assert job["state"] == "done"
        assert client.plan(job["id"])["status"] == "optimal"
        assert counter(client, "service_inline_solves") == 0
