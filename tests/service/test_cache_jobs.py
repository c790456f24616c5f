"""Plan cache (LRU + accounting) and job store tests."""

import threading

import pytest

from repro.service.cache import PlanCache
from repro.service.jobs import Job, JobState, JobStore


class TestPlanCache:
    def test_miss_then_hit(self):
        cache = PlanCache(4)
        assert cache.get("a") is None
        cache.put("a", {"plan": 1})
        assert cache.get("a") == {"plan": 1}
        assert cache.hits == 1 and cache.misses == 1

    def test_lru_eviction_order(self):
        cache = PlanCache(2)
        cache.put("a", {})
        cache.put("b", {})
        cache.get("a")          # refresh a; b is now oldest
        cache.put("c", {})
        assert "a" in cache and "c" in cache and "b" not in cache
        assert cache.evictions == 1

    def test_zero_maxsize_disables(self):
        cache = PlanCache(0)
        cache.put("a", {})
        assert len(cache) == 0 and cache.get("a") is None

    def test_negative_maxsize_rejected(self):
        with pytest.raises(ValueError):
            PlanCache(-1)

    def test_stats_shape(self):
        cache = PlanCache(4)
        cache.put("a", {})
        cache.get("a")
        cache.get("x")
        stats = cache.stats()
        assert stats["size"] == 1 and stats["hits"] == 1 and stats["misses"] == 1
        assert stats["hit_rate"] == 0.5

    def test_thread_safety_smoke(self):
        cache = PlanCache(16)

        def worker(base):
            for i in range(200):
                cache.put(f"k{(base + i) % 32}", {"i": i})
                cache.get(f"k{i % 32}")

        threads = [threading.Thread(target=worker, args=(j,)) for j in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(cache) <= 16


class TestJobStore:
    def test_create_assigns_sequential_ids(self):
        store = JobStore()
        a = store.create("sha256:" + "0" * 64, {"kind": "drrp"})
        b = store.create("sha256:" + "1" * 64, {"kind": "drrp"})
        assert a.id != b.id and store.get(a.id) is a and store.get(b.id) is b

    def test_finish_sets_event_and_state(self):
        store = JobStore()
        job = store.create("sha256:" + "0" * 64, {})
        assert not job.done_event.is_set()
        job.finish(plan={"status": "optimal"})
        assert job.state is JobState.DONE and job.done_event.is_set()
        assert job.latency is not None and job.latency >= 0

    def test_failure_path(self):
        job = Job(id="j1", digest="d", request={})
        job.finish(error="boom")
        assert job.state is JobState.FAILED
        assert job.to_dict()["error"] == "boom"

    def test_retention_evicts_only_finished(self):
        store = JobStore(retain=2)
        done1 = store.create("sha256:" + "0" * 64, {})
        done1.finish(plan={})
        pending = store.create("sha256:" + "1" * 64, {})
        done2 = store.create("sha256:" + "2" * 64, {})
        done2.finish(plan={})
        done3 = store.create("sha256:" + "3" * 64, {})
        done3.finish(plan={})
        # oldest finished jobs age out; the pending job survives
        assert store.get(done1.id) is None
        assert store.get(pending.id) is pending
        assert len(store) == 2

    def test_retention_walks_from_oldest_and_stops_early(self):
        store = JobStore(retain=4)
        pending = store.create("sha256:" + "0" * 64, {})
        done = [store.create("sha256:" + f"{i}" * 64, {}) for i in range(1, 4)]
        for job in done:
            job.finish(plan={})

        class Unread:
            @property
            def finished(self):
                raise AssertionError("eviction read past the jobs it needed")

        # One job over retain: eviction must stop at the first finished job
        # after the pending one, never reaching the newer ones.
        done[1].state = done[2].state = Unread()
        store.create("sha256:" + "4" * 64, {})
        assert store.get(done[0].id) is None
        assert store.get(pending.id) is pending
        assert store.get(done[1].id) is done[1] and store.get(done[2].id) is done[2]

    def test_retention_evicts_oldest_finished_first(self):
        store = JobStore(retain=2)
        jobs = [store.create("sha256:" + f"{i}" * 64, {}) for i in range(4)]
        jobs[1].finish(plan={})
        jobs[3].finish(plan={})
        jobs[0].finish(plan={})
        extra = store.create("sha256:" + "5" * 64, {})
        # three over retain, but only the three finished jobs may go: the
        # oldest first (0, 1, 3), while unfinished job 2 survives
        assert [store.get(j.id) for j in jobs] == [None, None, jobs[2], None]
        assert store.get(extra.id) is extra

    def test_finished_job_drops_request_but_keeps_views(self):
        store = JobStore()
        job = store.create("sha256:" + "0" * 64, {"kind": "drrp", "backend": "simplex"})
        job.finish(plan={"status": "optimal"})
        assert job.request is None
        assert job.kind == "drrp" and job.backend == "simplex"
        assert job.to_dict()["kind"] == "drrp"

    def test_waiter_blocked_before_finish_wakes(self):
        job = JobStore().create("sha256:" + "0" * 64, {"kind": "drrp"})
        woke = threading.Event()
        blocked = threading.Event()

        def waiter():
            event = job.done_event
            blocked.set()
            if event.wait(10.0):
                woke.set()

        t = threading.Thread(target=waiter)
        t.start()
        assert blocked.wait(10.0)
        job.finish(plan={})
        t.join(10.0)
        assert woke.is_set()

    def test_wait_after_finish_returns_at_once(self):
        a = JobStore().create("sha256:" + "0" * 64, {})
        b = JobStore().create("sha256:" + "1" * 64, {})
        a.finish(plan={})
        b.finish(error="boom")
        assert a.done_event.wait(0) and b.done_event.wait(0)
        # finished jobs share one set event instead of keeping their own
        assert a.done_event is b.done_event

    def test_counts_by_state(self):
        store = JobStore()
        store.create("sha256:" + "0" * 64, {})
        done = store.create("sha256:" + "1" * 64, {})
        done.finish(plan={})
        counts = store.counts()
        assert counts["queued"] == 1 and counts["done"] == 1
