"""Process-pool mapping tests."""

import json
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from repro.parallel import default_workers, parallel_map, spawn_rngs


def square(x):
    return x * x


def pid_of(_):
    return os.getpid()


def pid_after_nap(_):
    # Long enough that every worker takes an item before any takes two.
    time.sleep(0.1)
    return os.getpid()


def die_on_three(x):
    if x == 3:
        os._exit(1)
    return x


def pid_and_parent(_):
    return os.getpid(), os.getppid()


class TestParallelMap:
    def test_serial_path_matches_map(self):
        items = list(range(20))
        assert parallel_map(square, items, n_workers=1) == [x * x for x in items]

    def test_parallel_path_matches_serial(self):
        items = list(range(50))
        serial = parallel_map(square, items, n_workers=1)
        parallel = parallel_map(square, items, n_workers=2)
        assert serial == parallel

    def test_order_preserved(self):
        items = list(range(100, 0, -1))
        out = parallel_map(square, items, n_workers=2)
        assert out == [x * x for x in items]

    def test_empty_input(self):
        assert parallel_map(square, [], n_workers=4) == []

    def test_single_item_stays_serial(self):
        assert parallel_map(pid_of, [1], n_workers=4) == [os.getpid()]

    def test_uses_multiple_processes(self):
        if (os.cpu_count() or 1) < 2:
            pytest.skip("single-core machine")
        pids = set(parallel_map(pid_of, list(range(32)), n_workers=2, chunksize=1))
        assert os.getpid() not in pids  # ran in workers

    def test_default_workers_positive(self):
        assert 1 <= default_workers() <= 8

    def test_workers_clamped_to_item_count(self):
        # 2 items must never fan out to more than 2 worker processes
        pids = set(parallel_map(pid_of, [1, 2], n_workers=8, chunksize=1))
        assert len(pids) <= 2


class TestSharedExecutor:
    def test_consecutive_calls_reuse_worker_processes(self):
        parallel_map(pid_of, [1, 2], n_workers=2, chunksize=1)  # build the pool
        first = set(parallel_map(pid_after_nap, range(4), n_workers=2, chunksize=1))
        second = set(parallel_map(pid_after_nap, range(4), n_workers=2, chunksize=1))
        assert len(first) == 2 and os.getpid() not in first
        assert second == first

    def test_dead_worker_fails_its_call_and_the_next_call_recovers(self):
        with pytest.raises(BrokenProcessPool):
            parallel_map(die_on_three, range(8), n_workers=2, chunksize=1)
        assert parallel_map(square, range(8), n_workers=2) == [x * x for x in range(8)]

    @staticmethod
    def _run_in_forked_child():
        """Fork; the child maps ``pid_and_parent`` on 2 workers and exits
        without shutting its pool down.  Returns ``(child_pid, pairs)``."""
        read_fd, write_fd = os.pipe()
        child = os.fork()
        if child == 0:  # pragma: no cover - runs in the forked child
            try:
                os.close(read_fd)
                # A child stuck on the parent's pool would hang: end it.
                signal.alarm(60)
                pairs = parallel_map(pid_and_parent, range(8), n_workers=2, chunksize=1)
                os.write(write_fd, (json.dumps(pairs) + "\n").encode())
            finally:
                os._exit(0)
        os.close(write_fd)
        # One line, not EOF: the child's workers hold the write end too.
        with os.fdopen(read_fd) as pipe:
            payload = pipe.readline()
        os.waitpid(child, 0)
        return child, json.loads(payload)

    def test_forked_child_builds_its_own_pool(self):
        parent_workers = set(parallel_map(pid_of, range(8), n_workers=2, chunksize=1))
        child, pairs = self._run_in_forked_child()
        assert len(pairs) == 8
        assert {ppid for _, ppid in pairs} == {child}
        assert not {pid for pid, _ in pairs} & parent_workers
        # The parent's pool is untouched by the child's.
        assert set(parallel_map(pid_of, range(8), n_workers=2, chunksize=1)) <= parent_workers

    @pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
    def test_workers_exit_when_their_owner_dies(self):
        _, pairs = self._run_in_forked_child()
        workers = {pid for pid, _ in pairs}

        def alive(pid):
            try:
                with open(f"/proc/{pid}/stat") as f:
                    return f.read().rsplit(")", 1)[1].split()[0] != "Z"
            except FileNotFoundError:
                return False

        deadline = time.monotonic() + 10.0
        while any(alive(pid) for pid in workers) and time.monotonic() < deadline:
            time.sleep(0.1)
        assert not any(alive(pid) for pid in workers)

    def test_main_task_defined_after_the_fork_runs(self, tmp_path):
        """A ``__main__`` task function the forked workers never saw (new, or
        redefined) gets a fresh pool instead of a ``BrokenProcessPool``."""
        script = tmp_path / "late_main.py"
        script.write_text(textwrap.dedent("""
            from repro.parallel import parallel_map

            def early(x):
                return x + 1

            print(parallel_map(early, range(4), n_workers=2, chunksize=1))

            def late(x):
                return x * 10

            print(parallel_map(late, range(4), n_workers=2, chunksize=1))

            def early(x):
                return -x

            print(parallel_map(early, range(4), n_workers=2, chunksize=1))
            print(parallel_map(early, range(4), n_workers=2, chunksize=1))
        """))
        src = str(Path(__file__).resolve().parents[2] / "src")
        env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
        out = subprocess.run([sys.executable, str(script)], capture_output=True,
                             text=True, env=env, timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout.split("\n")[:4] == [
            "[1, 2, 3, 4]", "[0, 10, 20, 30]", "[0, -1, -2, -3]", "[0, -1, -2, -3]",
        ]


class TestWorkersEnvOverride:
    def test_env_value_honored(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert default_workers() == 3

    def test_env_overrides_cap(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "12")
        assert default_workers() == 12

    def test_env_floored_at_one(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "0")
        assert default_workers() == 1
        monkeypatch.setenv("REPRO_WORKERS", "-4")
        assert default_workers() == 1

    def test_junk_env_ignored(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "many")
        assert 1 <= default_workers() <= 8


class TestSeeding:
    def test_spawned_streams_deterministic(self):
        a = [r.normal() for r in spawn_rngs(3, 4)]
        b = [r.normal() for r in spawn_rngs(3, 4)]
        assert np.allclose(a, b)


class TestWorkerTelemetryMerging:
    def test_four_worker_fuzz_run_merges_into_one_ordered_stream(self, tmp_path):
        from repro.solver.telemetry import EventRecorder
        from repro.verify import FuzzConfig, run_fuzz_parallel

        recorder = EventRecorder()
        config = FuzzConfig(seed=11, max_cases=12, out_dir=str(tmp_path))
        report = run_fuzz_parallel(config, n_workers=4, listener=recorder)
        assert report.cases == 12 and report.ok

        events = recorder.events
        assert events, "workers must forward their events to the parent hub"
        # one stream, monotone non-decreasing parent timestamps
        times = [e.t for e in events]
        assert times == sorted(times)
        # every worker-side event is tagged with a compact worker id
        case_events = [e for e in events if e.kind == "fuzz_case"]
        assert len(case_events) == 12
        workers = {e.data["worker"] for e in case_events}
        assert workers and workers <= {0, 1, 2, 3}
        # the merged campaign summary comes from the parent, after the cases
        summary = [e for e in events if e.kind == "fuzz_summary"][-1]
        assert summary.data["cases"] == 12
        assert summary.data["shards"] == 4

    def test_worker_events_preserve_worker_local_clock(self):
        from repro.solver.telemetry import EventRecorder
        from repro.verify import FuzzConfig, run_fuzz_parallel

        recorder = EventRecorder()
        run_fuzz_parallel(FuzzConfig(seed=3, max_cases=4), n_workers=2,
                          listener=recorder)
        shard_events = [e for e in recorder.events if "worker" in e.data]
        assert shard_events
        assert all(e.data["worker_t"] >= 0.0 for e in shard_events)
