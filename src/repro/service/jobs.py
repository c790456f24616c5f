"""Job records and the in-memory job store.

A :class:`Job` is one admitted planning request: its canonical request,
content digest, lifecycle state, timing, and (once finished) the plan
payload or error.  Jobs are shared objects — in-flight coalescing hands
the *same* job to every identical concurrent submission — so state
transitions happen under the store lock and completion is signalled
through a per-job :class:`threading.Event` that any number of waiters
may block on.

A finished job keeps only what its views read: the request is dropped
(``kind`` and ``backend`` stay as fields) and its event is swapped for one
shared, already-set event, so the up to ``retain`` finished jobs a store
keeps hold their plans and little else.
"""

from __future__ import annotations

import enum
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # annotation-only: keeps this module stdlib-importable
    from repro.obs.propagate import TraceContext
    from repro.solver.telemetry import Deadline

__all__ = ["JobState", "Job", "JobStore"]

#: The event every finished job ends up holding: already set, so a wait
#: that starts after ``finish`` returns at once.
_DONE = threading.Event()
_DONE.set()


class JobState(str, enum.Enum):
    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"

    @property
    def finished(self) -> bool:
        return self in (JobState.DONE, JobState.FAILED)


@dataclass
class Job:
    """One admitted planning request (see module docstring)."""

    id: str
    digest: str
    request: dict | None          # the normalized request; None once finished
    state: JobState = JobState.QUEUED
    kind: str | None = field(init=False, default=None)      # request["kind"]
    backend: str | None = field(init=False, default=None)   # request["backend"]
    deadline: Deadline | None = None
    submitted: float = field(default_factory=time.monotonic)
    started: float | None = None
    finished: float | None = None
    cached: bool = False          # answered from the plan cache at submit
    degraded: str | None = None   # heuristic used instead of the solver
    degrade_invalid: bool = False  # that heuristic's plan failed validation
    coalesced: int = 0            # extra identical submissions sharing this job
    plan: dict | None = None
    error: str | None = None
    trace: TraceContext | None = None   # this job's own span context
    trace_parent: str | None = None     # caller's span id (from traceparent)
    wall_t0: float | None = None        # time.time() when the solve started
    done_event: threading.Event = field(default_factory=threading.Event, repr=False)

    def __post_init__(self) -> None:
        if self.request is not None:
            self.kind = self.request.get("kind")
            self.backend = self.request.get("backend")

    def finish(self, plan: dict | None = None, error: str | None = None) -> None:
        self.finished = time.monotonic()
        if error is None:
            self.plan = plan
            self.state = JobState.DONE
        else:
            self.error = error
            self.state = JobState.FAILED
        self.request = None
        # Wake the waiters blocked on this job's own event, then share the
        # module's set event: a later wait still returns at once.
        self.done_event.set()
        self.done_event = _DONE

    @property
    def latency(self) -> float | None:
        """Submit-to-finish wall seconds (queue wait included)."""
        return None if self.finished is None else self.finished - self.submitted

    def to_dict(self) -> dict:
        """Client-facing view (no plan body — fetch that separately)."""
        view = {
            "id": self.id,
            "state": self.state.value,
            "kind": self.kind,
            "digest": self.digest,
            "cached": self.cached,
            "coalesced": self.coalesced,
        }
        if self.trace is not None:
            view["trace_id"] = self.trace.trace_id
        if self.degraded is not None:
            view["degraded"] = self.degraded
        if self.degrade_invalid:
            view["degrade_invalid"] = True
        if self.latency is not None:
            view["latency_s"] = self.latency
        if self.error is not None:
            view["error"] = self.error
        if self.plan is not None:
            view["plan_status"] = self.plan.get("status")
        return view


class JobStore:
    """Thread-safe id -> job map with bounded retention of finished jobs.

    Unfinished jobs are never evicted (something still references them);
    finished ones age out FIFO beyond ``retain`` so a long-lived server
    does not grow without bound.
    """

    def __init__(self, retain: int = 4096) -> None:
        if retain < 1:
            raise ValueError(f"retain must be >= 1, got {retain}")
        self.retain = retain
        self._jobs: OrderedDict[str, Job] = OrderedDict()
        self._lock = threading.Lock()
        self._counter = 0

    def create(self, digest: str, request: dict, **kwargs) -> Job:
        with self._lock:
            self._counter += 1
            job = Job(
                id=f"j{self._counter:06d}-{digest[7:15]}",
                digest=digest,
                request=request,
                **kwargs,
            )
            self._jobs[job.id] = job
            self._evict_locked()
            return job

    def _evict_locked(self) -> None:
        """Drop the ``excess`` oldest finished jobs, walking from the
        oldest and stopping as soon as enough are found."""
        excess = len(self._jobs) - self.retain
        if excess <= 0:
            return
        victims = []
        for job_id, job in self._jobs.items():
            if job.state.finished:
                victims.append(job_id)
                if len(victims) == excess:
                    break
        for job_id in victims:
            del self._jobs[job_id]

    def get(self, job_id: str) -> Job | None:
        with self._lock:
            return self._jobs.get(job_id)

    def __len__(self) -> int:
        with self._lock:
            return len(self._jobs)

    def counts(self) -> dict:
        with self._lock:
            counts = {state.value: 0 for state in JobState}
            for job in self._jobs.values():
                counts[job.state.value] += 1
            return counts
