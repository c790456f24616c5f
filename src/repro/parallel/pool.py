"""Process-pool mapping for embarrassingly parallel sweeps.

Used by the auto-ARIMA grid search, the experiment harness, parallel
Benders subproblems and parallel fuzz shards.  Keeps the dependency
surface tiny: :mod:`concurrent.futures` with chunking, ordered results,
and a serial fallback for ``n_workers <= 1`` (which also makes unit
tests deterministic and debuggable).

One shared executor per process
-------------------------------

The parallel path reuses one lazily created
:class:`~concurrent.futures.ProcessPoolExecutor` per process instead of
starting a pool per call: a Benders solve calls :func:`parallel_map` once
per iteration for subproblems of a few milliseconds, and per-call process
start-up used to cost more than the subproblems themselves.  The
executor is keyed on ``(pid, n_workers)``: a forked child never touches
its parent's pool (it builds its own on first use), and a call with a
different worker count replaces it (calls already running on the old
pool still finish).  Workers fork from the process as it is when the
executor is first used, so later changes to the parent's environment or
module state do not reach them (nor does a task function defined in
``__main__`` after that).  A worker that dies mid-call breaks the
pool: that call raises :class:`~concurrent.futures.process.BrokenProcessPool`
and the broken executor is discarded, so the next call starts a fresh one.
Workers outlive calls, so each one also exits by itself within a second
of its owning process dying without shutting the pool down.

Telemetry across process boundaries
-----------------------------------

Events emitted inside worker processes used to be silently dropped — the
parent's :class:`~repro.solver.telemetry.Telemetry` hub lives in the
parent.  Passing ``telemetry=hub`` to :func:`parallel_map` fixes that:

* each task runs with a process-local capture hub installed as the
  *ambient* hub (:func:`current_telemetry`), which the task body may
  hand to any ``listener=`` / ``telemetry=`` parameter;
* captured events travel back with the task result (plain tuples, so the
  usual pickling contract holds) and are re-emitted into the parent hub
  **in item order**, tagged with a compact ``worker`` id (0, 1, ... by
  first appearance) and the in-worker timestamp as ``worker_t``
  (monotone on a per-process epoch, so consecutive tasks on one worker
  stay ordered and :class:`repro.obs.spans.Tracer` can re-time them);
* the serial path captures the same way with ``worker=0``, so listeners
  observe one well-ordered merged stream either way (the parent hub
  clamps timestamps monotone).

The caller's ambient :class:`repro.obs.propagate.TraceContext` (if any)
is pickled into the task wrapper: each task runs under a *child* context
(``current_trace()`` works inside the worker), re-emitted events are
tagged with the trace id, and an **unsampled** context disables event
capture in the workers entirely — the sampling decision made at the root
holds across the fork.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager, nullcontext
from typing import Callable, Iterable, Sequence, TypeVar

from repro.obs.propagate import TraceContext, activate, current_trace
from repro.solver.telemetry import EventRecorder, Telemetry

T = TypeVar("T")
R = TypeVar("R")

__all__ = [
    "parallel_map",
    "default_workers",
    "current_telemetry",
    "in_parallel_worker",
    "serial_guard",
    "PARALLEL_DEPTH_ENV",
]

#: Process-local ambient hub installed while a captured task runs.
_ambient: Telemetry | None = None

#: Environment marker set in every parallel_map child process (alongside
#: ``REPRO_WORKERS``): its value is the nesting depth, and any nonzero
#: depth forces nested ``parallel_map`` calls to run serially.
PARALLEL_DEPTH_ENV = "REPRO_PARALLEL_DEPTH"

#: Thread-local nesting marker for in-process workers (service worker
#: threads run solves under :func:`serial_guard`).
_local = threading.local()


def _env_depth() -> int:
    try:
        return max(0, int(os.environ.get(PARALLEL_DEPTH_ENV, "0")))
    except ValueError:
        return 0


def in_parallel_worker() -> bool:
    """True inside a ``parallel_map`` child process or a :func:`serial_guard`.

    ``parallel_map`` checks this to refuse to fork again: a sweep whose
    task bodies themselves call ``parallel_map`` (or a planning-service
    worker running a solver that does) would otherwise multiply processes
    — ``workers ** depth`` of them — instead of doing work.
    """
    return getattr(_local, "depth", 0) > 0 or _env_depth() > 0


@contextmanager
def serial_guard():
    """Mark the current thread as a worker: nested ``parallel_map`` runs serial.

    Used by in-process worker pools (e.g. the planning service), whose
    parallelism budget is already spent on the pool itself.  Re-entrant,
    and scoped to the calling thread.
    """
    _local.depth = getattr(_local, "depth", 0) + 1
    try:
        yield
    finally:
        _local.depth -= 1


def _exit_with_owner(owner: int) -> None:
    """Worker watchdog: exit once the process that owns the pool is gone.

    Idle workers block on a queue whose write end they hold themselves,
    so they would outlive an owner that died without shutting its pool
    down (SIGKILL, ``os._exit`` in a forked child) and wait forever.
    """
    while os.getppid() == owner:
        time.sleep(0.5)
    os._exit(0)


def _child_init() -> None:
    """ProcessPoolExecutor initializer: stamp the child's nesting depth
    and start the watchdog that ends the worker with its owner."""
    os.environ[PARALLEL_DEPTH_ENV] = str(_env_depth() + 1)
    threading.Thread(target=_exit_with_owner, args=(os.getppid(),), daemon=True).start()


#: The shared executor and the ``(pid, n_workers)`` it was built for.
_executor: ProcessPoolExecutor | None = None
_executor_key: tuple[int, int] | None = None
_executor_lock = threading.Lock()


def _reset_lock_after_fork() -> None:
    # A fork taken while another thread held the lock must not leave the
    # child a lock that nobody will ever release.
    global _executor_lock
    _executor_lock = threading.Lock()


os.register_at_fork(after_in_child=_reset_lock_after_fork)


def _shared_executor(n_workers: int) -> ProcessPoolExecutor:
    """This process's executor for ``n_workers``, built on first use."""
    global _executor, _executor_key
    key = (os.getpid(), n_workers)
    with _executor_lock:
        if _executor_key != key:
            if _executor is not None and _executor_key[0] == key[0]:
                _executor.shutdown(wait=False)
            # An executor inherited across a fork belongs to the parent:
            # drop the reference without shutting it down.
            _executor = ProcessPoolExecutor(max_workers=n_workers, initializer=_child_init)
            _executor_key = key
        return _executor


def _pool_map(fn: Callable, items: list, n_workers: int, chunksize: int) -> list:
    """``pool.map`` on the shared executor; a broken pool is discarded."""
    global _executor, _executor_key
    pool = _shared_executor(n_workers)
    try:
        return list(pool.map(fn, items, chunksize=chunksize))
    except BrokenProcessPool:
        with _executor_lock:
            if _executor is pool:
                _executor, _executor_key = None, None
        pool.shutdown(wait=False)
        raise


def current_telemetry() -> Telemetry | None:
    """The hub for the task currently running under :func:`parallel_map`.

    ``None`` outside a telemetry-enabled ``parallel_map`` call (including
    always in the disabled path), so task bodies can unconditionally write
    ``run_fuzz(cfg, listener=current_telemetry())``.
    """
    return _ambient


def default_workers(cap: int = 8) -> int:
    """A sensible worker count: physical parallelism minus one, capped.

    The ``REPRO_WORKERS`` environment variable overrides the heuristic
    (still floored at 1): set ``REPRO_WORKERS=1`` to force every sweep
    serial — e.g. in CI containers whose advertised CPU count exceeds the
    actual quota — or a higher value to opt into more parallelism than the
    default cap allows.  Non-numeric values are ignored.
    """
    env = os.environ.get("REPRO_WORKERS")
    if env is not None:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    cpus = os.cpu_count() or 1
    return max(1, min(cap, cpus - 1))


#: Per-process epoch for ``worker_t`` timestamps: the monotonic clock at
#: this process's first captured task.  Each task gets a fresh capture hub
#: (whose clock restarts at zero), so timestamps are rebased onto this
#: epoch before travelling back — consecutive tasks on one worker then
#: carry one monotone in-worker timeline instead of restarting at zero.
_epoch: float | None = None


class _CapturedTask:
    """Picklable wrapper running ``fn`` under a capture hub.

    Returns ``(result, pid, events)`` where ``events`` is a list of
    ``(kind, t, data)`` tuples — everything plain so it survives the
    multiprocessing round-trip.  ``trace`` (the caller's ambient
    :class:`TraceContext`, pickled along) makes each task run under a
    child context; an unsampled context suppresses capture entirely.
    """

    __slots__ = ("fn", "trace")

    def __init__(self, fn: Callable, trace: TraceContext | None = None) -> None:
        self.fn = fn
        self.trace = trace

    def __call__(self, item):
        global _ambient, _epoch
        start = time.monotonic()
        if _epoch is None:
            _epoch = start
        child = self.trace.child() if self.trace is not None else None
        if child is not None and not child.sampled:
            # Sampling decided "no" at the trace root: run without any
            # capture hub so the worker pays nothing for telemetry.
            with activate(child):
                return self.fn(item), os.getpid(), []
        recorder = EventRecorder()
        hub = Telemetry(listeners=(recorder,))
        previous, _ambient = _ambient, hub
        try:
            with activate(child) if child is not None else nullcontext():
                result = self.fn(item)
        finally:
            _ambient = previous
        base = start - _epoch
        events = [(ev.kind, base + ev.t, ev.data) for ev in recorder.events]
        return result, os.getpid(), events


def _forward(telemetry: Telemetry, outputs, trace: TraceContext | None = None) -> list:
    """Re-emit captured worker events into the parent hub, in item order."""
    results = []
    worker_ids: dict[int, int] = {}
    for result, pid, events in outputs:
        worker = worker_ids.setdefault(pid, len(worker_ids))
        for kind, t, data in events:
            # Doubly-forwarded events (a task body that itself ran a serial
            # parallel_map) already carry worker tags; this hop's tags win.
            data = {k: v for k, v in data.items() if k not in ("worker", "worker_t")}
            if trace is not None:
                data.setdefault("trace_id", trace.trace_id)
            telemetry.emit(kind, worker=worker, worker_t=t, **data)
        results.append(result)
    return results


def parallel_map(
    fn: Callable[[T], R],
    items: Sequence[T] | Iterable[T],
    n_workers: int | None = None,
    chunksize: int | None = None,
    telemetry: Telemetry | None = None,
) -> list[R]:
    """Map ``fn`` over ``items``, preserving order.

    ``n_workers <= 1`` runs serially in-process (no pickling requirements);
    otherwise the process's shared :class:`ProcessPoolExecutor` is used
    (built on first use and reused across calls, see the module docstring),
    with a chunksize of roughly ``len(items) / (4 * workers)`` so scheduling
    overhead stays small relative to task cost.  If a worker dies
    mid-call, this call raises :class:`BrokenProcessPool` and the next call
    runs on a fresh pool.

    ``fn`` and the items must be picklable in the parallel path (module-level
    functions, plain data) — the usual multiprocessing contract.

    ``telemetry`` (optional) forwards events emitted by task bodies through
    :func:`current_telemetry` back into the given parent hub, tagged with a
    ``worker`` id — see the module docstring.  The ambient
    :class:`TraceContext` (if one is active) rides along: tasks run under
    child contexts and its sampling decision governs worker-side capture.
    """
    items = list(items)
    if n_workers is None:
        n_workers = default_workers()
    # Never spawn more processes than there are items: a 2-item sweep on an
    # 8-worker default would pay 6 process startups for nothing.
    n_workers = min(n_workers, len(items))
    # Never fork from inside a worker: a nested parallel_map (task body of
    # an outer sweep, or a solve running on a service worker thread) would
    # multiply processes geometrically instead of adding parallelism.
    if n_workers > 1 and in_parallel_worker():
        n_workers = 1
    trace = current_trace()
    if n_workers <= 1 or len(items) <= 1:
        if telemetry is None:
            return [fn(item) for item in items]
        task = _CapturedTask(fn, trace)
        return _forward(telemetry, [task(item) for item in items], trace)
    if chunksize is None:
        chunksize = max(1, len(items) // (4 * n_workers))
    if telemetry is None:
        return _pool_map(fn, items, n_workers, chunksize)
    task = _CapturedTask(fn, trace)
    outputs = _pool_map(task, items, n_workers, chunksize)
    return _forward(telemetry, outputs, trace)
