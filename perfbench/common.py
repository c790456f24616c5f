"""Measurement helpers shared by every workload: percentiles, failure
accounting, host speed, memory, the code digest and the result line.

Nothing here imports the program under test, so these helpers (and their
tests) work in a checkout that holds only the benchmark.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

#: Root of the checkout the benchmark runs in (``perfbench/..``).
ROOT = Path(__file__).resolve().parent.parent

#: Scratch state the benchmark keeps between runs (ignored by git).
STATE_DIR = ROOT / ".perfbench"


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated ``q`` quantile (``q`` in [0, 1]) of ``values``."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie strictly above the ``q`` quantile rank."""
    return n - 1 - math.floor(q * (n - 1))


def min_samples_for(q: float) -> int:
    """Smallest sample count for which ``q`` has ten samples beyond it."""
    n = 1
    while samples_beyond(n, q) < 10:
        n += 1
    return n


#: Median time of one :func:`host_kernel` call on the host the benchmark
#: was defined on (2 vCPUs, Python 3.11); timings are reported at that speed.
REFERENCE_KERNEL_S = 0.008

#: Shortest time between two host-speed samples of a timed pass.
SAMPLE_EVERY_S = 1.0


def host_kernel() -> None:
    """Fixed interpreter and numpy work that never touches the program."""
    import numpy as np

    counts: dict[int, int] = {}
    acc = 0
    for i in range(30_000):
        counts[i & 255] = counts.get(i & 255, 0) + i
        acc += (i * i) % 7
    a = np.arange(4096.0).reshape(64, 64)
    for _ in range(5):
        a = a @ a / 4096.0


class HostSpeed:
    """How fast the host runs, from :func:`host_kernel` timings.

    The benchmark shares its host with other tenants, and the host's speed
    drifts by up to a third over seconds to minutes.  A sample times the
    kernel three times, with garbage collection off, and keeps the median,
    so one interrupted kernel run does not count.  Samples are taken about
    once a second, so their mean follows the host's average speed over the
    pass, fast and slow phases in proportion.  ``slowdown`` is that mean
    over :data:`REFERENCE_KERNEL_S`; timings divided by it are the timings
    at the reference host speed.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.last = -math.inf

    def sample(self) -> float:
        """Take one sample; returns the seconds it took."""
        t0 = time.monotonic()
        enabled = gc.isenabled()
        gc.disable()
        try:
            times = []
            for _ in range(3):
                k0 = time.perf_counter()
                host_kernel()
                times.append(time.perf_counter() - k0)
        finally:
            if enabled:
                gc.enable()
        self.samples.append(statistics.median(times))
        self.last = time.monotonic()
        return self.last - t0

    def due(self) -> bool:
        return time.monotonic() - self.last >= SAMPLE_EVERY_S

    @property
    def slowdown(self) -> float:
        return statistics.fmean(self.samples) / REFERENCE_KERNEL_S


@dataclass
class Tally:
    """Operations attempted and failed; a refused, failed or wrong-output
    operation counts once as failed."""

    attempted: int = 0
    failed: int = 0
    reasons: dict[str, int] = field(default_factory=dict)

    def ok(self) -> None:
        self.attempted += 1

    def fail(self, reason: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.reasons[reason] = self.reasons.get(reason, 0) + 1

    def wrong(self, reason: str) -> None:
        """An operation already counted as attempted turned out wrong."""
        self.failed += 1
        self.reasons[reason] = self.reasons.get(reason, 0) + 1

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB; Linux reports
    ``ru_maxrss`` in KiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def server_trace_path(run_id: str) -> Path:
    """Where a traced server process writes its spans at exit."""
    return STATE_DIR / "tmp" / f"server-{run_id}.json"


def code_digest() -> str:
    """Digest of the program and benchmark sources (keys the count records)."""
    h = hashlib.sha256()
    for base in ("src", "perfbench"):
        for path in sorted((ROOT / base).rglob("*.py")):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def result_line(correct: bool, tally: Tally, metrics: dict[str, tuple[float, str]]) -> str:
    """The single JSON object every run ends its standard output with."""
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(tally.attempted),
        "failed": int(tally.failed),
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }, allow_nan=False)


def note(line: str) -> None:
    """Human-readable report line (standard output, before the result)."""
    print(line, flush=True)


def warn(line: str) -> None:
    print(line, file=sys.stderr, flush=True)
