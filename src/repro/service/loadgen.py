"""Deterministic load generator / benchmark for the planning service.

Boots a real server (in-process, ephemeral port), drives a seeded mixed
workload through the real HTTP client from a small thread pool, and
writes a ``BENCH_service.json`` record next to the working directory
(override with ``REPRO_BENCH_DIR``, like the figure benches).

The workload is deterministic given the seed: ``requests`` submissions
over ``round(requests * (1 - duplicate_share))`` distinct instances —
a mix of DRRP shorthand jobs and small explicit SRRP trees — with the
duplicate positions and targets drawn from ``random.Random(seed)``.
Duplicates are what exercise the cache and the in-flight coalescer;
the bench asserts *measured* behaviour, so its record reports:

* throughput and end-to-end latency percentiles (p50/p99),
* cached-response p50 (submissions answered without a new solve),
* the exact server-side cache accounting (hits + coalesced vs misses),
* a saturation probe: a second service with ``workers=0`` and a tiny
  queue is slammed with async submissions and must answer 429 with a
  ``Retry-After`` header — backpressure, never a hang.

Stdlib-only imports; the serving process itself needs the solver stack.
"""

from __future__ import annotations

import random
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

from repro.serialize import write_bench_record

from .client import Saturated, ServiceClient
from .server import ServiceConfig, serve

__all__ = ["LoadgenConfig", "run_loadgen"]


@dataclass(frozen=True)
class LoadgenConfig:
    """One load-generator run (defaults match the acceptance workload)."""

    requests: int = 200
    duplicate_share: float = 0.3
    srrp_share: float = 0.2
    seed: int = 0
    horizon: int = 8
    srrp_horizon: int = 4
    backend: str = "auto"
    workers: int = 2
    queue_size: int = 64
    client_threads: int = 8
    wait_s: float = 60.0
    saturation_probes: int = 12
    out: str | None = "BENCH_service.json"

    def __post_init__(self) -> None:
        if self.requests < 1:
            raise ValueError("requests must be >= 1")
        if not 0.0 <= self.duplicate_share < 1.0:
            raise ValueError("duplicate_share must be in [0, 1)")


def _drrp_payload(i: int, cfg: LoadgenConfig, rng: random.Random) -> dict:
    vm = rng.choice(["c1.medium", "m1.large", "m1.xlarge"])
    return {
        "kind": "drrp",
        "vm": vm,
        "horizon": cfg.horizon,
        "seed": 10_000 + i,
        "demand_mean": round(rng.uniform(0.2, 0.6), 3),
        "demand_std": round(rng.uniform(0.05, 0.25), 3),
        "backend": cfg.backend,
    }


def _srrp_payload(i: int, cfg: LoadgenConfig, rng: random.Random) -> dict:
    T = cfg.srrp_horizon
    lo = round(rng.uniform(0.05, 0.15), 3)
    hi = round(lo + rng.uniform(0.1, 0.3), 3)
    p = round(rng.uniform(0.3, 0.7), 3)
    return {
        "kind": "srrp",
        "backend": cfg.backend,
        "instance": {
            "demand": [round(rng.uniform(0.1, 0.8), 3) for _ in range(T)],
            "costs": {
                "compute": [hi] * T,
                "storage": [0.0001] * T,
                "io": [0.2] * T,
                "transfer_in": [0.1] * T,
                "transfer_out": [0.17] * T,
            },
            "phi": 0.5,
            "vm_name": f"load-{i}",
            "tree": {
                "root_price": lo,
                "stages": [{"values": [lo, hi], "probs": [p, round(1 - p, 3)]}
                           for _ in range(T - 1)],
            },
        },
    }


def build_workload(cfg: LoadgenConfig) -> tuple[list[dict], int]:
    """The seeded request sequence; returns ``(payloads, n_unique)``.

    The first occurrence of each distinct instance appears before any of
    its duplicates, and duplicate positions are shuffled through the
    tail so cache hits and in-flight coalescing both occur.
    """
    rng = random.Random(cfg.seed)
    n_unique = max(1, round(cfg.requests * (1.0 - cfg.duplicate_share)))
    unique = [
        _srrp_payload(i, cfg, rng) if rng.random() < cfg.srrp_share
        else _drrp_payload(i, cfg, rng)
        for i in range(n_unique)
    ]
    payloads = list(unique)
    while len(payloads) < cfg.requests:
        payloads.append(unique[rng.randrange(n_unique)])
    tail = payloads[1:]
    rng.shuffle(tail)
    return [payloads[0]] + tail, n_unique


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted nonempty list."""
    idx = min(len(sorted_values) - 1, max(0, round(q * (len(sorted_values) - 1))))
    return sorted_values[idx]


def _latency_stats(samples_s: list[float]) -> dict:
    if not samples_s:
        return {"n": 0}
    ordered = sorted(samples_s)
    return {
        "n": len(ordered),
        "p50_ms": _percentile(ordered, 0.50) * 1e3,
        "p99_ms": _percentile(ordered, 0.99) * 1e3,
        "mean_ms": sum(ordered) / len(ordered) * 1e3,
        "max_ms": ordered[-1] * 1e3,
    }


def _saturation_probe(cfg: LoadgenConfig) -> dict:
    """Slam a workerless single-slot service: every overflow must get 429."""
    service, httpd = serve(
        port=0,
        config=ServiceConfig(workers=0, queue_size=1, default_time_limit=5.0),
        block=False,
    )
    client = ServiceClient(httpd.url, timeout=10.0)
    rejected = 0
    retry_after = None
    try:
        for i in range(cfg.saturation_probes):
            try:
                client.submit({"vm": "m1.large", "horizon": cfg.horizon,
                               "seed": 77_000 + i})
            except Saturated as exc:
                rejected += 1
                retry_after = exc.retry_after
    finally:
        client.close()
        httpd.shutdown()
        httpd.server_close()
        service.close()
    return {
        "probes": cfg.saturation_probes,
        "queue_size": 1,
        "rejected": rejected,
        "retry_after_s": retry_after,
    }


def run_loadgen(cfg: LoadgenConfig | None = None) -> dict:
    """Run the benchmark; returns (and optionally writes) the record."""
    cfg = cfg or LoadgenConfig()
    payloads, n_unique = build_workload(cfg)
    duplicates = cfg.requests - n_unique

    service, httpd = serve(
        port=0,
        config=ServiceConfig(workers=cfg.workers, queue_size=cfg.queue_size,
                             cache_size=max(2 * n_unique, 16)),
        block=False,
    )
    client = ServiceClient(httpd.url, timeout=max(cfg.wait_s, 10.0) + 30.0)
    latencies: list[float | None] = [None] * cfg.requests
    answered: list[bool] = [False] * cfg.requests
    hit_flags: list[bool] = [False] * cfg.requests

    def drive(i: int) -> None:
        t0 = time.perf_counter()
        result = client.solve(payloads[i], wait_s=cfg.wait_s)
        latencies[i] = time.perf_counter() - t0
        answered[i] = result.plan is not None
        hit_flags[i] = result.hit

    t_start = time.perf_counter()
    try:
        with ThreadPoolExecutor(max_workers=cfg.client_threads) as pool:
            list(pool.map(drive, range(cfg.requests)))
        elapsed = time.perf_counter() - t_start
        health = client.healthz()
        metrics = client.metrics()
    finally:
        client.close()
        httpd.shutdown()
        httpd.server_close()
        service.close()

    dropped = sum(1 for ok in answered if not ok)
    cache_hits = service.cache.hits
    coalesced = int(metrics.get("service_coalesced", {}).get("value", 0))
    shared = cache_hits + coalesced
    done = [lat for lat in latencies if lat is not None]
    hit_latencies = [lat for lat, hit in zip(latencies, hit_flags) if lat is not None and hit]

    record = {
        "name": "service",
        "config": asdict(cfg),
        "requests": cfg.requests,
        "unique_instances": n_unique,
        "duplicates": duplicates,
        "duplicate_share": duplicates / cfg.requests,
        "dropped": dropped,
        "elapsed_s": elapsed,
        "throughput_rps": cfg.requests / elapsed if elapsed > 0 else float("inf"),
        "latency": _latency_stats(done),
        "cached_latency": _latency_stats(hit_latencies),
        "cache": {
            "hits": cache_hits,
            "coalesced": coalesced,
            "misses": service.cache.misses,
            "shared": shared,
            "hit_rate": shared / cfg.requests,
            "size": health["cache"]["size"],
        },
        "jobs": health["jobs"],
        "saturation": _saturation_probe(cfg),
        "created": time.time(),
    }
    if cfg.out:
        record["path"] = str(write_bench_record(record, cfg.out))
    return record


def summary_line(record: dict) -> str:
    lat, cached, cache = record["latency"], record["cached_latency"], record["cache"]
    cached_p50 = f"{cached['p50_ms']:.1f}ms" if cached.get("n") else "-"
    return (
        f"service bench: {record['requests']} reqs "
        f"({record['duplicates']} dup) in {record['elapsed_s']:.2f}s "
        f"({record['throughput_rps']:.1f} rps) dropped={record['dropped']} "
        f"p50={lat['p50_ms']:.1f}ms p99={lat['p99_ms']:.1f}ms "
        f"cached_p50={cached_p50} "
        f"cache_hit_rate={cache['hit_rate']:.0%} "
        f"saturation_429={record['saturation']['rejected']}/{record['saturation']['probes']}"
    )
