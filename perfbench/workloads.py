"""The three workloads: seeded inputs, one timed pass, output checks.

Every workload drives a user-facing entry point of the program:

* ``fleet`` — :func:`repro.fleet.planner.plan_fleet` over seeded fleets;
* ``campaign-simplex`` — :func:`repro.sim.engine.run_campaign` with the
  rolling DRRP planner on the pure-Python solver stack;
* ``service`` — ``POST /v1/plan`` against a ``repro serve`` process, from
  a closed loop of client threads.

A pass either runs for a time budget (untraced runs) or over a fixed
number of work units (traced runs, so its counts repeat exactly).  The
program only ever sees the generated inputs; the seed stays here.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import random
import select
import subprocess
import sys
import threading
import traceback
from dataclasses import dataclass, field, replace

from common import ROOT, HostSpeed, Tally, server_trace_path, warn
from tracing import Tracer, clock

#: Client threads of the service loop (``repro serve`` also runs 2 workers).
CLIENT_THREADS = 2

#: Service request mix: share of requests that repeat an earlier instance,
#: share of distinct instances that are SRRP trees (the rest are DRRP), and
#: the planning horizons of each.
DUPLICATE_SHARE = 0.3
SRRP_SHARE = 0.2
DRRP_HORIZON = 24
SRRP_HORIZON = 4

#: Longest wait for a starting server (the run as a whole must end in 180 s).
BOOT_TIMEOUT_S = 60

#: Worker processes that compute reference answers after a timed pass.
CHECK_WORKERS = 2

#: HiGHS's default relative MIP gap, which ``backend="auto"`` solves with,
#: and the absolute tolerance of cost comparisons.
MIP_GAP = 1e-4
TOL = 1e-9

#: How far (relative) below the exact optimum a HiGHS answer may come.
#: HiGHS accepts points that break a constraint within its feasibility
#: tolerances; one such DRRP plan under-served a slot's demand by 1e-6
#: and cost 2.4e-7 less than the optimum.  A tenth of the MIP gap.
FEASIBILITY_SLACK = 1e-5


#: Work-unit index of the small warm-up input each set-up plans.
WARM_UP = 65_535


def sub_seed(seed: int, k: int) -> int:
    """Seed of the ``k``-th work unit of a run seeded with ``seed``."""
    return seed * 65_536 + k


@dataclass
class Pass:
    """What one timed pass did and measured."""

    wall_s: float = 0.0
    units: int = 0
    scored: int = 0  # leading work units the cost ratio covers
    latencies_ms: list[float] = field(default_factory=list)
    tally: Tally = field(default_factory=Tally)
    cost: float = 0.0
    reference: float = 0.0
    windows: dict = field(default_factory=dict)
    props: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)
    host: HostSpeed | None = None  # sampled between units of timed passes

    @property
    def cost_ratio(self) -> float:
        return self.cost / self.reference if self.reference else 0.0


def _keep_going(done: int, elapsed: float, units: int | None, seconds: float | None,
                min_units: int) -> bool:
    """Fixed passes run ``units``; timed ones run ``seconds`` and at least
    ``min_units``, whose prefix is what the cost ratio scores."""
    if units is not None:
        return done < units
    return elapsed < seconds or done < min_units


def forked_map(fn, items: list) -> list:
    """``fn`` over ``items`` in two forked workers (output checks only, after
    the timed pass; the references are independent solves).

    Forked workers inherit the imported solver stack, which a fresh
    interpreter would spend seconds importing; forking is only safe with no
    other thread alive, so otherwise the items run here, one by one."""
    if threading.active_count() > 1:
        return [fn(item) for item in items]
    if not items:
        return []
    pool = multiprocessing.get_context("fork").Pool(min(CHECK_WORKERS, len(items)))
    try:
        return pool.map(fn, items)
    finally:
        pool.close()
        pool.join()


def _compile_since(before: dict, p: Pass) -> None:
    """Record the compile-cache counters of the pass and its shape-hit share."""
    from repro.solver import compile_cache_stats

    after = compile_cache_stats()
    compile = {k: after[k] - before[k] for k in after}
    structural = compile["shape_hits"] + compile["full_builds"]
    p.extra["compile"] = compile
    p.props["shape_hit_share"] = compile["shape_hits"] / structural if structural else 0.0


def _src_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def import_probe(modules: tuple[str, ...]) -> float:
    """Wall seconds a fresh interpreter needs to import ``modules``."""
    t0 = clock()
    subprocess.run([sys.executable, "-c", "import " + ", ".join(modules)],
                   check=True, env=_src_env(), cwd=ROOT)
    return clock() - t0


# -- fleet ------------------------------------------------------------------


class Fleet:
    name = "fleet"
    unit = "tenant"
    latency_of = "tenant plan (heuristic, plus the MILP when escalated)"
    imports = ("repro.fleet.planner", "repro.solver.interface")
    tenants = 10
    horizon = 24
    utilization = 0.6
    min_units = 40
    traced_units = 24
    pregenerated = 48

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.inputs: list = []

    def generate(self, k: int):
        from repro.fleet import generate_tenants, uniform_pools

        tenants = generate_tenants(self.tenants, seed=sub_seed(self.seed, k),
                                   horizon=self.horizon)
        return tenants, uniform_pools(tenants, utilization=self.utilization)

    def setup(self) -> None:
        from repro.fleet import FleetConfig, generate_tenants, plan_fleet, uniform_pools
        from repro.solver import reset_compile_cache

        self.inputs = [self.generate(k) for k in range(self.pregenerated)]
        # Warm-up: first-call costs are paid once per process, not per plan.
        tenants = generate_tenants(4, seed=sub_seed(self.seed, WARM_UP), horizon=self.horizon)
        plan_fleet(tenants, uniform_pools(tenants), FleetConfig(workers=1, backend="auto"))
        reset_compile_cache()

    def close(self) -> None:
        pass

    def run(self, units=None, seconds=None, tracer: Tracer | None = None) -> Pass:
        from repro.fleet import FleetConfig, planner
        from repro.solver import compile_cache_stats

        config = FleetConfig(workers=1, backend="auto")
        p = Pass(scored=units or self.min_units, host=HostSpeed() if seconds else None)
        plan_tenant = planner._plan_tenant

        def timed_plan_tenant(item):
            t0 = clock()
            out = plan_tenant(item)
            p.latencies_ms.append((clock() - t0) * 1e3)
            return out

        before = compile_cache_stats()
        plans = []
        planner._plan_tenant = timed_plan_tenant
        start = clock()
        try:
            while _keep_going(len(plans), p.wall_s, units, seconds, self.min_units):
                k = len(plans)
                while k >= len(self.inputs):  # outside every unit's timing
                    self.inputs.append(self.generate(len(self.inputs)))
                tenants, pools = self.inputs[k]
                if p.host is not None and p.host.due():
                    p.host.sample()
                t0 = clock()
                try:
                    plan = planner.plan_fleet(tenants, pools, config)
                except Exception as exc:  # noqa: BLE001 - counted, never dropped
                    warn(traceback.format_exc())
                    plan = exc
                p.wall_s += clock() - t0
                plans.append(plan)
        finally:
            end = clock()
            planner._plan_tenant = plan_tenant
        p.windows = {tracer.lane() if tracer else "main": (start, end)}
        _compile_since(before, p)
        p.extra["plans"] = plans
        p.extra["tenants"] = len(plans) * self.tenants
        p.units = p.extra["tenants"]
        return p

    def check(self, p: Pass) -> None:
        """Feasible against every pool; cost at least the sum of the
        tenants' uncapacitated Wagner–Whitin optima."""
        from repro.core.lotsizing import solve_wagner_whitin
        from repro.fleet import verify_fleet_feasible

        rounds = escalated = 0
        for k, ((tenants, pools), plan) in enumerate(zip(self.inputs, p.extra.pop("plans"))):
            n = len(tenants)
            if isinstance(plan, Exception):
                for _ in range(n):
                    p.tally.fail(f"plan_fleet raised {type(plan).__name__}")
                continue
            lower = sum(float(solve_wagner_whitin(t.instance).objective) for t in tenants)
            failures = verify_fleet_feasible(tenants, plan.outcomes, pools)
            if failures or not plan.feasible or len(plan.outcomes) != n:
                reason = "infeasible fleet plan"
            elif plan.total_cost < lower * (1 - 1e-9):
                reason = "fleet cost below its lower bound"
            else:
                reason = None
            for _ in range(n):
                p.tally.fail(reason) if reason else p.tally.ok()
            if k < p.scored:
                p.cost += plan.total_cost
                p.reference += lower
            rounds += plan.repair_rounds
            escalated += plan.escalated
        p.extra["repair_rounds"] = rounds
        p.props["escalated_share"] = escalated / p.units if p.units else 0.0


# -- campaign-simplex -------------------------------------------------------


class CampaignSimplex:
    name = "campaign-simplex"
    unit = "replan"
    latency_of = "replan (decide call that replanned)"
    imports = ("repro.sim.engine", "repro.solver.interface")
    slots = 144
    prediction = 48
    control = 6
    coarse_block = 4
    min_units = 8
    traced_units = 4

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.configs: list = []
        self.references: dict[int, tuple] = {}  # unit -> (demand, clairvoyant cost)

    def config(self, k: int):
        from repro.sim.engine import CampaignConfig
        from repro.sim.horizon import HorizonConfig

        return CampaignConfig(
            slots=self.slots, seed=sub_seed(self.seed, k),
            horizon=HorizonConfig(prediction=self.prediction, control=self.control,
                                  coarse_block=self.coarse_block),
            backend="simplex", policies=("rolling-drrp",),
        )

    def setup(self) -> None:
        from repro.sim.engine import run_campaign
        from repro.solver import reset_compile_cache

        run_campaign(replace(self.config(WARM_UP), slots=12))  # warm-up, as for fleet
        reset_compile_cache()

    def close(self) -> None:
        pass

    def run(self, units=None, seconds=None, tracer: Tracer | None = None) -> Pass:
        from repro.sim import engine, policies
        from repro.solver import compile_cache_stats

        p = Pass(scored=units or self.min_units, host=HostSpeed() if seconds else None)
        replan_ms: list[float] = []
        decide = policies.RollingHorizonPolicy.decide

        def timed_decide(self, ctx):
            before = self.replans
            t0 = clock()
            out = decide(self, ctx)
            if self.replans != before:
                replan_ms.append((clock() - t0) * 1e3)
            return out

        results = []
        before = compile_cache_stats()
        policies.RollingHorizonPolicy.decide = timed_decide
        start = clock()
        try:
            while _keep_going(len(results), p.wall_s, units, seconds, self.min_units):
                k = len(results)
                while k >= len(self.configs):
                    self.configs.append(self.config(len(self.configs)))
                if p.host is not None and p.host.due():
                    p.host.sample()
                t0 = clock()
                try:
                    result = engine.run_campaign(self.configs[k])
                except Exception as exc:  # noqa: BLE001 - counted, never dropped
                    warn(traceback.format_exc())
                    result = exc
                p.wall_s += clock() - t0
                results.append(result)
        finally:
            end = clock()
            policies.RollingHorizonPolicy.decide = decide
        p.windows = {tracer.lane() if tracer else "main": (start, end)}
        _compile_since(before, p)
        p.latencies_ms = replan_ms
        p.units = len(replan_ms)
        p.extra["results"] = results
        return p

    def check(self, p: Pass) -> None:
        """Demand met in every slot by the policy itself (no simulator
        top-ups); realized cost scored against the clairvoyant plan, which
        is solved with ``backend="auto"`` here, outside the timed pass."""
        import numpy as np

        results = p.extra.pop("results")
        missing = [k for k in range(len(results)) if k not in self.references]
        self.references.update(zip(
            missing, forked_map(_campaign_reference, [self.configs[k] for k in missing])))
        for k, result in enumerate(results):
            demand, oracle = self.references[k]
            if isinstance(result, Exception):
                p.tally.fail(f"run_campaign raised {type(result).__name__}")
                continue
            outcome = result.outcomes["rolling-drrp"]
            res = outcome.result
            entering = np.concatenate([[0.0], res.inventory[:-1]])
            met = bool(np.all(entering + res.generated >= demand - 1e-9))
            reason = None
            if res.forced_topups or not met:
                reason = "demand not met by the policy"
            elif outcome.replans < 1:
                reason = "no replans"
            for _ in range(max(outcome.replans, 1)):
                p.tally.fail(reason) if reason else p.tally.ok()
            if k < p.scored:
                p.cost += res.total_cost
                p.reference += oracle


def _campaign_reference(config) -> tuple:
    """A campaign's demand and its clairvoyant cost (``backend="auto"``)."""
    from repro.sim.engine import build_inputs, run_campaign

    oracle = run_campaign(replace(config, backend="auto", policies=("oracle",)))
    return build_inputs(config).demand, oracle.outcomes["oracle"].result.total_cost


# -- service ----------------------------------------------------------------


VMS = ("c1.medium", "m1.large", "m1.xlarge")


def service_requests(seed: int, count: int) -> tuple[list[dict], list[int]]:
    """Seeded request sequence and the distinct-instance id of each entry.

    A duplicate repeats an earlier instance: half the time one of the last
    three (so it can still be in flight and coalesce), otherwise any.  SRRP
    trees are the service load generator's own.
    """
    from repro.service.loadgen import LoadgenConfig, _srrp_payload

    srrp = LoadgenConfig(srrp_horizon=SRRP_HORIZON, backend="auto")
    rng = random.Random(seed)
    uniques: list[dict] = []
    payloads: list[dict] = []
    ids: list[int] = []
    for _ in range(count):
        if uniques and rng.random() < DUPLICATE_SHARE:
            recent = rng.random() < 0.5
            uid = (len(uniques) - 1 - rng.randrange(min(3, len(uniques))) if recent
                   else rng.randrange(len(uniques)))
        else:
            uid = len(uniques)
            if rng.random() < SRRP_SHARE:
                uniques.append(_srrp_payload(uid, srrp, rng))
            else:
                uniques.append({
                    "kind": "drrp", "vm": rng.choice(VMS), "horizon": DRRP_HORIZON,
                    "seed": rng.randrange(2**31),
                    "demand_mean": round(rng.uniform(0.2, 0.6), 3),
                    "demand_std": round(rng.uniform(0.05, 0.25), 3),
                    "backend": "auto",
                })
        payloads.append(uniques[uid])
        ids.append(uid)
    return payloads, ids


def _optimum(payload: dict) -> float:
    """Optimal objective of one request, solved directly with the library.

    The generated DRRP requests are uncapacitated, where Wagner–Whitin is
    exact and takes milliseconds instead of a MILP solve's ~0.1 s."""
    from repro.core import solve_srrp
    from repro.core.lotsizing import solve_wagner_whitin
    from repro.service.encoding import build_instance, normalize_request

    request = normalize_request(payload)
    instance = build_instance(request)
    if request["kind"] == "drrp":
        if instance.bottleneck_rate is not None:
            raise ValueError("Wagner–Whitin is exact only for uncapacitated DRRP")
        return float(solve_wagner_whitin(instance).total_cost)
    return float(solve_srrp(instance, backend="auto").expected_cost)


class Server:
    """A ``perfbench/launcher.py`` process serving the planning API; traced
    when given a run id (its spans then go to ``trace_path``)."""

    def __init__(self, run_id: str | None = None) -> None:
        cmd = [sys.executable, str(ROOT / "perfbench" / "launcher.py")]
        if run_id is not None:
            cmd += ["--trace", run_id]
            self.trace_path = server_trace_path(run_id)
        self.peak_rss_mb: float | None = None
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True, env=_src_env(), cwd=ROOT)
        ready, _, _ = select.select([self.proc.stdout], [], [], BOOT_TIMEOUT_S)
        line = self.proc.stdout.readline().split() if ready else []
        if len(line) != 2 or line[0] != "READY":
            self.proc.kill()
            self.stop()
            raise RuntimeError("the planning server did not start")
        self.url = line[1]

    def stop(self) -> None:
        """Stop the server, wait for it, and keep the peak resident memory
        it reports at exit in ``peak_rss_mb``."""
        if self.proc.returncode is not None:
            return
        try:
            out, _ = self.proc.communicate("stop\n", timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            out, _ = self.proc.communicate()
        for line in out.splitlines():
            if line.startswith("PEAK_RSS_MB "):
                self.peak_rss_mb = float(line.split()[1])


#: What ``next_index`` returns when the client threads should sample the host.
PAUSE = -1


class Service:
    name = "service"
    unit = "request"
    latency_of = "POST /v1/plan round trip"
    imports = ("repro.service.client",)
    min_units = 100
    traced_units = 240
    planned = 4000

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.payloads: list[dict] = []
        self.ids: list[int] = []
        self.server: Server | None = None
        self.server_rss_mb: float | None = None  # of the last server stopped
        self.reference: dict[int, float] = {}  # distinct-instance id -> optimum

    def setup(self) -> None:
        import repro.service.client  # noqa: F401

        self.payloads, self.ids = service_requests(self.seed, self.planned)
        if self.server is not None:
            self.server.stop()
        self.server = Server()

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server_rss_mb = self.server.peak_rss_mb
            self.server = None

    def run(self, units=None, seconds=None, tracer: Tracer | None = None,
            server: Server | None = None) -> Pass:
        from repro.obs.propagate import TraceContext, activate
        from repro.service.client import Saturated, ServiceClient, ServiceError

        server = server or self.server
        client = ServiceClient(server.url, timeout=120.0)
        p = Pass(scored=units or self.min_units, host=HostSpeed() if seconds else None)
        answers: dict[int, tuple] = {}
        lock = threading.Lock()
        cursor = [0]
        stop_sampling = [False]  # set when the pass ends or the threads fail to meet
        paused = [0.0]  # seconds spent sampling the host, not part of the pass

        def sample_host() -> None:
            paused[0] += p.host.sample()

        # The host is sampled only once every client thread is waiting here,
        # so no request is in flight and the server is idle.
        barrier = threading.Barrier(CLIENT_THREADS, action=sample_host, timeout=60)
        t_start = clock()

        def next_index() -> int | None:
            with lock:
                if p.host is not None and not stop_sampling[0] and p.host.due():
                    return PAUSE
                i = cursor[0]
                if i >= len(self.payloads) or not _keep_going(
                        i, clock() - t_start - paused[0], units, seconds, self.min_units):
                    stop_sampling[0] = True
                    return None
                cursor[0] = i + 1
                return i

        def loop() -> None:
            lane = tracer.lane() if tracer else None
            w0 = clock()
            while (i := next_index()) is not None:
                if i == PAUSE:
                    try:
                        barrier.wait()
                    except threading.BrokenBarrierError:
                        with lock:
                            stop_sampling[0] = True
                            p.tally.fail("client threads did not meet to sample the host")
                    continue
                ctx = TraceContext.new_root() if tracer else None
                t0 = clock()
                try:
                    if tracer:
                        with tracer.span("service.client", "request", sid=ctx.span_id), \
                                activate(ctx):
                            result = client.solve(self.payloads[i])
                    else:
                        result = client.solve(self.payloads[i])
                    outcome = ("ok", result)
                except Saturated:
                    outcome = ("refused", None)
                except ServiceError as exc:
                    outcome = (f"HTTP {exc.status}", None)
                except Exception as exc:  # noqa: BLE001 - counted, never dropped
                    warn(traceback.format_exc())
                    outcome = (type(exc).__name__, None)
                answers[i] = (clock() - t0, *outcome)
            if tracer:
                with lock:
                    p.windows[lane] = (w0, clock())

        threads = [threading.Thread(target=loop) for _ in range(CLIENT_THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        p.wall_s = clock() - t_start - paused[0]
        metrics = client.metrics()
        p.extra["coalesced"] = int(metrics.get("service_coalesced", {}).get("value", 0))
        p.extra["answers"] = answers
        p.units = len(answers)
        p.latencies_ms = [a[0] * 1e3 for a in answers.values() if a[1] == "ok"]
        served = [a[2] for a in answers.values() if a[1] == "ok"]
        seen: set[int] = set()
        dups = 0
        for i in range(p.units):  # the loop consumes a prefix of the sequence
            dups += self.ids[i] in seen
            seen.add(self.ids[i])
        p.props["duplicate_share"] = dups / p.units if p.units else 0.0
        p.props["cache_hit_share"] = (sum(1 for r in served if r.cached) / p.units
                                      if p.units else 0.0)
        p.props["coalesced"] = p.extra["coalesced"]
        p.extra["rejected"] = sum(1 for a in answers.values() if a[1] == "refused")
        p.extra["http_overhead_ms"] = [
            (a[0] - a[2].latency_s) * 1e3 for a in answers.values()
            if a[1] == "ok" and not a[2].coalesced and a[2].latency_s is not None
        ]
        return p

    def check(self, p: Pass) -> None:
        """Every answer's objective matches a direct library solve of the same
        normalized request (see :func:`_optimum`); every repeat returns the
        first answer's plan, solver telemetry aside."""
        import repro.core  # noqa: F401 - imported once, before the workers fork
        import repro.service.encoding  # noqa: F401

        answers = p.extra.pop("answers")
        todo = {self.ids[i]: self.payloads[i] for i in answers
                if self.ids[i] not in self.reference}
        self.reference.update(zip(todo, forked_map(_optimum, list(todo.values()))))
        first: dict[int, dict] = {}
        gaps: list[bool] = []
        for i in sorted(answers):
            latency, status, result = answers[i]
            if status != "ok":
                p.tally.fail("refused" if status == "refused" else status)
                continue
            p.tally.ok()
            plan, uid = result.plan, self.ids[i]
            key = "total_cost" if self.payloads[i].get("kind") == "drrp" else "expected_cost"
            value, solved = ((plan.get(key), plan.get("status")) if isinstance(plan, dict)
                             else (None, None))
            ref = self.reference[uid]
            # "optimal" from HiGHS means within its relative MIP gap.
            if (value is None or solved != "optimal"
                    or not ref * (1 - FEASIBILITY_SLACK) - TOL
                    <= value <= ref * (1 + MIP_GAP) + TOL):
                p.tally.wrong("objective differs from the in-process solve")
                warn(f"service: request {i} {json.dumps(self.payloads[i])}: "
                     f"status {solved!r}, objective {value!r}, exact {ref!r}")
                continue
            if uid not in first:
                gaps.append(value - ref > TOL)
            # A repeat served after the plan cache evicted its instance is
            # solved again; only the solver telemetry ("solve") may differ.
            body = {k: v for k, v in plan.items() if k != "solve"}
            if uid in first and first[uid] != body:
                p.tally.wrong("repeat returned a different plan")
                warn(f"service: request {i} {json.dumps(self.payloads[i])}: "
                     f"plan differs from the first answer's")
                continue
            first.setdefault(uid, body)
            if i < p.scored:
                p.cost += value
                p.reference += ref
        p.props["suboptimal_share"] = sum(gaps) / len(gaps) if gaps else 0.0


WORKLOADS = {w.name: w for w in (Fleet, CampaignSimplex, Service)}

