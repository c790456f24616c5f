"""Budgeted differential fuzzing over the generator families.

:func:`run_fuzz` round-robins the seeded instance generators
(:mod:`repro.verify.generators`), and for every case

1. runs the family's differential cross-check (:mod:`repro.verify.oracle`),
2. certifies one primary solve with the exact checker
   (:mod:`repro.verify.certify`) or its plan/process-level counterparts,
3. on a divergence, shrinks the witness to a minimal reproducer and
   persists it as JSON under ``out_dir``.

The loop is budgeted by a :class:`~repro.solver.telemetry.Deadline` and a
case count — whichever runs out first — and reports through the same
telemetry listener API as the solvers (``fuzz_case`` per instance,
``fuzz_disagreement`` per divergence, one ``fuzz_summary``), so the CLI's
``--telemetry`` plumbing works unchanged.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.drrp import DRRPInstance, solve_drrp
from repro.core.lotsizing import DRRPInfeasible, solve_wagner_whitin
from repro.core.srrp import SRRPInstance, solve_srrp
from repro.solver.benders import TwoStageProblem, solve_benders
from repro.solver.interface import solve_compiled
from repro.solver.model import CompiledProblem
from repro.solver.result import SolverStatus
from repro.solver.scipy_backend import scipy_available
from repro.solver.telemetry import Deadline, Telemetry

from .audits import all_passed, audit_benders_cuts
from .certify import certify_drrp_plan, certify_result, certify_srrp_plan
from .generators import FAMILIES, GeneratedCase
from .oracle import Disagreement, cross_check_case, serialize_witness, shrink_disagreement

__all__ = ["FuzzConfig", "FuzzReport", "run_fuzz", "run_fuzz_parallel", "SMOKE_CASES"]

SMOKE_CASES = 240  # 24 per family (10 families); the smoke gate requires >= 200 certified


@dataclass
class FuzzConfig:
    """Knobs for one fuzz run; defaults match the CI smoke configuration."""

    seed: int = 0
    max_cases: int = SMOKE_CASES
    budget: float = math.inf            # wall-clock seconds for the whole run
    families: tuple[str, ...] = tuple(FAMILIES)
    out_dir: str | Path | None = None   # where shrunk reproducers are written
    tol: float = 1e-6
    shrink: bool = True
    max_shrink_evals: int = 120


@dataclass
class FuzzReport:
    """Tally of one fuzz run (see ``to_dict`` for the JSON shape)."""

    cases: int = 0
    certified: int = 0
    gap_violations: int = 0
    disagreements: list[Disagreement] = field(default_factory=list)
    by_family: dict[str, dict] = field(default_factory=dict)
    reproducer_files: list[str] = field(default_factory=list)
    elapsed: float = 0.0
    stopped_by: str = "cases"           # "cases" | "deadline"

    @property
    def ok(self) -> bool:
        return not self.disagreements and self.gap_violations == 0

    def to_dict(self) -> dict:
        return {
            "cases": self.cases,
            "certified": self.certified,
            "gap_violations": self.gap_violations,
            "disagreements": [
                {"family": d.family, "kind": d.kind, "detail": _jsonable(d.detail)}
                for d in self.disagreements
            ],
            "by_family": self.by_family,
            "reproducer_files": self.reproducer_files,
            "elapsed": self.elapsed,
            "stopped_by": self.stopped_by,
        }

    def summary_line(self) -> str:
        return (
            f"fuzz: cases={self.cases} certified={self.certified} "
            f"gap_violations={self.gap_violations} "
            f"disagreements={len(self.disagreements)} "
            f"elapsed={self.elapsed:.1f}s ({self.stopped_by})"
        )

    def digest_dict(self) -> dict:
        """The replay-stable view of a campaign, for run-manifest digests.

        Excludes wall-clock-dependent fields (``elapsed``, ``stopped_by``)
        and host-path-dependent ones (``reproducer_files``): two runs of
        the same seeded configuration digest identically iff they found
        the same verdicts.
        """
        return {
            "cases": self.cases,
            "certified": self.certified,
            "gap_violations": self.gap_violations,
            "by_family": self.by_family,
            "disagreements": [
                {"family": d.family, "kind": d.kind} for d in self.disagreements
            ],
        }


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def _certify_drrp(inst: DRRPInstance, optimum: float | None, tol: float) -> bool:
    """The MILP on an explicit backend, then ``auto``, each certified and
    held to ``optimum`` (or to the Wagner-Whitin DP where it is exact).

    "auto" answers an instance whose bottleneck never binds with the DP,
    which would make that reference compare the DP with itself; the MILP
    is the independent vote.  An instance with no plan must be infeasible
    on both paths, and is then certified by its structure: some net demand
    precedes every open slot.
    """
    backend = "scipy" if scipy_available() else "simplex"
    exact_dp = inst.open_slots is not None
    try:
        plan = solve_drrp(inst, backend=backend)
    except RuntimeError as exc:
        if not (exact_dp and "infeasible" in str(exc)):
            return False
        try:
            solve_drrp(inst, backend="auto")
        except DRRPInfeasible:
            first = int(np.nonzero(inst.net_demand > 1e-12)[0][0])
            return not inst.open_slots[: first + 1].any()
        return False
    reference = optimum
    if reference is None and exact_dp:
        reference = solve_wagner_whitin(inst).objective

    def matches(objective: float) -> bool:
        return reference is not None and abs(objective - reference) <= tol * (1 + abs(reference))

    certified = certify_drrp_plan(inst, plan, tol=tol).ok and matches(plan.objective)
    if exact_dp:
        auto = solve_drrp(inst, backend="auto")
        certified = certified and certify_drrp_plan(inst, auto, tol=tol).ok and matches(auto.objective)
    return bool(certified)


def _knocked(inst: DRRPInstance) -> DRRPInstance:
    """``inst`` with every third slot evicted (the knocked leg:
    ``apply_interruptions``' encoding, which ``auto`` answers with the
    masked DP).  The first knocked slot is the cheapest setup's index
    mod 3, so about a third of the cases lose slot 0, and those whose
    initial storage does not cover slot 0 become infeasible."""
    from repro.market.interruptions import InterruptionEvent, apply_interruptions

    first = int(np.argmin(inst.costs.compute)) % 3
    return apply_interruptions(inst, [
        InterruptionEvent(slot=t, spot_price=1.0, bid=0.0) for t in range(first, inst.horizon, 3)
    ])


def _certify_case(case: GeneratedCase, tol: float) -> tuple[bool, bool]:
    """(certified, gap_violation) for one primary solve of the case.

    Certification here means a *solver-independent* argument that the
    answer is right: an exact dual/Farkas certificate for LPs, the planted
    optimum for MILPs, plan-level exact feasibility plus an independent
    reference (Wagner-Whitin, planted policy) for DRRP/SRRP, and
    extensive-form agreement plus cut audits for two-stage problems.
    """
    inst = case.instance
    if isinstance(inst, CompiledProblem):
        backend = "scipy" if scipy_available() and not inst.integrality.any() else "simplex"
        res = solve_compiled(inst, backend=backend, use_presolve=False)
        report = certify_result(inst, res, tol=tol)
        if (
            backend != "simplex"
            and not report.ok
            and not report.rejected
            and res.status is SolverStatus.INFEASIBLE
        ):
            # HiGHS reports infeasibility without a Farkas ray; the simplex
            # backend exports one, turning "incomplete" into a real proof.
            res = solve_compiled(inst, backend="simplex", use_presolve=False)
            report = certify_result(inst, res, tol=tol)
        gap_bad = any("gap" in c.name for c in report.failures())
        if report.ok:
            return True, gap_bad
        if (
            not report.rejected
            and case.optimum is not None
            and res.status.has_solution
            and abs(res.objective - case.optimum) <= tol * (1 + abs(case.optimum))
        ):
            return True, gap_bad  # feasible + integral + matches the planted optimum
        return False, gap_bad
    if isinstance(inst, DRRPInstance):
        certified = _certify_drrp(inst, case.optimum, tol)
        if certified and inst.bottleneck_rate is None:
            certified = _certify_drrp(_knocked(inst), None, tol)
        return certified, False
    if isinstance(inst, TwoStageProblem):
        bd = solve_benders(inst)
        if not bd.status.has_solution:
            return False, False
        cuts_ok = all_passed(
            audit_benders_cuts(inst, bd.extra.get("cut_records", []), bd.extra.get("penalty", math.inf))
        )
        return cuts_ok, False
    if isinstance(inst, SRRPInstance):
        # As for DRRP: the MILP on an explicit backend, then the "auto"
        # tree DP, each certified and each held to the planted optimum.
        def certified_srrp(plan) -> bool:
            matches = case.optimum is None or abs(plan.expected_cost - case.optimum) <= tol * (1 + abs(case.optimum))
            return certify_srrp_plan(inst, plan, tol=tol).ok and matches

        milp = solve_srrp(inst, backend="scipy" if scipy_available() else "simplex")
        return certified_srrp(milp) and certified_srrp(solve_srrp(inst, backend="auto")), False
    from .generators import FleetPoolCase

    if isinstance(inst, FleetPoolCase):
        from repro.fleet import CapacityPool, FleetConfig, Tenant, plan_fleet

        tenants = [
            Tenant(tenant_id=i, name=f"fleet-{i}", vm_name=t.vm_name,
                   profile="planted", sla="premium", pool="shared", size=1.0,
                   instance=t)
            for i, t in enumerate(inst.tenants)
        ]
        pools = {"shared": CapacityPool(name="shared", capacity=inst.capacity)}
        fleet = plan_fleet(tenants, pools, FleetConfig(workers=1))
        # Solver-independent: every per-tenant plan re-certified exactly
        # against the instance it was solved for (knocked where trimmed),
        # pool caps re-checked, and the exact total must hit the planted
        # exchange-argument optimum.
        certified = not fleet.failures
        for outcome in fleet.outcomes:
            certified = certified and certify_drrp_plan(
                outcome.instance, outcome.plan, tol=tol
            ).ok
        if case.optimum is not None:
            certified = certified and abs(
                fleet.total_cost - case.optimum
            ) <= tol * (1 + abs(case.optimum))
        return bool(certified), False
    from repro.market.interruptions import BidDominanceCase, fixed_bid_outcome

    if isinstance(inst, BidDominanceCase):
        # Certification is the dominance inequality plus generator
        # consistency, both in exact Fractions (zero tolerance); the
        # analytic-vs-simulator bit-for-bit check runs in the oracle.
        lo = fixed_bid_outcome(inst, inst.bid_lo)
        hi = fixed_bid_outcome(inst, inst.bid_hi)
        certified = (
            hi.cost <= lo.cost
            and hi.interruptions <= lo.interruptions
            and (case.optimum is None or float(hi.cost) == case.optimum)
        )
        return certified, False
    return False, False


def run_fuzz(config: FuzzConfig | None = None, listener=None) -> FuzzReport:
    """Run one budgeted differential-fuzzing campaign."""
    cfg = config or FuzzConfig()
    unknown = set(cfg.families) - set(FAMILIES)
    if unknown:
        raise ValueError(f"unknown fuzz families: {sorted(unknown)}; expected {sorted(FAMILIES)}")
    telemetry = Telemetry.from_listener(listener)
    deadline = Deadline(cfg.budget)
    rng = np.random.default_rng(cfg.seed)
    report = FuzzReport()
    out_dir = Path(cfg.out_dir) if cfg.out_dir is not None else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)

    for family in cfg.families:
        report.by_family[family] = {"cases": 0, "certified": 0, "disagreements": 0}

    index = 0
    while index < cfg.max_cases:
        if deadline.expired():
            report.stopped_by = "deadline"
            break
        family = cfg.families[index % len(cfg.families)]
        case = FAMILIES[family](rng)
        disagreements = cross_check_case(case, tol=cfg.tol)
        certified, gap_bad = _certify_case(case, tol=cfg.tol)

        report.cases += 1
        fam = report.by_family[family]
        fam["cases"] += 1
        if certified:
            report.certified += 1
            fam["certified"] += 1
        if gap_bad:
            report.gap_violations += 1
        if telemetry:
            telemetry.emit(
                "fuzz_case", index=index, family=family,
                certified=certified, disagreements=len(disagreements),
            )

        for d in disagreements:
            fam["disagreements"] += 1
            if cfg.shrink:
                d = shrink_disagreement(d, tol=cfg.tol, max_evals=cfg.max_shrink_evals)
            path = None
            if out_dir is not None:
                path = out_dir / f"reproducer_{len(report.disagreements):03d}_{family}_{d.kind}.json"
                payload = {
                    "family": d.family,
                    "kind": d.kind,
                    "seed": cfg.seed,
                    "case_index": index,
                    "detail": _jsonable(d.detail),
                    "witness": serialize_witness(d.witness),
                    "shrunk": None if d.shrunk is None else serialize_witness(d.shrunk),
                }
                path.write_text(json.dumps(payload, indent=2))
                report.reproducer_files.append(str(path))
            report.disagreements.append(d)
            if telemetry:
                telemetry.emit(
                    "fuzz_disagreement", family=family, kind=d.kind,
                    reproducer=None if path is None else str(path),
                )
        index += 1

    report.elapsed = deadline.elapsed()
    if telemetry:
        telemetry.emit(
            "fuzz_summary",
            cases=report.cases, certified=report.certified,
            gap_violations=report.gap_violations,
            disagreements=len(report.disagreements),
            stopped_by=report.stopped_by,
        )
    return report


def _fuzz_shard(cfg: FuzzConfig) -> FuzzReport:
    """One worker's slice of a parallel campaign (module-level: picklable).

    Reports into the ambient per-worker hub installed by
    :func:`repro.parallel.parallel_map`, so shard events are forwarded to
    the parent listener tagged with their worker id.
    """
    from repro.parallel import current_telemetry

    return run_fuzz(cfg, listener=current_telemetry())


def merge_reports(reports) -> FuzzReport:
    """Fold shard reports into one campaign tally."""
    merged = FuzzReport()
    for rep in reports:
        merged.cases += rep.cases
        merged.certified += rep.certified
        merged.gap_violations += rep.gap_violations
        merged.disagreements.extend(rep.disagreements)
        merged.reproducer_files.extend(rep.reproducer_files)
        for family, tally in rep.by_family.items():
            into = merged.by_family.setdefault(
                family, {"cases": 0, "certified": 0, "disagreements": 0}
            )
            for key, val in tally.items():
                into[key] = into.get(key, 0) + val
        merged.elapsed = max(merged.elapsed, rep.elapsed)
        if rep.stopped_by == "deadline":
            merged.stopped_by = "deadline"
    return merged


def run_fuzz_parallel(
    config: FuzzConfig | None = None,
    n_workers: int | None = None,
    listener=None,
) -> FuzzReport:
    """Run one campaign sharded over worker processes.

    The case budget is split evenly across shards, each seeded from
    ``config.seed`` plus a distinct offset, so shards draw disjoint
    deterministic instance streams; the wall-clock budget applies to every
    shard (they run concurrently).  Reproducers land in per-shard
    subdirectories of ``config.out_dir``.  Events from every shard are
    forwarded to ``listener`` as one merged, worker-tagged stream.
    """
    from repro.parallel import default_workers, parallel_map

    cfg = config or FuzzConfig()
    if n_workers is None:
        n_workers = default_workers()
    n_shards = max(1, min(n_workers, cfg.max_cases))
    per_shard = cfg.max_cases // n_shards
    shards = []
    for i in range(n_shards):
        cases = per_shard + (1 if i < cfg.max_cases % n_shards else 0)
        if cases == 0:
            continue
        out_dir = None if cfg.out_dir is None else str(Path(cfg.out_dir) / f"shard_{i:02d}")
        shards.append(
            FuzzConfig(
                seed=cfg.seed + 7919 * i,
                max_cases=cases,
                budget=cfg.budget,
                families=cfg.families,
                out_dir=out_dir,
                tol=cfg.tol,
                shrink=cfg.shrink,
                max_shrink_evals=cfg.max_shrink_evals,
            )
        )
    telemetry = Telemetry.from_listener(listener)
    reports = parallel_map(_fuzz_shard, shards, n_workers=n_workers, telemetry=telemetry)
    merged = merge_reports(reports)
    if telemetry:
        telemetry.emit(
            "fuzz_summary",
            cases=merged.cases, certified=merged.certified,
            gap_violations=merged.gap_violations,
            disagreements=len(merged.disagreements),
            stopped_by=merged.stopped_by, shards=len(shards),
        )
    return merged
