"""Performance benchmarks with committed JSON baselines.

``repro bench solver`` (:mod:`repro.bench.solver`) is the repo's first
perf baseline: seeded DRRP / random-MILP branch-and-bound runs and an
SRRP-style two-stage Benders solve, reporting node throughput,
pivots/solve, warm-hit rate, and wall time to ``BENCH_solver.json``.
``docs/performance.md`` explains the methodology.  Every family's
record (solver, fleet, sim, service) is gated by one table,
:data:`repro.bench.gates.GATES`, through :func:`check_record`.
"""

from .fleet import (
    FleetBenchConfig,
    fleet_summary_lines,
    run_fleet_bench,
)
from .gates import check_record
from .report import report_lines
from .solver import (
    SolverBenchConfig,
    run_solver_bench,
    summary_lines,
)

__all__ = [
    "FleetBenchConfig",
    "SolverBenchConfig",
    "check_record",
    "fleet_summary_lines",
    "report_lines",
    "run_fleet_bench",
    "run_solver_bench",
    "summary_lines",
]
