"""SciPy loads only when a SciPy routine runs.

The fleet planner answers every tenant with the heuristic or an exact DP,
and the ``campaign-simplex`` campaigns run on the pure-Python stack, so a
process doing only that work must not import ``scipy.optimize``,
``scipy.signal`` or ``scipy.stats`` (together about a second of start-up
and tens of MB of memory).  A fresh interpreter is the only clean place
to look, since the pytest process itself has imported SciPy long before.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

SCRIPT = """
import sys
from repro.fleet import FleetConfig, generate_tenants, plan_fleet, uniform_pools
from repro.sim.engine import CampaignConfig, run_campaign
from repro.sim.horizon import HorizonConfig

tenants = generate_tenants(10, seed=2, horizon=24)
plan = plan_fleet(tenants, uniform_pools(tenants, utilization=0.6), FleetConfig(workers=1))
assert plan.feasible
assert any(o.escalated and o.knocked for o in plan.outcomes), "no knocked tenant escalated"
run_campaign(CampaignConfig(
    slots=24, seed=3, backend="simplex", policies=("rolling-drrp",),
    horizon=HorizonConfig(prediction=12, control=6, coarse_block=4),
))
loaded = [m for m in ("scipy.optimize", "scipy.signal", "scipy.stats") if m in sys.modules]
assert not loaded, loaded
"""


def test_fleet_and_campaign_load_no_scipy_submodule():
    src = str(Path(repro.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
