"""The no-planning baseline (Figure 10's comparison scheme).

Without planning, the ASP keeps an instance rented in every slot with
positive demand and generates exactly that slot's demand on the fly: no
inventory is carried, so no storage/IO cost accrues, but the full rental
cost is paid every active slot.  This is the natural "reactive" behaviour
of an elastic application that never looks ahead.
"""

from __future__ import annotations

import numpy as np

from repro.solver.result import SolverStatus

from .drrp import DRRPInstance, RentalPlan

__all__ = ["solve_noplan"]


def solve_noplan(instance: DRRPInstance) -> RentalPlan:
    """Evaluate the no-planning scheme on a DRRP instance.

    Initial storage (ε) is drawn down greedily before any generation, so the
    baseline is not charged for demand the inventory already covers: each
    slot generates its ε-netted demand, and only ε is ever held.  The plan
    is feasible, not optimal, so its status is ``FEASIBLE``.
    """
    need = instance.net_demand
    chi = (need > 1e-12).astype(float)
    alpha = np.where(chi > 0, need, 0.0)
    beta = instance.inventory(np.zeros(instance.horizon))
    return RentalPlan.priced(
        instance, alpha, beta, chi, status=SolverStatus.FEASIBLE, extra={"scheme": "no-plan"}
    )
