"""Deterministic Resource Rental Planning — the paper's DRRP model (§III).

The MILP, for one VM class (the problem is separable across classes, and
the paper plans per instance):

    min  Σ_t [ C+f(t)·Φ·α_t  +  (Cs(t)+Cio(t))·β_t  +  C−f(t)·D(t)  +  Cp(t)·χ_t ]
    s.t. β_{t-1} + α_t − β_t = D(t)          (inventory balance, eq. 2)
         P·α_t ≤ Q(t)                        (bottleneck, eq. 3; optional)
         α_t ≤ B·χ_t                         (forcing, eq. 4)
         β_0 = ε                             (initial inventory, eq. 5)
         α, β ≥ 0, χ ∈ {0,1}                 (eqs. 6–7)

``α_t`` is the data generated in slot ``t``, ``β_t`` the inventory at the
end of ``t``, ``χ_t`` the rental decision.  This is the dynamic lot-sizing
structure the paper points out: χ = setup, α = production, β = inventory.

``B`` defaults to the tightest valid bound, total remaining demand — a
*much* stronger forcing constraint than an arbitrary big-M, which keeps the
LP relaxation tight and branch-and-bound shallow.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.solver import LinExpr, Model, SolverStatus, lin_sum, solve
from .costs import CostSchedule

__all__ = ["DRRPInstance", "RentalPlan", "build_drrp_model", "solve_drrp"]

#: Stock at or below this is treated as used up by :func:`net_demand`.
_NET_EPS = 1e-12


def net_demand(demand: np.ndarray, initial_storage: float) -> np.ndarray:
    """Per-slot demand left after ε is consumed greedily from the front.

    This is the standard netting transformation: holding costs are
    nonnegative, so consuming ε against the earliest demand is optimal, and
    it leaves a zero-initial-inventory problem on the net demands.
    """
    net = np.asarray(demand, dtype=float).copy()
    carry = initial_storage
    for t in range(net.shape[0]):
        if carry <= _NET_EPS:
            break
        used = min(carry, net[t])
        net[t] -= used
        carry -= used
    return net


def slot_forcing_bounds(demand: np.ndarray) -> np.ndarray:
    """B_t of the forcing rows: the total demand from slot t on.

    No optimal plan generates more in slot t than the demand still ahead of
    it.  Far tighter than one global big-M (the LP relaxation's fractional
    χ values scale as α/B, so a loose B makes branch-and-bound explore
    thousands of nodes on 24 h instances).  Floored at 1e-9 so a zero-demand
    tail keeps a well-formed row.
    """
    return np.maximum(np.cumsum(demand[::-1])[::-1], 1e-9)


@dataclass(frozen=True)
class DRRPInstance:
    """One per-instance planning problem.

    Attributes
    ----------
    demand:
        D(t): requested data volume per slot (GB).
    costs:
        Cost schedule over the same horizon.
    phi:
        Φ, the application's average input/output ratio (input data fetched
        per GB generated).
    initial_storage:
        ε of eq. (5).
    bottleneck_rate / bottleneck_capacity:
        P and Q(t) of eq. (3); ``None`` omits the constraint, as §V-A does
        ("the VMs are able to offer sufficient resources").
    vm_name:
        Label carried through to plans and reports.
    """

    demand: np.ndarray
    costs: CostSchedule
    phi: float = 0.5
    initial_storage: float = 0.0
    bottleneck_rate: float | None = None
    bottleneck_capacity: np.ndarray | None = None
    vm_name: str = "vm"

    def __post_init__(self) -> None:
        demand = np.asarray(self.demand, dtype=float)
        object.__setattr__(self, "demand", demand)
        if demand.ndim != 1 or demand.size == 0:
            raise ValueError("demand must be a nonempty 1-D array")
        if np.any(demand < 0):
            raise ValueError("demand must be nonnegative")
        if demand.shape[0] != self.costs.horizon:
            raise ValueError(
                f"demand length {demand.shape[0]} != cost horizon {self.costs.horizon}"
            )
        if self.phi < 0:
            raise ValueError("phi must be nonnegative")
        if self.initial_storage < 0:
            raise ValueError("initial storage must be nonnegative")
        if (self.bottleneck_rate is None) != (self.bottleneck_capacity is None):
            raise ValueError("bottleneck rate and capacity must be given together")
        if self.bottleneck_capacity is not None:
            cap = np.asarray(self.bottleneck_capacity, dtype=float)
            object.__setattr__(self, "bottleneck_capacity", cap)
            if cap.shape != demand.shape:
                raise ValueError("bottleneck capacity must match the horizon")

    @property
    def horizon(self) -> int:
        return self.demand.shape[0]

    @property
    def forcing_bound(self) -> float:
        """Tightest valid B: no slot ever generates more than total unmet demand."""
        return float(max(self.demand.sum() - self.initial_storage, 0.0)) or 1.0

    @property
    def forcing_bounds(self) -> np.ndarray:
        """Per-slot B_t of the forcing rows (see :func:`slot_forcing_bounds`)."""
        return slot_forcing_bounds(self.demand)

    @property
    def net_demand(self) -> np.ndarray:
        """Per-slot demand left once ε is consumed (see :func:`net_demand`)."""
        return net_demand(self.demand, self.initial_storage)

    @property
    def open_slots(self) -> np.ndarray | None:
        """Slots where generation is unconstrained, or ``None`` when the
        bottleneck can bind.

        Without a bottleneck every slot is open.  With one (rate P > 0), a
        slot of capacity 0 is closed and a slot of capacity at least
        P·Σ net demand is open: an optimal plan that sets up only in open
        slots never generates more than the net demand, so the row cannot
        bind there.  Pool repair (``repro.fleet``) and
        :func:`repro.market.interruptions.apply_interruptions` knock slots
        out this way.  Any capacity in between, or P ≤ 0, returns ``None``.
        """
        if self.bottleneck_rate is None:
            return np.ones(self.horizon, dtype=bool)
        rate = float(self.bottleneck_rate)
        cap = self.bottleneck_capacity
        closed = cap == 0.0
        if rate <= 0.0 or not np.all(closed | (cap >= rate * float(self.net_demand.sum()))):
            return None
        return ~closed

    def inventory(self, alpha) -> np.ndarray:
        """β(α): the end-of-slot stock when ``alpha`` is generated, starting
        from ε and never negative (the balance rows, eq. 2, with any surplus
        generation carried forward)."""
        beta = []
        carry = self.initial_storage
        for a, d in zip(np.asarray(alpha, dtype=float).tolist(), self.demand.tolist()):
            carry = max(carry + a - d, 0.0)
            beta.append(carry)
        return np.array(beta, dtype=float)

    @property
    def eps_holding_cost(self) -> float:
        """Holding cost of the ε stock alone, drawn down greedily: the
        constant that reformulations over the netted demand add back."""
        return float(self.costs.holding @ self.inventory(np.zeros(self.horizon)))

    @classmethod
    def example(cls, horizon: int = 24, seed: int = 7) -> "DRRPInstance":
        """The paper's §V-A setup for m1.large over a 24 h horizon."""
        from repro.market import ec2_catalog
        from .costs import on_demand_schedule
        from .demand import NormalDemand

        vm = ec2_catalog()["m1.large"]
        return cls(
            demand=NormalDemand().sample(horizon, seed),
            costs=on_demand_schedule(vm, horizon),
            vm_name=vm.name,
        )


@dataclass
class RentalPlan:
    """A solved rental plan plus its cost decomposition (all in $)."""

    alpha: np.ndarray
    beta: np.ndarray
    chi: np.ndarray
    compute_cost: float
    inventory_cost: float
    transfer_in_cost: float
    transfer_out_cost: float
    objective: float
    status: SolverStatus
    vm_name: str = "vm"
    extra: dict = field(default_factory=dict)

    @classmethod
    def priced(
        cls,
        instance: DRRPInstance,
        alpha: np.ndarray,
        beta: np.ndarray,
        chi: np.ndarray,
        status: SolverStatus = SolverStatus.OPTIMAL,
        objective: float | None = None,
        extra: dict | None = None,
    ) -> "RentalPlan":
        """The plan (α, β, χ) with its four cost components priced on
        ``instance``; ``objective`` defaults to their sum (a MILP passes the
        solver's value instead)."""
        c = instance.costs
        compute = float(c.compute @ chi)
        inventory = float(c.holding @ beta)
        tin = float(c.transfer_in @ (instance.phi * alpha))
        tout = float(c.transfer_out @ instance.demand)
        return cls(
            alpha=alpha,
            beta=beta,
            chi=chi,
            compute_cost=compute,
            inventory_cost=inventory,
            transfer_in_cost=tin,
            transfer_out_cost=tout,
            objective=compute + inventory + tin + tout if objective is None else objective,
            status=status,
            vm_name=instance.vm_name,
            extra={} if extra is None else extra,
        )

    @property
    def total_cost(self) -> float:
        return self.objective

    @property
    def rent_slots(self) -> np.ndarray:
        """Indices of slots in which an instance is rented."""
        return np.nonzero(self.chi > 0.5)[0]

    @property
    def rental_frequency(self) -> float:
        """Fraction of slots with an active rental."""
        return float(np.mean(self.chi > 0.5))

    def cost_shares(self) -> dict[str, float]:
        """Fractional breakdown (Figure 10, lower panel)."""
        total = self.total_cost
        if total <= 0:
            return {"compute": 0.0, "io_storage": 0.0, "transfer": 0.0}
        return {
            "compute": self.compute_cost / total,
            "io_storage": self.inventory_cost / total,
            "transfer": (self.transfer_in_cost + self.transfer_out_cost) / total,
        }

    def validate(self, instance: DRRPInstance, tol: float = 1e-6) -> None:
        """Assert the plan satisfies every DRRP constraint (test helper)."""
        prev = instance.initial_storage
        for t in range(instance.horizon):
            balance = prev + self.alpha[t] - self.beta[t] - instance.demand[t]
            if abs(balance) > tol:
                raise AssertionError(f"inventory balance violated at t={t}: {balance}")
            if self.alpha[t] > instance.forcing_bound * (self.chi[t] > 0.5) + tol:
                raise AssertionError(f"forcing constraint violated at t={t}")
            if self.alpha[t] < -tol or self.beta[t] < -tol:
                raise AssertionError(f"negative quantity at t={t}")
            if (instance.bottleneck_rate is not None and instance.bottleneck_rate
                    * self.alpha[t] > instance.bottleneck_capacity[t] + tol):
                raise AssertionError(f"bottleneck capacity exceeded at t={t}")
            prev = self.beta[t]


def _drrp_rows(m: Model, instance: DRRPInstance, tag: str = "") -> tuple[dict[str, list], LinExpr]:
    """Add one class's DRRP variables and rows (eqs. 2–4) to ``m``.

    Names carry ``tag`` (``alpha{tag}[t]``, ``balance{tag}[t]``, ...), so
    several classes can share one model.  Returns the variable handles and
    the class's cost, objective (1) including its transfer-out constant.
    """
    T = instance.horizon
    c = instance.costs
    alpha = m.add_vars(T, f"alpha{tag}")
    beta = m.add_vars(T, f"beta{tag}")
    chi = m.add_vars(T, f"chi{tag}", vtype="binary")
    demand = instance.demand.tolist()
    bounds = instance.forcing_bounds.tolist()
    rate = instance.bottleneck_rate
    for t in range(T):
        prev = beta[t - 1] if t > 0 else instance.initial_storage
        m.add_constr(prev + alpha[t] - beta[t] == demand[t], name=f"balance{tag}[{t}]")
        m.add_constr(alpha[t] <= bounds[t] * chi[t], name=f"forcing{tag}[{t}]")
        if rate is not None:
            m.add_constr(
                rate * alpha[t] <= float(instance.bottleneck_capacity[t]),
                name=f"bottleneck{tag}[{t}]",
            )

    holding = c.holding
    cost = lin_sum(
        float(c.transfer_in[t]) * instance.phi * alpha[t]
        + float(holding[t]) * beta[t]
        + float(c.compute[t]) * chi[t]
        for t in range(T)
    ) + float(c.transfer_out @ instance.demand)
    return {"alpha": alpha, "beta": beta, "chi": chi}, cost


def build_drrp_model(instance: DRRPInstance) -> tuple[Model, dict[str, list]]:
    """Construct the DRRP MILP; returns the model and its variable handles."""
    m = Model(f"drrp[{instance.vm_name}]")
    vars_, cost = _drrp_rows(m, instance)
    m.set_objective(cost)
    return m, vars_


def read_decisions(res, vars_: dict[str, list]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The solved (α, β, χ) of a DRRP or SRRP model.

    LP vertices can carry -1e-17 noise on nonnegative variables; α and β
    are clamped so downstream consumers (e.g. chaining beta[-1] into the
    next instance's initial storage) never see negative quantities, and χ
    is rounded to its binary value.
    """
    alpha = np.maximum(np.array([res.value_of(v) for v in vars_["alpha"]]), 0.0)
    beta = np.maximum(np.array([res.value_of(v) for v in vars_["beta"]]), 0.0)
    chi = np.round(np.array([res.value_of(v) for v in vars_["chi"]]))
    return alpha, beta, chi


def solve_drrp(
    instance: DRRPInstance,
    backend: str = "auto",
    warm_start: bool = False,
    **solve_kwargs,
) -> RentalPlan:
    """Solve DRRP and return the plan with its cost decomposition.

    Under ``backend="auto"`` (and no ``bb_options``) an instance whose
    bottleneck never binds (:attr:`DRRPInstance.open_slots`: none at all,
    or only knocked-out slots beside non-binding ones) is uncapacitated
    lot-sizing, which the Wagner-Whitin dynamic program solves exactly in
    O(T²), with the knocked-out slots masked; that plan is returned with
    status ``OPTIMAL`` and no MILP is built.  Every other case — an
    explicit backend, a bottleneck that can bind, ``bb_options`` — solves
    the MILP.  A masked instance whose first net demand precedes every
    open slot raises the same ``RuntimeError`` as an infeasible MILP.

    ``warm_start=True`` seeds branch-and-bound backends with the
    Wagner-Whitin plan as the initial incumbent (uncapacitated instances
    only; a no-op for the HiGHS backend, which takes no injected
    incumbents).

    Telemetry and deadlines pass straight through ``solve_kwargs``:
    ``solve_drrp(inst, listener=recorder, time_limit=0.5)`` streams solve
    events to ``recorder`` and caps the whole solve at half a second (the
    best incumbent plan is returned with status ``FEASIBLE`` on expiry).
    The dynamic program reports through the same events: one
    ``solve_start``/``solve_end`` pair around one ``wagner_whitin`` phase.

    A deadline that expires before *any* incumbent is found (e.g.
    ``time_limit=0``, or an already-expired ``Deadline``) does not raise:
    for uncapacitated instances the Wagner-Whitin plan is returned as the
    incumbent with status ``TIME_LIMIT``, so a zero budget degrades to the
    polynomial-time planner instead of an error.  The same holds for a
    bottleneck that never binds, with the masked plan.

    Raises
    ------
    RuntimeError
        If the instance is infeasible (knocked-out slots leave no setup
        before some net demand), or the MILP terminates without a solution
        and no Wagner-Whitin fallback applies (an uncapacitated DRRP with
        nonnegative demand is always feasible, so there this indicates a
        solver failure rather than a modeling condition).
    """
    if (
        backend == "auto"
        and solve_kwargs.get("bb_options") is None
        and instance.open_slots is not None
    ):
        from .lotsizing import run_exact_dp, solve_wagner_whitin

        return run_exact_dp(
            solve_wagner_whitin,
            instance,
            "wagner-whitin",
            "solve_drrp",
            listener=solve_kwargs.get("listener"),
            deadline=solve_kwargs.get("deadline"),
            time_limit=solve_kwargs.get("time_limit"),
        )
    model, vars_ = build_drrp_model(instance)
    if warm_start and instance.bottleneck_rate is None and backend in ("bb-scipy", "simplex", "simplex+cuts"):
        from .lotsizing import solve_wagner_whitin
        from repro.solver import BranchAndBoundOptions

        ww = solve_wagner_whitin(instance)
        x0 = np.concatenate([ww.alpha, ww.beta, ww.chi])
        opts = solve_kwargs.get("bb_options") or BranchAndBoundOptions()
        solve_kwargs["bb_options"] = BranchAndBoundOptions(
            **{**opts.__dict__, "initial_incumbent": x0}
        )
    res = solve(model, backend=backend, **solve_kwargs)
    if not res.status.has_solution:
        if res.status is SolverStatus.TIME_LIMIT and instance.open_slots is not None:
            from .lotsizing import solve_wagner_whitin, time_limit_fallback

            return time_limit_fallback(solve_wagner_whitin(instance), "wagner-whitin")
        raise RuntimeError(f"DRRP solve failed with status {res.status.value}")
    alpha, beta, chi = read_decisions(res, vars_)
    return RentalPlan.priced(
        instance,
        alpha,
        beta,
        chi,
        status=res.status,
        objective=res.objective,
        extra={
            "nodes": res.nodes,
            "iterations": res.iterations,
            "wall_time": res.extra.get("wall_time"),
        },
    )
