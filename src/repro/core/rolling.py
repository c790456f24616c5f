"""Rolling-horizon simulation of rental policies under realized spot prices.

§V-D notes that "in practice, the resource rental planning is often
conducted in a rolling horizon fashion, i.e., a revised plan is issued
periodically ... to include the new information".  This module is that
practice: a simulator replays a realized hourly spot-price path and, slot
by slot, asks a policy for its here-and-now decision, charges the *actual*
cost (spot price on a win, the on-demand price λ on an out-of-bid event),
and rolls forward.

Policies provided (the five schemes of Figure 12(a) plus the baselines):

* :class:`OraclePolicy` — perfect price information fed to DRRP; its
  realized cost is the paper's *ideal case cost*, the denominator of every
  overpay percentage.
* :class:`OnDemandPolicy` — plans with DRRP but rents only on-demand
  instances at λ ("on-demand").
* :class:`DeterministicPolicy` — DRRP parameterized by bid prices from a
  :class:`~repro.market.auction.BidStrategy` ("det-predict" /
  "det-exp-mean" depending on the strategy).
* :class:`StochasticPolicy` — SRRP over a bid-adjusted scenario tree
  ("sto-predict" / "sto-exp-mean").
* :class:`NoPlanPolicy` — the reactive scheme of Figure 10.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from repro.market.auction import BidStrategy, effective_hourly_price, is_out_of_bid
from repro.market.catalog import CostRates, VMClass
from repro.stats.empirical import EmpiricalDistribution
from .costs import on_demand_schedule, spot_schedule
from .drrp import DRRPInstance, solve_drrp
from .scenario import bid_adjusted_stage_distributions, build_tree
from .srrp import SRRPInstance, solve_srrp

__all__ = [
    "SlotDecision",
    "SimulationContext",
    "SimulationResult",
    "Policy",
    "NoPlanPolicy",
    "OnDemandPolicy",
    "OraclePolicy",
    "DeterministicPolicy",
    "StochasticPolicy",
    "simulate_policy",
]


@dataclass(frozen=True)
class SlotDecision:
    """A policy's here-and-now action for one slot."""

    generate: float      # α for this slot (GB)
    rent: bool           # χ for this slot
    bid: float           # bid price submitted if renting spot (ignored otherwise)
    use_on_demand: bool = False  # rent from the on-demand market directly


@dataclass
class SimulationContext:
    """Everything a policy may look at when deciding (no future prices!).

    ``spot_history`` contains the pre-evaluation price history, prices for
    evaluation slots ``< t``, and the *current* slot ``t`` — the market
    publishes the current spot price, so policies may condition on it; they
    never see slots ``> t``.
    """

    vm: VMClass
    rates: CostRates
    demand: np.ndarray            # known demand over the whole evaluation window
    base_distribution: EmpiricalDistribution | None
    t: int = 0
    inventory: float = 0.0
    spot_history: np.ndarray = field(default_factory=lambda: np.zeros(0))

    @property
    def horizon(self) -> int:
        return self.demand.shape[0]

    @property
    def current_spot(self) -> float:
        if self.spot_history.size == 0:
            raise ValueError(
                "no spot price observed yet: spot_history is empty (the "
                "simulator populates it before the first decide(); inside "
                "reset() no price has been published)"
            )
        return float(self.spot_history[-1])

    def price_view(self) -> np.ndarray:
        """The price history a policy (or bid strategy) may condition on.

        Per the class contract this is everything observed *through* the
        current slot ``t`` — the market publishes the current price — and
        never a slot beyond it.  Every ``BidStrategy.bids`` call site must
        pass this view, not a hand-rolled slice: ``spot_history[:-1]``
        hides the published current price, and anything longer would leak
        the future.
        """
        if self.spot_history.size == 0:
            raise ValueError(
                "no spot price observed yet: spot_history is empty (the "
                "simulator populates it before the first decide())"
            )
        return self.spot_history

    def remaining_demand(self, lookahead: int) -> np.ndarray:
        """Demand for slots t .. min(t+lookahead, H) (known, per the paper)."""
        return self.demand[self.t : min(self.t + lookahead, self.horizon)]


class Policy:
    """Interface: observe the context, emit a :class:`SlotDecision`."""

    name = "abstract"

    def reset(self, ctx: SimulationContext) -> None:
        """Called once before the first slot (oracle precomputation etc.)."""

    def decide(self, ctx: SimulationContext) -> SlotDecision:
        raise NotImplementedError


class NoPlanPolicy(Policy):
    """Generate each slot's unmet demand in that slot; never carry inventory."""

    name = "no-plan"

    def __init__(self, bid_strategy: BidStrategy | None = None) -> None:
        self.bid_strategy = bid_strategy

    def decide(self, ctx: SimulationContext) -> SlotDecision:
        shortfall = max(float(ctx.demand[ctx.t]) - ctx.inventory, 0.0)
        if shortfall <= 1e-12:
            return SlotDecision(generate=0.0, rent=False, bid=0.0)
        if self.bid_strategy is None:
            return SlotDecision(generate=shortfall, rent=True, bid=0.0, use_on_demand=True)
        bid = float(self.bid_strategy.bids(ctx.price_view(), 1, t=ctx.t)[0])
        return SlotDecision(generate=shortfall, rent=True, bid=bid)


class OnDemandPolicy(Policy):
    """DRRP planning, but rentals always go to the on-demand market at λ."""

    name = "on-demand"

    def __init__(self, lookahead: int = 24, backend: str = "auto") -> None:
        self.lookahead = lookahead
        self.backend = backend

    def decide(self, ctx: SimulationContext) -> SlotDecision:
        window = ctx.remaining_demand(self.lookahead)
        inst = DRRPInstance(
            demand=window,
            costs=on_demand_schedule(ctx.vm, window.shape[0], ctx.rates),
            phi=ctx.rates.input_output_ratio,
            initial_storage=ctx.inventory,
            vm_name=ctx.vm.name,
        )
        plan = solve_drrp(inst, backend=self.backend)
        return SlotDecision(
            generate=float(plan.alpha[0]), rent=bool(plan.chi[0] > 0.5),
            bid=0.0, use_on_demand=True,
        )


class OraclePolicy(Policy):
    """Perfect information: DRRP over the realized price path (ideal cost).

    The plan is precomputed once in :meth:`reset`, but :meth:`decide` does
    *not* replay ``alpha[t]`` blindly: the simulated inventory can diverge
    from the plan's (an out-of-bid interruption losing work, a forced
    top-up, the simulator's nonnegativity clamp), and a blind replay would
    then undershoot demand.  Each slot reconciles against *realized*
    inventory: with ``deficit = planned_entry_inventory[t] - actual``, the
    issued generation is ``max(alpha[t] + deficit, 0)``, which restores the
    planned end-of-slot inventory exactly — by plan feasibility
    ``actual + alpha[t] + deficit = beta[t-1] + alpha[t] >= demand[t]``, so
    demand stays covered whatever the divergence was.
    """

    name = "oracle"

    def __init__(self, realized_spot: np.ndarray, backend: str = "auto") -> None:
        self.realized_spot = np.asarray(realized_spot, dtype=float)
        self.backend = backend
        self._plan = None
        self._entry_inventory: np.ndarray | None = None

    def reset(self, ctx: SimulationContext) -> None:
        if self.realized_spot.shape[0] < ctx.horizon:
            raise ValueError("oracle needs realized prices for the whole window")
        inst = DRRPInstance(
            demand=ctx.demand,
            costs=spot_schedule(ctx.vm, self.realized_spot[: ctx.horizon], ctx.rates),
            phi=ctx.rates.input_output_ratio,
            initial_storage=ctx.inventory,
            vm_name=ctx.vm.name,
        )
        self._plan = solve_drrp(inst, backend=self.backend)
        # Inventory the plan expects entering each slot: beta[t-1], with the
        # initial storage in front — the reconciliation reference.
        self._entry_inventory = np.concatenate(
            [[float(ctx.inventory)], self._plan.beta[:-1]]
        )

    def decide(self, ctx: SimulationContext) -> SlotDecision:
        t = ctx.t
        deficit = float(self._entry_inventory[t]) - ctx.inventory
        gen = max(float(self._plan.alpha[t]) + deficit, 0.0)
        rent = gen > 1e-12 or bool(self._plan.chi[t] > 0.5)
        # Bidding the realized price always wins the auction.
        return SlotDecision(generate=gen, rent=rent, bid=float(self.realized_spot[t]))


class DeterministicPolicy(Policy):
    """Rolling DRRP with bid prices as the assumed compute cost.

    Each slot, the bid strategy maps the observed price history to bids
    over the lookahead; DRRP treats those bids as deterministic prices and
    the first-slot decision is executed with the *realized* price.
    """

    def __init__(
        self,
        bid_strategy: BidStrategy,
        lookahead: int = 6,
        backend: str = "auto",
        name: str | None = None,
    ) -> None:
        self.bid_strategy = bid_strategy
        self.lookahead = lookahead
        self.backend = backend
        self.name = name or f"det-{bid_strategy.name}"

    def decide(self, ctx: SimulationContext) -> SlotDecision:
        window = ctx.remaining_demand(self.lookahead)
        L = window.shape[0]
        bids = self.bid_strategy.bids(ctx.price_view(), L, t=ctx.t)
        # What deterministic planning believes it will pay: the bid caps the
        # spot payment on a win; it cannot see out-of-bid risk.
        inst = DRRPInstance(
            demand=window,
            costs=spot_schedule(ctx.vm, bids, ctx.rates),
            phi=ctx.rates.input_output_ratio,
            initial_storage=ctx.inventory,
            vm_name=ctx.vm.name,
        )
        plan = solve_drrp(inst, backend=self.backend)
        return SlotDecision(
            generate=float(plan.alpha[0]), rent=bool(plan.chi[0] > 0.5), bid=float(bids[0])
        )


class StochasticPolicy(Policy):
    """Rolling SRRP over a bid-adjusted scenario tree (§IV-C/E).

    The root stage carries the *known* current price a rental would pay
    (effective price of bidding now); later stages carry the truncated
    base distribution with out-of-bid mass collapsed onto λ.
    """

    def __init__(
        self,
        bid_strategy: BidStrategy,
        lookahead: int = 6,
        max_branching: int = 3,
        backend: str = "auto",
        name: str | None = None,
    ) -> None:
        self.bid_strategy = bid_strategy
        self.lookahead = lookahead
        self.max_branching = max_branching
        self.backend = backend
        self.name = name or f"sto-{bid_strategy.name}"

    def decide(self, ctx: SimulationContext) -> SlotDecision:
        if ctx.base_distribution is None:
            raise ValueError("StochasticPolicy requires a base price distribution")
        window = ctx.remaining_demand(self.lookahead)
        L = window.shape[0]
        bids = self.bid_strategy.bids(ctx.price_view(), L, t=ctx.t)
        root_price = effective_hourly_price(float(bids[0]), ctx.current_spot, ctx.vm.on_demand_price)
        stage_dists = bid_adjusted_stage_distributions(
            ctx.base_distribution, bids[1:], ctx.vm.on_demand_price, self.max_branching
        )
        tree = build_tree(root_price, stage_dists)
        inst = SRRPInstance(
            demand=window,
            costs=on_demand_schedule(ctx.vm, L, ctx.rates),  # compute column overridden per vertex
            tree=tree,
            phi=ctx.rates.input_output_ratio,
            initial_storage=ctx.inventory,
            vm_name=ctx.vm.name,
        )
        plan = solve_srrp(inst, backend=self.backend)
        return SlotDecision(
            generate=plan.first_alpha, rent=plan.first_chi, bid=float(bids[0])
        )


@dataclass
class SimulationResult:
    """Realized-cost accounting for one policy run.

    The reported totals are *exact* rational sums of the per-slot cost
    records (``paid_prices``, ``holding_costs``, ``transfer_in_costs``),
    accumulated in :class:`fractions.Fraction` arithmetic and rounded once
    at the end — so an independent checker (``repro.verify.frac_sum``) can
    re-derive every total from the arrays with zero tolerance, whatever
    order it sums in.
    """

    policy: str
    total_cost: float
    compute_cost: float
    inventory_cost: float
    transfer_in_cost: float
    transfer_out_cost: float
    out_of_bid_events: int
    rentals: int
    generated: np.ndarray
    inventory: np.ndarray
    paid_prices: np.ndarray
    forced_topups: int = 0
    lost_gb: float = 0.0
    holding_costs: np.ndarray | None = None       # per-slot (Cs+Cio)·β_t
    transfer_in_costs: np.ndarray | None = None   # per-slot C+f·Φ·(α_t + lost_t)
    out_of_bid: np.ndarray | None = None          # per-slot eviction marker (bool)

    def cost_shares(self) -> dict[str, float]:
        total = self.total_cost or 1.0
        return {
            "compute": self.compute_cost / total,
            "io_storage": self.inventory_cost / total,
            "transfer": (self.transfer_in_cost + self.transfer_out_cost) / total,
        }


def simulate_policy(
    policy: Policy,
    realized_spot: np.ndarray,
    demand: np.ndarray,
    vm: VMClass,
    rates: CostRates | None = None,
    base_distribution: EmpiricalDistribution | None = None,
    initial_storage: float = 0.0,
    price_history: np.ndarray | None = None,
    interruption_loss: float = 0.0,
) -> SimulationResult:
    """Replay one policy against a realized price path.

    ``price_history`` is the pre-evaluation price record the bid strategies
    condition on (e.g. the two-month estimation window); it is prepended to
    the observed prices a policy may see.

    ``interruption_loss`` extends the paper's instant-failover assumption:
    on an out-of-bid event, that fraction of the slot's generated data is
    lost to the interruption (work since the last checkpoint) and is
    regenerated on the on-demand fallback instance in the same slot — the
    rental is already paid, but the repeated input fetch costs transfer-in
    again.  ``0.0`` (default) is the paper's model.

    The simulator enforces demand satisfaction: if a policy's decision
    leaves a shortfall, the slot is topped up (renting if necessary) and
    the event counted in ``forced_topups`` — a correctness backstop, not a
    cost optimization.
    """
    if not 0.0 <= interruption_loss < 1.0:
        raise ValueError("interruption_loss must be in [0, 1)")
    realized_spot = np.asarray(realized_spot, dtype=float)
    demand = np.asarray(demand, dtype=float)
    H = demand.shape[0]
    if realized_spot.shape[0] < H:
        raise ValueError("need a realized price for every slot")
    rates = rates or CostRates()
    ctx = SimulationContext(
        vm=vm, rates=rates, demand=demand,
        base_distribution=base_distribution,
        inventory=initial_storage,
    )
    policy.reset(ctx)

    holding = rates.storage_per_gb_hour + rates.io_per_gb
    lost = 0.0
    oob = rentals = topups = 0
    generated = np.zeros(H)
    inv_traj = np.zeros(H)
    paid = np.zeros(H)
    holding_costs = np.zeros(H)
    tin_costs = np.zeros(H)
    oob_mask = np.zeros(H, dtype=bool)

    prefix = np.zeros(0) if price_history is None else np.asarray(price_history, dtype=float)

    for t in range(H):
        ctx.t = t
        ctx.spot_history = np.concatenate([prefix, realized_spot[: t + 1]])
        d = policy.decide(ctx)
        gen = max(float(d.generate), 0.0)
        rent = bool(d.rent)
        shortfall = float(demand[t]) - (ctx.inventory + gen)
        if shortfall > 1e-9:
            gen += shortfall
            if not rent:
                rent = True
            topups += 1
        if gen > 1e-12 and not rent:
            rent = True  # generation requires a running instance
        lost_here = 0.0
        if rent:
            rentals += 1
            if d.use_on_demand:
                price = vm.on_demand_price
            else:
                price = effective_hourly_price(d.bid, float(realized_spot[t]), vm.on_demand_price)
                if is_out_of_bid(d.bid, float(realized_spot[t])):
                    oob += 1
                    oob_mask[t] = True
                    lost_here = interruption_loss * gen
            paid[t] = price
        lost += lost_here
        # regenerating lost work re-fetches its input data
        tin_costs[t] = rates.transfer_in_per_gb * rates.input_output_ratio * (gen + lost_here)
        ctx.inventory = ctx.inventory + gen - float(demand[t])
        ctx.inventory = max(ctx.inventory, 0.0)
        holding_costs[t] = holding * ctx.inventory
        generated[t] = gen
        inv_traj[t] = ctx.inventory

    # Exact totals: Fractions sum the per-slot float costs losslessly, so
    # the reported numbers are order-independent and re-derivable by an
    # independent checker with zero tolerance (see SimulationResult).
    compute = Fraction(0)
    inv_cost = Fraction(0)
    tin = Fraction(0)
    for t in range(H):
        compute += Fraction(float(paid[t]))
        inv_cost += Fraction(float(holding_costs[t]))
        tin += Fraction(float(tin_costs[t]))
    tout = Fraction(float(rates.transfer_out_per_gb)) * sum(
        (Fraction(float(x)) for x in demand), Fraction(0)
    )
    total = compute + inv_cost + tin + tout
    return SimulationResult(
        policy=policy.name,
        total_cost=float(total),
        compute_cost=float(compute),
        inventory_cost=float(inv_cost),
        transfer_in_cost=float(tin),
        transfer_out_cost=float(tout),
        out_of_bid_events=oob,
        rentals=rentals,
        generated=generated,
        inventory=inv_traj,
        paid_prices=paid,
        forced_topups=topups,
        lost_gb=lost,
        holding_costs=holding_costs,
        transfer_in_costs=tin_costs,
        out_of_bid=oob_mask,
    )
