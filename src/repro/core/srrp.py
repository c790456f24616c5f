"""Stochastic Resource Rental Planning — the paper's SRRP model (§IV).

SRRP minimizes the *expected* rental cost over the price uncertainty
encoded in a scenario tree.  Following §IV-E we solve the deterministic
equivalent: every DRRP variable becomes a family of vertex-indexed recourse
variables, and the inventory balance links each vertex to its parent —
which enforces non-anticipativity structurally (a decision at vertex v is
shared by every scenario whose path passes through v):

    min  Σ_v p_v [ C+f·Φ·α_v + (Cs+Cio)·β_v + C−f·D(τ(v)) + Cp(v)·χ_v ]   (13)
    s.t. β_{π(v)} + α_v − β_v = D(τ(v))                                   (14)
         α_v ≤ B·χ_v                                                      (16)
         β_root-parent = ε                                                (17)
         α, β ≥ 0, χ ∈ {0,1}                                              (18–19)

The bottleneck rows (15) are omitted exactly as §V-A omits them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.solver import Model, SolverStatus, lin_sum, solve
from .costs import CostSchedule
from .drrp import read_decisions, slot_forcing_bounds
from .scenario import ScenarioTree

__all__ = [
    "SRRPInstance",
    "SRRPPlan",
    "build_srrp_model",
    "solve_srrp",
    "validate_nonanticipativity",
]


@dataclass(frozen=True)
class SRRPInstance:
    """A stochastic planning problem over a scenario tree.

    ``costs`` supplies the deterministic cost components (storage, I/O,
    transfer); the per-slot compute price comes from the tree's vertices.
    ``demand`` must span the tree horizon.
    """

    demand: np.ndarray
    costs: CostSchedule
    tree: ScenarioTree
    phi: float = 0.5
    initial_storage: float = 0.0
    vm_name: str = "vm"

    def __post_init__(self) -> None:
        demand = np.asarray(self.demand, dtype=float)
        object.__setattr__(self, "demand", demand)
        if demand.shape[0] != self.tree.horizon:
            raise ValueError(
                f"demand length {demand.shape[0]} != tree horizon {self.tree.horizon}"
            )
        if demand.shape[0] != self.costs.horizon:
            raise ValueError("cost schedule must span the tree horizon")
        if np.any(demand < 0):
            raise ValueError("demand must be nonnegative")
        if self.initial_storage < 0:
            raise ValueError("initial storage must be nonnegative")

    @property
    def horizon(self) -> int:
        return self.tree.horizon

    @property
    def forcing_bound(self) -> float:
        """One B valid at every vertex: total demand net of ε."""
        return float(max(self.demand.sum() - self.initial_storage, 0.0)) or 1.0

    @property
    def node_demand(self) -> np.ndarray:
        """D(τ(v)) per vertex: the demand of the vertex's stage."""
        return self.demand[[node.depth for node in self.tree.nodes]]


@dataclass
class SRRPPlan:
    """Solved SRRP policy.

    ``alpha`` / ``beta`` / ``chi`` are vertex-indexed (the full recourse
    policy); ``first_alpha`` / ``first_chi`` are the root (here-and-now)
    decisions a rolling-horizon controller implements.  ``expected_cost``
    is objective (13).
    """

    alpha: np.ndarray
    beta: np.ndarray
    chi: np.ndarray
    expected_cost: float
    status: SolverStatus
    tree: ScenarioTree
    vm_name: str = "vm"
    extra: dict = field(default_factory=dict)

    @property
    def objective(self) -> float:
        """Objective (13), under the name a :class:`RentalPlan` uses."""
        return self.expected_cost

    @property
    def first_alpha(self) -> float:
        return float(self.alpha[0])

    @property
    def first_chi(self) -> bool:
        return bool(self.chi[0] > 0.5)

    def decisions_for_scenario(self, leaf_index: int) -> dict[str, np.ndarray]:
        """The (α, β, χ) path a given scenario would execute."""
        path = self.tree.path(leaf_index)
        idx = [n.index for n in path]
        return {
            "alpha": self.alpha[idx],
            "beta": self.beta[idx],
            "chi": self.chi[idx],
            "prices": np.array([n.price for n in path]),
        }

    def validate(self, instance: SRRPInstance, tol: float = 1e-6) -> None:
        """Check every SRRP constraint of the policy (test helper).

        ``instance`` is an :class:`SRRPInstance` or any tree instance with
        the same ``tree``, ``initial_storage``, ``node_demand`` and
        ``forcing_bound`` (e.g. a
        :class:`~repro.core.demand_uncertainty.JointSRRPInstance`).

        Raises :class:`AssertionError` with the violating vertex and the
        magnitude of the violation: inventory balance (14), the forcing
        bound (16), nonnegativity (18) and the binary rental marker (19).
        """
        n = instance.tree.num_nodes
        demand = instance.node_demand
        for name, arr in (("alpha", self.alpha), ("beta", self.beta), ("chi", self.chi)):
            if np.asarray(arr).shape != (n,):
                raise AssertionError(
                    f"{name} must be vertex-indexed with length {n}, got shape {np.asarray(arr).shape}"
                )
        for node in instance.tree.nodes:
            v = node.index
            if self.alpha[v] < -tol or self.beta[v] < -tol:
                raise AssertionError(
                    f"negative quantity at vertex {v}: alpha={self.alpha[v]:.6g}, beta={self.beta[v]:.6g}"
                )
            if min(abs(self.chi[v]), abs(self.chi[v] - 1.0)) > tol:
                raise AssertionError(f"chi[{v}]={self.chi[v]:.6g} is not binary")
            prev = instance.initial_storage if node.parent < 0 else self.beta[node.parent]
            lhs = prev + self.alpha[v] - self.beta[v]
            if abs(lhs - demand[v]) > tol:
                raise AssertionError(f"balance violated at vertex {v}: residual {lhs - demand[v]:.6g}")
            cap = instance.forcing_bound * (self.chi[v] > 0.5)
            if self.alpha[v] > cap + tol:
                raise AssertionError(
                    f"forcing violated at vertex {v}: alpha={self.alpha[v]:.6g} > "
                    f"bound {cap:.6g} (chi={self.chi[v]:.6g})"
                )


def validate_nonanticipativity(
    tree: ScenarioTree,
    scenario_decisions: dict[int, dict[str, np.ndarray]],
    tol: float = 1e-6,
) -> None:
    """Check that per-scenario decision paths agree on shared vertices.

    ``scenario_decisions`` maps a leaf index to the arrays a scenario
    would execute along its root path (the shape returned by
    :meth:`SRRPPlan.decisions_for_scenario`).  Vertex-indexed policies
    satisfy non-anticipativity by construction, but decisions that were
    reconstructed, transported, or tampered with per scenario can diverge
    where their histories are still identical — two scenarios through the
    same vertex prescribing different here-and-now actions.  Raises
    :class:`AssertionError` naming the shared vertex and both scenarios.
    """
    seen: dict[tuple[int, str], tuple[int, float]] = {}
    for leaf_index, decisions in scenario_decisions.items():
        path = tree.path(leaf_index)
        for step, node in enumerate(path):
            for name in ("alpha", "beta", "chi"):
                if name not in decisions:
                    continue
                value = float(np.asarray(decisions[name])[step])
                key = (node.index, name)
                if key in seen:
                    other_leaf, other_value = seen[key]
                    if abs(value - other_value) > tol:
                        raise AssertionError(
                            f"non-anticipativity violated at vertex {node.index} "
                            f"(stage {node.depth}): scenario {other_leaf} has "
                            f"{name}={other_value:.6g} but scenario {leaf_index} "
                            f"has {name}={value:.6g}"
                        )
                else:
                    seen[key] = (leaf_index, value)


def _tree_model(instance, name: str, bounds: list[float]) -> tuple[Model, dict[str, list]]:
    """The deterministic-equivalent MILP (13)–(19) over ``instance.tree``.

    Vertex v balances against ``instance.node_demand[v]`` and generates at
    most ``bounds[v]`` when rented.  Returns the model and its handles:
    ``alpha``/``beta``/``chi`` per vertex, plus ``cost``, each vertex's
    unweighted generation, holding and rental cost (the bracket of (13)
    without its transfer-out constant).
    """
    tree = instance.tree
    c = instance.costs
    m = Model(name)
    n = tree.num_nodes
    alpha = m.add_vars(n, "alpha")
    beta = m.add_vars(n, "beta")
    chi = m.add_vars(n, "chi", vtype="binary")
    holding = c.holding
    demand = instance.node_demand.tolist()

    const_term = 0.0
    cost = []
    terms = []
    for node in tree.nodes:
        v, t, p = node.index, node.depth, node.abs_prob
        prev = instance.initial_storage if node.parent < 0 else beta[node.parent]
        m.add_constr(prev + alpha[v] - beta[v] == demand[v], name=f"balance[{v}]")
        m.add_constr(alpha[v] <= bounds[v] * chi[v], name=f"forcing[{v}]")
        cost.append(
            float(c.transfer_in[t]) * instance.phi * alpha[v]
            + float(holding[t]) * beta[v]
            + node.price * chi[v]
        )
        terms.append(p * cost[-1])
        const_term += p * float(c.transfer_out[t]) * demand[v]
    m.set_objective(lin_sum(terms) + const_term)
    return m, {"alpha": alpha, "beta": beta, "chi": chi, "cost": cost}


def build_srrp_model(instance: SRRPInstance) -> tuple[Model, dict[str, list]]:
    """Construct the deterministic-equivalent MILP over the scenario tree.

    Each vertex's forcing bound is its stage's DRRP bound
    (:func:`~repro.core.drrp.slot_forcing_bounds`): generation never
    usefully exceeds the demand still ahead of the stage.
    """
    stage = slot_forcing_bounds(instance.demand).tolist()
    bounds = [stage[node.depth] for node in instance.tree.nodes]
    return _tree_model(instance, f"srrp[{instance.vm_name}]", bounds)


def _read_plan(res, vars_: dict[str, list], instance) -> SRRPPlan:
    """The solved tree model as an :class:`SRRPPlan`; ``expected_cost`` is
    the solver's objective."""
    alpha, beta, chi = read_decisions(res, vars_)
    return SRRPPlan(
        alpha=alpha,
        beta=beta,
        chi=chi,
        expected_cost=res.objective,
        status=res.status,
        tree=instance.tree,
        vm_name=instance.vm_name,
        extra={
            "nodes": res.nodes,
            "iterations": res.iterations,
            "tree_size": instance.tree.num_nodes,
            "wall_time": res.extra.get("wall_time"),
        },
    )


def solve_srrp(instance: SRRPInstance, backend: str = "auto", **solve_kwargs) -> SRRPPlan:
    """Solve SRRP and extract the recourse policy.

    Under ``backend="auto"`` a tree whose vertex prices are all
    nonnegative (and no ``bb_options``) is stochastic uncapacitated
    lot-sizing, which the production-path tree DP
    (:func:`~repro.core.lotsizing.solve_srrp_tree_dp`) solves exactly in
    O(n·T); that policy is returned with status ``OPTIMAL`` and no MILP is
    built.  Every other case — an explicit backend, a negative price,
    ``bb_options`` — solves the deterministic-equivalent MILP.

    ``solve_kwargs`` forward to :func:`repro.solver.solve`, so
    ``listener=`` (telemetry events) and ``deadline=``/``time_limit=``
    (wall-clock budget) work here exactly as on the raw solver: an expired
    deadline yields the best incumbent policy with status ``FEASIBLE``
    rather than hanging on a large scenario tree.  The tree DP reports
    through the same events: one ``solve_start``/``solve_end`` pair around
    one ``tree_dp`` phase.

    A deadline that expires before *any* incumbent is found (e.g.
    ``time_limit=0``) does not raise: the tree-DP policy is returned with
    status ``TIME_LIMIT`` and ``extra["fallback"] == "tree-dp"``.

    Raises
    ------
    RuntimeError
        If the MILP terminates without a solution for any other reason
        (SRRP with nonnegative demand and free inventory is always
        feasible, so this indicates a solver failure).
    """
    from .lotsizing import run_exact_dp, solve_srrp_tree_dp, time_limit_fallback

    if (
        backend == "auto"
        and solve_kwargs.get("bb_options") is None
        and all(node.price >= 0 for node in instance.tree.nodes)
    ):
        return run_exact_dp(
            solve_srrp_tree_dp,
            instance,
            "tree-dp",
            "solve_srrp",
            listener=solve_kwargs.get("listener"),
            deadline=solve_kwargs.get("deadline"),
            time_limit=solve_kwargs.get("time_limit"),
        )
    model, vars_ = build_srrp_model(instance)
    res = solve(model, backend=backend, **solve_kwargs)
    if not res.status.has_solution:
        if res.status is SolverStatus.TIME_LIMIT:
            return time_limit_fallback(solve_srrp_tree_dp(instance), "tree-dp")
        raise RuntimeError(f"SRRP solve failed with status {res.status.value}")
    return _read_plan(res, vars_, instance)
