"""SRRP under joint price *and* demand uncertainty — the paper's future work.

The paper closes with: "Our future work will investigate stochastic
optimization solutions for cloud resource provisioning with time-varying
workloads."  This module is that model: the scenario tree branches over
the product of a price distribution and a demand distribution per stage,
and the deterministic equivalent becomes

    min  Σ_v p_v [ C+f·Φ·α_v + (Cs+Cio)·β_v + C−f·d_v + Cp(v)·χ_v ]
    s.t. β_{π(v)} + α_v − β_v = d_v      (vertex-specific demand)
         α_v ≤ B·χ_v,  β_{π(root)} = ε,  α, β ≥ 0, χ ∈ {0,1}

i.e. eq. (13)–(19) with D(τ(v)) replaced by a vertex realization d_v,
built by the same tree builder as :func:`~repro.core.srrp.build_srrp_model`
and solved into the same :class:`~repro.core.srrp.SRRPPlan`.
Non-anticipativity still comes free from the vertex indexing.

When every vertex of a stage carries the same demand, the model collapses
to the paper's SRRP exactly (property-tested), so this is a strict
generalization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.solver import solve
from .costs import CostSchedule
from .scenario import ScenarioNode, ScenarioTree
from .srrp import SRRPPlan, _read_plan, _tree_model

__all__ = ["JointSRRPInstance", "build_joint_tree", "solve_srrp_joint"]


def build_joint_tree(
    root_price: float,
    root_demand: float,
    stage_price_dists: list[tuple[np.ndarray, np.ndarray]],
    stage_demand_dists: list[tuple[np.ndarray, np.ndarray]],
) -> tuple[ScenarioTree, np.ndarray]:
    """Tree over the per-stage product of price × demand distributions.

    Price and demand are treated as independent at each stage (their joint
    probability is the product); correlated uncertainty can be expressed by
    passing a single joint support through the price distribution and a
    constant demand, or by building nodes directly.

    Returns the tree plus ``node_demand`` (demand realization per vertex).
    """
    if len(stage_price_dists) != len(stage_demand_dists):
        raise ValueError("need one demand distribution per price stage")
    T = 1 + len(stage_price_dists)
    nodes = [ScenarioNode(index=0, parent=-1, depth=0, price=float(root_price), cond_prob=1.0, abs_prob=1.0)]
    node_demand = [float(root_demand)]
    frontier = [0]
    for depth in range(1, T):
        p_vals, p_probs = stage_price_dists[depth - 1]
        d_vals, d_probs = stage_demand_dists[depth - 1]
        p_vals = np.asarray(p_vals, dtype=float)
        p_probs = np.asarray(p_probs, dtype=float)
        d_vals = np.asarray(d_vals, dtype=float)
        d_probs = np.asarray(d_probs, dtype=float)
        for probs, what in ((p_probs, "price"), (d_probs, "demand")):
            if abs(probs.sum() - 1.0) > 1e-9:
                raise ValueError(f"stage {depth} {what} probabilities sum to {probs.sum()}")
        if np.any(d_vals < 0):
            raise ValueError("demand realizations must be nonnegative")
        new_frontier = []
        for parent_idx in frontier:
            parent = nodes[parent_idx]
            for pv, pp in zip(p_vals, p_probs):
                for dv, dp in zip(d_vals, d_probs):
                    cond = float(pp * dp)
                    node = ScenarioNode(
                        index=len(nodes), parent=parent_idx, depth=depth,
                        price=float(pv), cond_prob=cond,
                        abs_prob=parent.abs_prob * cond,
                    )
                    nodes.append(node)
                    node_demand.append(float(dv))
                    parent.children.append(node.index)
                    new_frontier.append(node.index)
        frontier = new_frontier
    tree = ScenarioTree(nodes=nodes, horizon=T)
    tree.validate()
    return tree, np.asarray(node_demand)


@dataclass(frozen=True)
class JointSRRPInstance:
    """SRRP data with vertex-specific demand realizations."""

    costs: CostSchedule
    tree: ScenarioTree
    node_demand: np.ndarray
    phi: float = 0.5
    initial_storage: float = 0.0
    vm_name: str = "vm"

    def __post_init__(self) -> None:
        nd = np.asarray(self.node_demand, dtype=float)
        object.__setattr__(self, "node_demand", nd)
        if nd.shape != (self.tree.num_nodes,):
            raise ValueError("node_demand must have one entry per tree vertex")
        if np.any(nd < 0):
            raise ValueError("demand must be nonnegative")
        if self.costs.horizon != self.tree.horizon:
            raise ValueError("cost schedule must span the tree horizon")
        if self.initial_storage < 0:
            raise ValueError("initial storage must be nonnegative")

    @property
    def horizon(self) -> int:
        return self.tree.horizon

    @property
    def forcing_bound(self) -> float:
        """One B valid at every vertex: the largest scenario demand net of ε."""
        return max(self.max_path_demand() - self.initial_storage, 1e-9)

    def max_path_demand(self) -> float:
        """Upper bound on total demand along any scenario (forcing bound)."""
        best = np.zeros(self.tree.num_nodes)
        total = 0.0
        for node in self.tree.nodes:  # BFS order: parents precede children
            prev = best[node.parent] if node.parent >= 0 else 0.0
            best[node.index] = prev + self.node_demand[node.index]
            total = max(total, best[node.index])
        return float(total)


def solve_srrp_joint(instance: JointSRRPInstance, backend: str = "auto") -> SRRPPlan:
    """Solve the joint-uncertainty deterministic equivalent.

    The model is the paper's SRRP tree model with vertex demands and one
    forcing bound, :attr:`JointSRRPInstance.forcing_bound`, at every vertex.
    """
    model, vars_ = _tree_model(
        instance,
        f"srrp-joint[{instance.vm_name}]",
        [instance.forcing_bound] * instance.tree.num_nodes,
    )
    res = solve(model, backend=backend)
    if not res.status.has_solution:
        raise RuntimeError(f"joint SRRP solve failed: {res.status.value}")
    return _read_plan(res, vars_, instance)
