"""The paper's core contribution: DRRP, SRRP, baselines, and simulation."""

from .costs import CostSchedule, on_demand_rates, on_demand_schedule, spot_schedule
from .demand import BurstyDemand, ConstantDemand, DemandModel, DiurnalDemand, NormalDemand
from .drrp import DRRPInstance, RentalPlan, build_drrp_model, solve_drrp
from .lotsizing import solve_srrp_tree_dp, solve_wagner_whitin
from .noplan import solve_noplan
from .scenario import (
    ScenarioNode,
    ScenarioTree,
    bid_adjusted_stage_distributions,
    build_tree,
)
from .srrp import (
    SRRPInstance,
    SRRPPlan,
    build_srrp_model,
    solve_srrp,
    validate_nonanticipativity,
)
from .rolling import (
    DeterministicPolicy,
    NoPlanPolicy,
    OnDemandPolicy,
    OraclePolicy,
    Policy,
    SimulationContext,
    SimulationResult,
    SlotDecision,
    StochasticPolicy,
    simulate_policy,
)
from .planner import Planner, PolicyComparison
from .reformulation import build_facility_location_model, solve_drrp_facility_location
from .reduction import (
    ReducedScenarioPolicy,
    bootstrap_price_paths,
    fan_tree_from_paths,
    forward_selection,
    sample_price_paths,
)
from .value import StochasticValueReport, evaluate_stochastic_value
from .multiclass import MultiClassInstance, MultiClassPlan, solve_multiclass
from .risk import RiskAverseSRRPPlan, solve_srrp_cvar
from .sensitivity import DemandPriceReport, demand_shadow_prices
from .lagrangian import LagrangianResult, lagrangian_bound
from .demand_uncertainty import JointSRRPInstance, build_joint_tree, solve_srrp_joint

__all__ = [
    "CostSchedule",
    "on_demand_rates",
    "on_demand_schedule",
    "spot_schedule",
    "BurstyDemand",
    "ConstantDemand",
    "DemandModel",
    "DiurnalDemand",
    "NormalDemand",
    "DRRPInstance",
    "RentalPlan",
    "build_drrp_model",
    "solve_drrp",
    "solve_wagner_whitin",
    "solve_noplan",
    "ScenarioNode",
    "ScenarioTree",
    "bid_adjusted_stage_distributions",
    "build_tree",
    "SRRPInstance",
    "SRRPPlan",
    "build_srrp_model",
    "solve_srrp",
    "solve_srrp_tree_dp",
    "validate_nonanticipativity",
    "DeterministicPolicy",
    "NoPlanPolicy",
    "OnDemandPolicy",
    "OraclePolicy",
    "Policy",
    "SimulationContext",
    "SimulationResult",
    "SlotDecision",
    "StochasticPolicy",
    "simulate_policy",
    "Planner",
    "PolicyComparison",
    "build_facility_location_model",
    "solve_drrp_facility_location",
    "ReducedScenarioPolicy",
    "bootstrap_price_paths",
    "fan_tree_from_paths",
    "forward_selection",
    "sample_price_paths",
    "StochasticValueReport",
    "evaluate_stochastic_value",
    "MultiClassInstance",
    "MultiClassPlan",
    "solve_multiclass",
    "RiskAverseSRRPPlan",
    "solve_srrp_cvar",
    "DemandPriceReport",
    "demand_shadow_prices",
    "LagrangianResult",
    "lagrangian_bound",
    "JointSRRPInstance",
    "build_joint_tree",
    "solve_srrp_joint",
]
