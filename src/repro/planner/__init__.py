"""Query planning substrate: enumeration, cost, placement, scheduling."""

from .cost import DeploymentEstimate, choose_best_deployment, estimate_deployment
from .enumerate import (
    Branch,
    aggregation_grouping_plans,
    branch_from_ops,
    enumerate_join_trees,
    join_tree_plans,
)
from .placement import (
    DownstreamDemand,
    PlacementProblem,
    PlacementSolution,
    UpstreamFlow,
    solve_placement,
)
from .scheduler import AssignmentDiff, Scheduler

__all__ = [
    "AssignmentDiff",
    "Branch",
    "DeploymentEstimate",
    "DownstreamDemand",
    "PlacementProblem",
    "PlacementSolution",
    "Scheduler",
    "UpstreamFlow",
    "aggregation_grouping_plans",
    "branch_from_ops",
    "choose_best_deployment",
    "enumerate_join_trees",
    "estimate_deployment",
    "join_tree_plans",
    "solve_placement",
]
