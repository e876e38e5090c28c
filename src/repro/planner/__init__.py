"""Query planning substrate: rewrites, enumeration, placement, scheduling."""

from .cost import DeploymentEstimate, choose_best_deployment, estimate_deployment
from .enumerate import (
    Branch,
    aggregation_grouping_plans,
    branch_from_ops,
    enumerate_join_trees,
    join_tree_plans,
    region_groupings,
)
from .placement import (
    DownstreamDemand,
    PlacementProblem,
    PlacementSolution,
    UpstreamFlow,
    max_placeable_tasks,
    solve_placement,
    solve_with_milp,
)
from .rules import optimize
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
    "max_placeable_tasks",
    "optimize",
    "region_groupings",
    "solve_placement",
    "solve_with_milp",
]
