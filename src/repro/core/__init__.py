"""WASP's contribution: monitoring, diagnosis, policy, adaptation."""

from .actions import (
    Action,
    ActionKind,
    ReassignAction,
    ReplanAction,
    ScaleAction,
    ScaleDownAction,
)
from .comparison import TABLE_2, TechniqueProfile, render_table
from .controller import AdaptationRecord, ReconfigurationManager
from .diagnosis import Diagnoser, Health, LinkPressure, StageDiagnosis
from .estimator import StageEstimate, WorkloadEstimator
from .longterm import LongTermPlanner, OracleForecaster
from .migration import (
    MigrationPlan,
    MigrationStrategy,
    Transfer,
    estimate_transition_s,
    plan_migration,
)
from .policy import AdaptationPolicy, PolicyContext, PolicyMode
from .replanning import Replanner, ReplanProposal
from .scaling import (
    ScaleDecision,
    compute_scale_out_target,
    compute_scale_up_target,
    pick_scale_down_site,
)

__all__ = [
    "Action",
    "ActionKind",
    "AdaptationPolicy",
    "AdaptationRecord",
    "Diagnoser",
    "Health",
    "LinkPressure",
    "LongTermPlanner",
    "MigrationPlan",
    "OracleForecaster",
    "MigrationStrategy",
    "PolicyContext",
    "PolicyMode",
    "ReassignAction",
    "ReconfigurationManager",
    "ReplanAction",
    "ReplanProposal",
    "Replanner",
    "ScaleAction",
    "ScaleDecision",
    "ScaleDownAction",
    "StageDiagnosis",
    "StageEstimate",
    "TABLE_2",
    "TechniqueProfile",
    "Transfer",
    "WorkloadEstimator",
    "compute_scale_out_target",
    "compute_scale_up_target",
    "estimate_transition_s",
    "pick_scale_down_site",
    "plan_migration",
    "render_table",
]
