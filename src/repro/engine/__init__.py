"""Stream-engine substrate: operators, plans, queues, state, runtime."""

from .checkpoint import CheckpointCoordinator, CheckpointRecord
from .dense import DenseEngineRuntime, create_runtime
from .logical import LogicalPlan, can_replace_preserving_state
from .metrics import GlobalMetricMonitor, MetricsWindow, StageMetrics
from .operators import OperatorKind, OperatorSpec
from .physical import PhysicalPlan, Stage, Task
from .queues import FluidQueue, Parcel
from .runtime import EngineRuntime, TickReport, WorkloadModel
from .state import StatePartition, StateStore

__all__ = [
    "CheckpointCoordinator",
    "CheckpointRecord",
    "DenseEngineRuntime",
    "EngineRuntime",
    "FluidQueue",
    "GlobalMetricMonitor",
    "LogicalPlan",
    "MetricsWindow",
    "OperatorKind",
    "OperatorSpec",
    "Parcel",
    "PhysicalPlan",
    "Stage",
    "StageMetrics",
    "StatePartition",
    "StateStore",
    "Task",
    "TickReport",
    "WorkloadModel",
    "can_replace_preserving_state",
    "create_runtime",
]
