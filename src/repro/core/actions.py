"""Adaptation actions (Section 4).

The policy (:mod:`repro.core.policy`) emits these as *decisions*; the
Reconfiguration Manager (:mod:`repro.core.controller`) executes them against
the scheduler, state store and engine.  Keeping decisions as plain data makes
the policy unit-testable without a running engine and gives experiments an
audit trail of what was adapted and why.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..planner.cost import DeploymentEstimate


class ActionKind(enum.Enum):
    REASSIGN = "re-assign"
    SCALE_UP = "scale up"
    SCALE_OUT = "scale out"
    SCALE_DOWN = "scale down"
    REPLAN = "re-plan"


@dataclass(frozen=True)
class Action:
    """Base class: every action names the stage it targets and its cause."""

    kind: ActionKind
    stage: str
    reason: str


@dataclass(frozen=True)
class ReassignAction(Action):
    """Move the stage's tasks to a new placement at fixed parallelism."""

    new_assignment: dict[str, int] = field(default_factory=dict)

    def __init__(self, stage: str, reason: str, new_assignment: dict[str, int]):
        object.__setattr__(self, "kind", ActionKind.REASSIGN)
        object.__setattr__(self, "stage", stage)
        object.__setattr__(self, "reason", reason)
        object.__setattr__(self, "new_assignment", dict(new_assignment))


@dataclass(frozen=True)
class ScaleAction(Action):
    """Increase parallelism; ``assignment`` is the complete new placement."""

    new_assignment: dict[str, int] = field(default_factory=dict)

    def __init__(
        self,
        stage: str,
        reason: str,
        new_assignment: dict[str, int],
        *,
        cross_site: bool,
    ):
        kind = ActionKind.SCALE_OUT if cross_site else ActionKind.SCALE_UP
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "stage", stage)
        object.__setattr__(self, "reason", reason)
        object.__setattr__(self, "new_assignment", dict(new_assignment))


@dataclass(frozen=True)
class ScaleDownAction(Action):
    """Remove one task at ``site`` (gradual scale-down, Section 4.2)."""

    site: str = ""

    def __init__(self, stage: str, reason: str, site: str):
        object.__setattr__(self, "kind", ActionKind.SCALE_DOWN)
        object.__setattr__(self, "stage", stage)
        object.__setattr__(self, "reason", reason)
        object.__setattr__(self, "site", site)


@dataclass(frozen=True)
class ReplanAction(Action):
    """Switch the query to a re-optimized logical + physical plan."""

    estimate: DeploymentEstimate = None  # type: ignore[assignment]

    def __init__(self, stage: str, reason: str, estimate: DeploymentEstimate):
        object.__setattr__(self, "kind", ActionKind.REPLAN)
        object.__setattr__(self, "stage", stage)
        object.__setattr__(self, "reason", reason)
        object.__setattr__(self, "estimate", estimate)
