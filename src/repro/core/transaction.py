"""Transactional execution support for adaptation actions.

WASP's whole premise is surviving wide-area dynamics, yet a dynamic can
strike *while an adaptation is being applied*: a destination site dies with
a state transfer in flight, a link collapses between suspend and resume.  A
non-transactional controller then leaves a stage half-reassigned with
stranded state.  This module provides the rollback unit: a snapshot of every
piece of system state the controller's apply path can mutate -

* slot accounting (the topology's per-site used counters),
* task lists (which stage runs where),
* the engine's mutable execution state (queues, suspensions, plan),
* the state store's partitions,
* the checkpoint coordinator's records, and
* the controller's loss counter.

Environment facts - failures, slot revocations, bandwidth factors,
straggler slowdowns - are deliberately *not* captured: a rollback restores
the deployment, never the world that broke it.

The controller drives the transaction through the standard lifecycle:
validate -> snapshot -> apply -> verify -> commit, rolling back to the
snapshot on any :class:`~repro.errors.WaspError` and falling through the
Figure-6 technique chain (retry with re-measured bandwidth, scale-out with
state partitioning, abandon state).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..engine.checkpoint import CheckpointRecord
    from ..engine.physical import Task
    from ..engine.runtime import RuntimeSnapshot
    from ..engine.state import StatePartition
    from .controller import AdaptationRecord, ReconfigurationManager


class AdaptationPoint(enum.Enum):
    """Interleaving points the transactional executor exposes to chaos.

    The chaos injector can register a hook on the controller and fire
    faults exactly here - the interleavings the paper's dynamics make
    likely but ad-hoc testing never provokes.
    """

    #: A migration plan with at least one transfer has been computed and is
    #: conceptually crossing the WAN.
    MIGRATION_IN_FLIGHT = "migration-in-flight"
    #: The stage has been suspended for the transition and has not resumed.
    BETWEEN_SUSPEND_RESUME = "between-suspend-resume"


@dataclass(frozen=True)
class AttemptRecord:
    """One entry of the adaptation log: an attempt of the technique chain
    and its outcome.  A committed attempt carries the committed action's
    :class:`~repro.core.controller.AdaptationRecord`."""

    t_s: float
    stage: str
    attempt: str  # "primary", "retry-1", "scale-out", "abandon-state"
    outcome: str  # "committed", "rolled-back", "abandoned"
    detail: str = ""
    record: "AdaptationRecord | None" = None


@dataclass
class AdaptationTransaction:
    """Snapshot of everything one adaptation action may mutate."""

    used_slots: dict[str, int]
    stage_tasks: dict[str, list["Task"]]
    runtime: "RuntimeSnapshot"
    state_partitions: dict[str, list["StatePartition"]]
    checkpoint_records: dict[tuple[str, str], "CheckpointRecord"]
    state_lost_mb: float

    @classmethod
    def begin(cls, manager: "ReconfigurationManager") -> "AdaptationTransaction":
        """Capture the snapshot."""
        plan = manager.runtime.plan
        return cls(
            used_slots=manager.runtime.topology.slot_snapshot(),
            stage_tasks={
                name: list(stage.tasks) for name, stage in plan.stages.items()
            },
            runtime=manager.runtime.mutation_snapshot(),
            state_partitions=manager.state_store.snapshot(),
            checkpoint_records=manager.checkpoints.snapshot_records(),
            state_lost_mb=manager.state_lost_mb,
        )

    def rollback(self, manager: "ReconfigurationManager") -> None:
        """Restore every captured mutation (idempotent)."""
        abandoned_plan = manager.runtime.plan
        manager.runtime.restore_mutation_snapshot(self.runtime)
        plan = manager.runtime.plan
        if abandoned_plan is not plan:
            # A re-plan deployed tasks onto the replacement plan's stages;
            # clear them so the replanner may propose that plan again later
            # (deploy refuses stages that already carry tasks).
            for stage in abandoned_plan.stages.values():
                stage.clear_tasks()
        for name, tasks in self.stage_tasks.items():
            if name in plan.stages:
                plan.stages[name].set_tasks(list(tasks))
        manager.runtime.topology.restore_slot_snapshot(self.used_slots)
        manager.state_store.restore(self.state_partitions)
        manager.checkpoints.restore_records(self.checkpoint_records)
        manager.state_lost_mb = self.state_lost_mb
