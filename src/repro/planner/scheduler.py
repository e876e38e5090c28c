"""Scheduler: deploys physical plans onto the topology (Section 3.1).

The scheduler is deliberately mechanical: it owns slot accounting and task
lists, nothing else.  Deciding *where* tasks go is the placement solver's
job (:mod:`repro.planner.placement`); deciding *when and what* to change is
the Reconfiguration Manager's (:mod:`repro.core.controller`).  Keeping the
mutation surface small makes every adaptation action auditable: each one is
a diff of (stage, site, count) allocations.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..engine.physical import PhysicalPlan, Stage
from ..errors import InsufficientSlotsError, SchedulingError
from ..network.topology import Topology


@dataclass(frozen=True)
class AssignmentDiff:
    """The slot-level effect of one stage mutation."""

    stage: str
    added: dict[str, int]
    removed: dict[str, int]


class Scheduler:
    """Allocates slots and maintains task lists for one running query."""

    def __init__(self, topology: Topology) -> None:
        self._topology = topology
        self._initial_slots: int | None = None

    @property
    def topology(self) -> Topology:
        return self._topology

    @property
    def initial_slots(self) -> int | None:
        """Slots of this query's initial deployment, i.e. its plan's tasks
        (baseline for the "extra slots" series of Figure 10c: a run's extra
        slots are its plan's tasks beyond these, whatever other queries on
        the same topology hold)."""
        return self._initial_slots

    # ------------------------------------------------------------------ #
    # Deployment
    # ------------------------------------------------------------------ #

    def deploy(
        self, plan: PhysicalPlan, assignments: dict[str, dict[str, int]]
    ) -> None:
        """Initial deployment: create all tasks and claim their slots."""
        for stage in plan.topological_stages():
            assignment = assignments.get(stage.name)
            if not assignment:
                raise SchedulingError(
                    f"no assignment for stage {stage.name!r}"
                )
            if stage.tasks:
                raise SchedulingError(
                    f"stage {stage.name!r} already has tasks deployed"
                )
            self._apply_stage_assignment(stage, assignment)
            stage.initial_parallelism = stage.parallelism
        if self._initial_slots is None:
            self._initial_slots = plan.total_parallelism()

    def undeploy(self, plan: PhysicalPlan) -> None:
        """Tear down every task of the plan and release its slots."""
        for stage in plan.topological_stages():
            for task in list(stage.tasks):
                self._release_site(task.site)
            stage.clear_tasks()

    # ------------------------------------------------------------------ #
    # Mutations
    # ------------------------------------------------------------------ #

    def apply_assignment(
        self, stage: Stage, new_assignment: dict[str, int]
    ) -> AssignmentDiff:
        """Reshape a stage to ``new_assignment`` (re-assign / scale).

        Tasks that can stay at their original sites are not touched
        (Section 4.1: only ``S - S'`` is migrated).  Returns the diff so the
        caller can plan state migrations for the moved tasks.
        """
        current = stage.placement()
        added: dict[str, int] = {}
        removed: dict[str, int] = {}
        for site in sorted(set(current) | set(new_assignment)):
            delta = new_assignment.get(site, 0) - current.get(site, 0)
            if delta > 0:
                added[site] = delta
            elif delta < 0:
                removed[site] = -delta
        # Allocate first so a failure leaves the stage intact.
        for site, count in added.items():
            try:
                self._topology.site(site).allocate(count)
            except InsufficientSlotsError:
                # Roll back what this call already allocated.
                for done_site, done_count in added.items():
                    if done_site == site:
                        break
                    self._topology.site(done_site).release(done_count)
                raise
        for site, count in removed.items():
            for _ in range(count):
                stage.remove_task_at(site)
            self._release_site(site, count)
        for site, count in added.items():
            for _ in range(count):
                stage.add_task(site)
        return AssignmentDiff(stage=stage.name, added=added, removed=removed)

    def remove_task(self, stage: Stage, site: str) -> AssignmentDiff:
        """Scale down by one task at ``site`` (Section 4.2 removes one per
        iteration, prioritizing performance stability)."""
        target = stage.placement()
        if target.get(site, 0) < 1:
            raise SchedulingError(
                f"stage {stage.name!r} has no task at {site!r} to remove"
            )
        target[site] -= 1
        if target[site] == 0:
            del target[site]
        if not target:
            raise SchedulingError(
                f"cannot remove the last task of stage {stage.name!r}"
            )
        return self.apply_assignment(stage, target)

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #

    def _apply_stage_assignment(
        self, stage: Stage, assignment: dict[str, int]
    ) -> None:
        for site, count in sorted(assignment.items()):
            if count < 0:
                raise SchedulingError(
                    f"negative task count for {stage.name!r} at {site!r}"
                )
            self._topology.site(site).allocate(count)
            for _ in range(count):
                stage.add_task(site)

    def _release_site(self, site: str, count: int = 1) -> None:
        # A task leaving a site frees its slot, failed site or not: a
        # crashed site keeps its tasks (and their slots) until a re-assign
        # moves them.
        self._topology.site(site).release(count)
