"""Operator state tracking.

Stateful operators (windowed aggregations, joins, top-k) maintain per-task
processing state: intermediate aggregation results, source offsets, hash
tables (Section 5).  The reproduction tracks state as sized partitions
located at sites; balanced event partitioning (Section 7) keeps partitions
equal-sized, so scaling an operator from ``p`` to ``p'`` tasks shrinks the
per-task partition to ``|state| / p'`` - the property state partitioning
exploits to cut migration time (Sections 6.2 and 8.7.2).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import StateError


@dataclass
class StatePartition:
    """One task's slice of an operator's state, resident at a site."""

    stage_name: str
    site: str
    size_mb: float

    def __post_init__(self) -> None:
        if self.size_mb < 0:
            raise StateError(
                f"state partition for {self.stage_name!r} at {self.site!r}: "
                f"size must be >= 0, got {self.size_mb}"
            )


class StateStore:
    """Locations and sizes of every stage's state partitions.

    The store intentionally mirrors *deployment*, not content: one partition
    per task, co-located with the task (WASP stores every state locally,
    Section 5).  Re-balancing after scaling redistributes sizes evenly.
    """

    def __init__(self) -> None:
        self._partitions: dict[str, list[StatePartition]] = {}

    def initialize_stage(
        self, stage_name: str, total_mb: float, task_sites: list[str]
    ) -> None:
        """(Re-)create balanced partitions for a stage's current tasks."""
        if total_mb < 0:
            raise StateError(f"total_mb must be >= 0, got {total_mb}")
        if not task_sites:
            self._partitions[stage_name] = []
            return
        share = total_mb / len(task_sites)
        self._partitions[stage_name] = [
            StatePartition(stage_name, site, share) for site in task_sites
        ]

    def partitions(self, stage_name: str) -> list[StatePartition]:
        return list(self._partitions.get(stage_name, []))

    def total_mb(self, stage_name: str) -> float:
        return sum(p.size_mb for p in self._partitions.get(stage_name, []))

    def sites(self, stage_name: str) -> list[str]:
        return [p.site for p in self._partitions.get(stage_name, [])]

    def mb_at_site(self, stage_name: str, site: str) -> float:
        return sum(
            p.size_mb
            for p in self._partitions.get(stage_name, [])
            if p.site == site
        )

    def set_total_mb(self, stage_name: str, total_mb: float) -> None:
        """Grow/shrink a stage's state in place, keeping the partitioning."""
        parts = self._partitions.get(stage_name)
        if not parts:
            raise StateError(f"stage {stage_name!r} has no state partitions")
        share = total_mb / len(parts)
        for part in parts:
            part.size_mb = share

    def rebalance(self, stage_name: str, task_sites: list[str]) -> None:
        """Repartition the stage's state evenly over the given task sites.

        Used after scale-out/scale-down: the total is preserved, the
        partition count follows the new task count.
        """
        total = self.total_mb(stage_name)
        self.initialize_stage(stage_name, total, task_sites)

    def drop_stage(self, stage_name: str) -> None:
        """Discard all state for a stage (stage removed by re-planning)."""
        self._partitions.pop(stage_name, None)

    def stage_names(self) -> list[str]:
        return sorted(self._partitions)

    def snapshot(self) -> dict[str, list[StatePartition]]:
        """Deep copy of every partition, for adaptation rollback."""
        return {
            name: [
                StatePartition(p.stage_name, p.site, p.size_mb)
                for p in parts
            ]
            for name, parts in self._partitions.items()
        }

    def restore(self, snapshot: dict[str, list[StatePartition]]) -> None:
        """Restore a :meth:`snapshot` exactly (sizes and locations)."""
        self._partitions = {
            name: [
                StatePartition(p.stage_name, p.site, p.size_mb)
                for p in parts
            ]
            for name, parts in snapshot.items()
        }
