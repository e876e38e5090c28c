"""Localized checkpointing (Section 5).

Conventional engines checkpoint task state to a *rendezvous* store (HDFS),
which in a wide-area deployment means shipping every snapshot over the WAN.
WASP instead checkpoints each task's state **locally** (or to nearby
storage); only when a task is migrated to a different site does the
Checkpoint Coordinator initiate a state transfer, and the task resumes only
after the transfer completes.

The coordinator here tracks, per stage and site, the size and age of the
latest local snapshot, and answers the two questions the controller asks:

* how much data must cross the WAN to move a task from site A to site B
  (``migration_mb``), and
* how much progress is lost if state is abandoned instead (``staleness``) -
  the "No Migrate" baseline of Section 8.7.1 pays this in accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import CheckpointError
from ..obs.events import Checkpoint, EventBus
from .state import StateStore


@dataclass(frozen=True)
class CheckpointRecord:
    """Latest completed local snapshot for one (stage, site) pair."""

    stage_name: str
    site: str
    size_mb: float
    taken_at_s: float


class CheckpointCoordinator:
    """Takes periodic local snapshots of every stateful stage's partitions."""

    def __init__(
        self,
        store: StateStore,
        interval_s: float = 30.0,
        *,
        obs: EventBus | None = None,
    ) -> None:
        if interval_s <= 0:
            raise CheckpointError(f"interval_s must be > 0, got {interval_s}")
        self._store = store
        self._interval_s = float(interval_s)
        self._records: dict[tuple[str, str], CheckpointRecord] = {}
        self._last_checkpoint_s = float("-inf")
        #: The event bus (repro.obs) checkpoint rounds are announced on.
        self.obs = obs if obs is not None else EventBus()

    @property
    def interval_s(self) -> float:
        return self._interval_s

    @property
    def last_checkpoint_s(self) -> float:
        return self._last_checkpoint_s

    def checkpoint_all(
        self, now_s: float, *, skip_sites: frozenset[str] | set[str] = frozenset()
    ) -> list[CheckpointRecord]:
        """Snapshot every partition locally; returns the records written.

        ``skip_sites`` (typically the currently-failed sites) keep their
        previous snapshot: a failed site cannot take a checkpoint, and its
        stale record is exactly what recovery will restore from.
        """
        written: list[CheckpointRecord] = []
        for stage_name in self._store.stage_names():
            site_mb: dict[str, float] = {}
            for part in self._store.partitions(stage_name):
                site_mb[part.site] = site_mb.get(part.site, 0.0) + part.size_mb
            for site, mb in site_mb.items():
                if site in skip_sites:
                    continue
                record = CheckpointRecord(stage_name, site, mb, now_s)
                self._records[(stage_name, site)] = record
                written.append(record)
        self._last_checkpoint_s = now_s
        self.obs.emit(
            Checkpoint(
                now_s,
                records=len(written),
                total_mb=sum(r.size_mb for r in written),
                skipped_sites=sorted(skip_sites),
            )
        )
        return written

    def maybe_checkpoint(
        self, now_s: float, *, skip_sites: frozenset[str] | set[str] = frozenset()
    ) -> list[CheckpointRecord]:
        """Checkpoint if a full interval has elapsed since the last one."""
        if now_s - self._last_checkpoint_s + 1e-9 >= self._interval_s:
            return self.checkpoint_all(now_s, skip_sites=skip_sites)
        return []

    def record(self, stage_name: str, site: str) -> CheckpointRecord | None:
        return self._records.get((stage_name, site))

    def migration_mb(self, stage_name: str, from_site: str) -> float:
        """MB that must cross the WAN to move the partition at ``from_site``.

        Uses the live partition size (the checkpoint is brought up to date
        before a migration) rather than the possibly-stale snapshot.
        """
        return self._store.mb_at_site(stage_name, from_site)

    def staleness_s(self, stage_name: str, site: str, now_s: float) -> float:
        """Age of the newest local snapshot (infinite if none exists)."""
        record = self._records.get((stage_name, site))
        if record is None:
            return float("inf")
        return now_s - record.taken_at_s

    def forget_site(self, stage_name: str, site: str) -> None:
        """Drop records for a partition that moved away or was discarded."""
        self._records.pop((stage_name, site), None)

    def forget_all_at_site(self, site: str) -> list[str]:
        """Drop every stage's snapshot at ``site`` (checkpoint-loss fault).

        Returns the stages that lost a record; their recovery falls back to
        replaying from t=0 (staleness becomes infinite).
        """
        lost = [
            stage for (stage, s) in list(self._records) if s == site
        ]
        for stage in lost:
            self._records.pop((stage, site), None)
        return sorted(lost)

    def snapshot_records(self) -> dict[tuple[str, str], CheckpointRecord]:
        """Copy of the record table (records are frozen, shallow is exact)."""
        return dict(self._records)

    def restore_records(
        self, snapshot: dict[tuple[str, str], CheckpointRecord]
    ) -> None:
        """Restore a :meth:`snapshot_records` (adaptation rollback)."""
        self._records = dict(snapshot)
