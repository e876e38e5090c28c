"""Tests for repro.engine.checkpoint - localized checkpointing."""

import math

import pytest

from repro.engine.checkpoint import CheckpointCoordinator
from repro.engine.state import StateStore


def staleness_s(
    coordinator: CheckpointCoordinator, stage_name: str, site: str,
    now_s: float,
) -> float:
    """Age of the newest local snapshot (infinite if none exists)."""
    record = coordinator.record(stage_name, site)
    if record is None:
        return float("inf")
    return now_s - record.taken_at_s


@pytest.fixture
def store():
    s = StateStore()
    s.initialize_stage("agg", 60.0, ["a", "b"])
    return s


class TestCheckpointing:
    def test_snapshots_every_partition_locally(self, store):
        coordinator = CheckpointCoordinator(store)
        records = coordinator.checkpoint_all(10.0)
        assert {(r.stage_name, r.site) for r in records} == {
            ("agg", "a"),
            ("agg", "b"),
        }
        assert all(r.size_mb == pytest.approx(30.0) for r in records)

    def test_record_lookup(self, store):
        coordinator = CheckpointCoordinator(store)
        coordinator.checkpoint_all(10.0)
        record = coordinator.record("agg", "a")
        assert record is not None and record.taken_at_s == 10.0

    def test_two_partitions_same_site_aggregate(self):
        store = StateStore()
        store.initialize_stage("agg", 60.0, ["a", "a"])
        coordinator = CheckpointCoordinator(store)
        records = coordinator.checkpoint_all(0.0)
        assert len(records) == 1
        assert records[0].size_mb == pytest.approx(60.0)


class TestMigrationSupport:
    def test_migration_mb_uses_live_partition(self, store):
        coordinator = CheckpointCoordinator(store)
        coordinator.checkpoint_all(0.0)
        store.set_total_mb("agg", 120.0)  # state grew since the snapshot
        assert coordinator.migration_mb("agg", "a") == pytest.approx(60.0)

    def test_staleness(self, store):
        coordinator = CheckpointCoordinator(store)
        coordinator.checkpoint_all(10.0)
        staleness = staleness_s(coordinator, "agg", "a", 25.0)
        assert staleness == pytest.approx(15.0)

    def test_staleness_infinite_without_snapshot(self, store):
        coordinator = CheckpointCoordinator(store)
        assert math.isinf(staleness_s(coordinator, "agg", "a", 0.0))

    def test_forget_site(self, store):
        coordinator = CheckpointCoordinator(store)
        coordinator.checkpoint_all(0.0)
        coordinator.forget_site("agg", "a")
        assert coordinator.record("agg", "a") is None
        assert coordinator.record("agg", "b") is not None


class TestSkipSites:
    def test_skipped_site_keeps_its_stale_snapshot(self, store):
        coordinator = CheckpointCoordinator(store)
        coordinator.checkpoint_all(10.0)
        coordinator.checkpoint_all(40.0, skip_sites={"a"})
        # "a" failed: its record stays at t=10, "b" advances to t=40.
        assert coordinator.record("agg", "a").taken_at_s == 10.0
        assert coordinator.record("agg", "b").taken_at_s == 40.0

    def test_skipped_site_without_prior_snapshot_has_none(self, store):
        coordinator = CheckpointCoordinator(store)
        records = coordinator.checkpoint_all(10.0, skip_sites={"a"})
        assert {r.site for r in records} == {"b"}
        assert coordinator.record("agg", "a") is None
        assert math.isinf(staleness_s(coordinator, "agg", "a", 10.0))


class TestCheckpointLossAndRollback:
    def test_forget_all_at_site(self):
        store = StateStore()
        store.initialize_stage("agg", 60.0, ["a", "b"])
        store.initialize_stage("join", 20.0, ["a"])
        coordinator = CheckpointCoordinator(store)
        coordinator.checkpoint_all(10.0)
        lost = coordinator.forget_all_at_site("a")
        assert lost == ["agg", "join"]
        assert coordinator.record("agg", "a") is None
        assert coordinator.record("join", "a") is None
        assert coordinator.record("agg", "b") is not None

    def test_forget_all_at_empty_site_returns_nothing(self, store):
        coordinator = CheckpointCoordinator(store)
        coordinator.checkpoint_all(10.0)
        assert coordinator.forget_all_at_site("zzz") == []

    def test_snapshot_restore_roundtrip(self, store):
        coordinator = CheckpointCoordinator(store)
        coordinator.checkpoint_all(10.0)
        snapshot = coordinator.snapshot_records()
        coordinator.forget_all_at_site("a")
        coordinator.checkpoint_all(50.0, skip_sites={"a"})
        coordinator.restore_records(snapshot)
        assert coordinator.record("agg", "a").taken_at_s == 10.0
        assert coordinator.record("agg", "b").taken_at_s == 10.0
