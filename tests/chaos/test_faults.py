"""Tests for repro.chaos.faults - the fault vocabulary."""

import pytest

from repro.chaos.faults import (
    BandwidthCollapse,
    ChaosTarget,
    CheckpointLoss,
    LinkFlap,
    SiteCrash,
    SlotRevocation,
    Straggler,
)
from repro.engine.checkpoint import CheckpointCoordinator
from repro.engine.state import StateStore
from repro.errors import ChaosError


@pytest.fixture
def target(small_topology):
    return ChaosTarget(topology=small_topology)


class TestSiteCrash:
    def test_apply_fails_site_and_revert_recovers(self, target):
        fault = SiteCrash("dc-2", duration_s=30.0)
        fault.validate(target)
        detail, state = fault.apply(target, 10.0)
        assert target.topology.site("dc-2").failed
        assert "crashed" in detail
        fault.revert(target, 40.0, state)
        assert not target.topology.site("dc-2").failed

    def test_does_not_recover_a_site_it_did_not_crash(self, target):
        target.topology.site("dc-2").fail()
        fault = SiteCrash("dc-2", duration_s=30.0)
        _, state = fault.apply(target, 10.0)
        fault.revert(target, 40.0, state)
        # Someone else holds the site down; chaos must not undo that.
        assert target.topology.site("dc-2").failed

    def test_callbacks_take_precedence(self, small_topology):
        failed, recovered = [], []
        target = ChaosTarget(
            topology=small_topology,
            fail_site=lambda name, t: failed.append((name, t)),
            recover_site=lambda name, t: recovered.append((name, t)),
        )
        fault = SiteCrash("dc-1", duration_s=5.0)
        _, state = fault.apply(target, 1.0)
        fault.revert(target, 6.0, state)
        assert failed == [("dc-1", 1.0)]
        # revert only fires when apply actually crashed via the fault; the
        # callback did not mark the site failed, so apply saw it healthy.
        assert recovered == [("dc-1", 6.0)]

    def test_unknown_site_rejected(self, target):
        with pytest.raises(ChaosError):
            SiteCrash("nope").validate(target)

    def test_whole_testbed_crashes_every_live_site(self, target):
        fault = SiteCrash(None, duration_s=60.0)
        fault.validate(target)
        detail, state = fault.apply(target, 10.0)
        assert all(site.failed for site in target.topology)
        assert detail == "edge-x, dc-1, dc-2 crashed"
        assert fault.revert(target, 70.0, state) == (
            "edge-x, dc-1, dc-2 recovered"
        )
        assert not any(site.failed for site in target.topology)

    def test_whole_testbed_revert_keeps_a_site_that_was_down(self, target):
        target.topology.site("dc-1").fail()
        fault = SiteCrash(None, duration_s=60.0)
        detail, state = fault.apply(target, 10.0)
        assert detail == "edge-x, dc-2 crashed"
        fault.revert(target, 70.0, state)
        assert target.topology.site("dc-1").failed
        assert not target.topology.site("edge-x").failed
        assert not target.topology.site("dc-2").failed

    def test_whole_testbed_revert_follows_topology_order(self, small_topology):
        recovered = []
        target = ChaosTarget(
            topology=small_topology,
            recover_site=lambda name, t: recovered.append(name),
        )
        fault = SiteCrash(None, duration_s=60.0)
        _, state = fault.apply(target, 10.0)
        fault.revert(target, 70.0, state)
        assert recovered == small_topology.site_names

    def test_whole_testbed_with_every_site_down_is_a_no_op(self, target):
        for site in target.topology:
            site.fail()
        detail, state = SiteCrash(None).apply(target, 10.0)
        assert detail == "every site already failed"
        assert SiteCrash(None).revert(target, 20.0, state) == ""

    def test_non_positive_duration_rejected(self, target):
        with pytest.raises(ChaosError):
            SiteCrash("dc-1", duration_s=0.0).validate(target)


class TestBandwidthCollapse:
    def test_apply_scales_link_and_revert_restores(self, target):
        fault = BandwidthCollapse("dc-1", "dc-2", factor=0.0)
        fault.validate(target)
        fault.apply(target, 0.0)
        assert target.topology.bandwidth_mbps("dc-1", "dc-2") == 0.0
        fault.revert(target, 10.0, None)
        assert target.topology.bandwidth_mbps("dc-1", "dc-2") == 100.0

    def test_reassert_wins_over_scripted_dynamics(self, target):
        fault = BandwidthCollapse("dc-1", "dc-2", factor=0.1)
        fault.apply(target, 0.0)
        # A global bandwidth schedule overwrites the factor mid-fault...
        target.topology.set_global_bandwidth_factor(1.0)
        assert target.topology.bandwidth_mbps("dc-1", "dc-2") == 100.0
        # ...but the injector reasserts the fault every tick.
        fault.reassert(target, 1.0, None)
        assert target.topology.bandwidth_mbps("dc-1", "dc-2") == 10.0

    def test_undefined_link_rejected(self, target):
        with pytest.raises(ChaosError):
            BandwidthCollapse("dc-1", "nope").validate(target)

    def test_negative_factor_rejected(self, target):
        with pytest.raises(ChaosError):
            BandwidthCollapse("dc-1", "dc-2", factor=-1.0).validate(target)


class TestLinkFlap:
    def test_phases_alternate(self, target):
        fault = LinkFlap(
            "dc-1", "dc-2", factor=0.0, down_s=10.0, up_s=5.0,
            duration_s=60.0,
        )
        fault.validate(target)
        _, anchor = fault.apply(target, 100.0)
        assert target.topology.bandwidth_mbps("dc-1", "dc-2") == 0.0
        fault.reassert(target, 109.0, anchor)  # 9 s in: still down
        assert target.topology.bandwidth_mbps("dc-1", "dc-2") == 0.0
        fault.reassert(target, 112.0, anchor)  # 12 s in: up phase
        assert target.topology.bandwidth_mbps("dc-1", "dc-2") == 100.0
        fault.reassert(target, 116.0, anchor)  # 16 s in: down again
        assert target.topology.bandwidth_mbps("dc-1", "dc-2") == 0.0
        fault.revert(target, 160.0, anchor)
        assert target.topology.bandwidth_mbps("dc-1", "dc-2") == 100.0

    def test_non_positive_phase_rejected(self, target):
        with pytest.raises(ChaosError):
            LinkFlap("dc-1", "dc-2", down_s=0.0).validate(target)


class TestStraggler:
    def test_apply_and_revert(self, target):
        fault = Straggler("edge-x", slowdown=4.0, duration_s=20.0)
        fault.validate(target)
        fault.apply(target, 0.0)
        assert target.topology.site("edge-x").slowdown == 4.0
        fault.revert(target, 20.0, None)
        assert target.topology.site("edge-x").slowdown == 1.0

    def test_sub_unity_slowdown_rejected(self, target):
        with pytest.raises(ChaosError):
            Straggler("edge-x", slowdown=0.5).validate(target)


class TestCheckpointLoss:
    def _coordinator(self):
        store = StateStore()
        store.initialize_stage("agg", 10.0, ["dc-1"])
        store.initialize_stage("join", 5.0, ["dc-1", "dc-2"])
        coordinator = CheckpointCoordinator(store)
        coordinator.checkpoint_all(30.0)
        return coordinator

    def test_drops_every_record_at_site(self, small_topology):
        coordinator = self._coordinator()
        target = ChaosTarget(
            topology=small_topology, checkpoints=coordinator
        )
        fault = CheckpointLoss("dc-1")
        fault.validate(target)
        detail, _ = fault.apply(target, 40.0)
        assert coordinator.record("agg", "dc-1") is None
        assert coordinator.record("join", "dc-1") is None
        assert coordinator.record("join", "dc-2") is not None
        assert "agg" in detail and "join" in detail

    def test_requires_a_coordinator(self, target):
        with pytest.raises(ChaosError):
            CheckpointLoss("dc-1").validate(target)

    def test_no_records_is_harmless(self, small_topology):
        target = ChaosTarget(
            topology=small_topology,
            checkpoints=CheckpointCoordinator(StateStore()),
        )
        detail, _ = CheckpointLoss("dc-1").apply(target, 0.0)
        assert "no checkpoints" in detail


class TestSlotRevocation:
    def test_revokes_only_free_slots(self, target):
        site = target.topology.site("edge-x")
        site.allocate(3)  # 1 of 4 free
        fault = SlotRevocation("edge-x", count=10, duration_s=30.0)
        fault.validate(target)
        detail, state = fault.apply(target, 0.0)
        assert state == 1
        assert site.total_slots == 3
        assert "1 slot" in detail

    def test_revert_restores_the_actual_count(self, target):
        site = target.topology.site("edge-x")
        site.allocate(2)
        fault = SlotRevocation("edge-x", count=2, duration_s=30.0)
        _, state = fault.apply(target, 0.0)
        assert site.total_slots == 2
        fault.revert(target, 30.0, state)
        assert site.total_slots == 4

    def test_zero_count_rejected(self, target):
        with pytest.raises(ChaosError):
            SlotRevocation("edge-x", count=0).validate(target)
