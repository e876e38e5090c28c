"""Tests for repro.chaos.injector - scheduling and determinism."""

import numpy as np
import pytest

from repro.chaos import (
    BandwidthCollapse,
    ChaosInjector,
    ChaosTarget,
    SiteCrash,
    Straggler,
)
from repro.core.transaction import AdaptationPoint
from repro.errors import ChaosError
from repro.sim.recorder import RunRecorder


def make_injector(small_topology, seed=7, recorder=None):
    injector = ChaosInjector(
        np.random.default_rng(seed), recorder=recorder
    )
    target = ChaosTarget(topology=small_topology)
    return injector, target


class TestAtTrigger:
    def test_fires_once_at_first_tick_at_or_after(self, small_topology):
        injector, target = make_injector(small_topology)
        injector.at(10.0, SiteCrash("dc-2"))
        injector.attach(target)
        injector.tick(9.0)
        assert not small_topology.site("dc-2").failed
        injector.tick(10.0)
        assert small_topology.site("dc-2").failed
        # One-shot: recover manually and verify it does not re-fire.
        small_topology.site("dc-2").recover()
        injector.tick(11.0)
        assert not small_topology.site("dc-2").failed

    def test_negative_time_rejected(self, small_topology):
        injector, _ = make_injector(small_topology)
        with pytest.raises(ChaosError):
            injector.at(-1.0, SiteCrash("dc-2"))


class TestEveryTrigger:
    def test_fires_periodically_with_count_cap(self, small_topology):
        recorder = RunRecorder()
        injector, target = make_injector(small_topology, recorder=recorder)
        injector.every(
            10.0, Straggler("edge-x", slowdown=2.0), start_s=5.0, count=3
        )
        injector.attach(target)
        for t in range(40):
            injector.tick(float(t))
        fired = [f.t_s for f in recorder.faults if f.kind == "straggler"]
        assert fired == [5.0, 15.0, 25.0]


class TestProbabilityTrigger:
    def test_deterministic_for_a_seed(self, small_topology):
        def firing_ticks(seed):
            topo_recorder = RunRecorder()
            injector = ChaosInjector(
                np.random.default_rng(seed), recorder=topo_recorder
            )
            injector.with_probability(
                0.2, Straggler("edge-x", slowdown=2.0, duration_s=1.0),
                start_s=0.0, end_s=100.0,
            )
            injector.attach(ChaosTarget(topology=small_topology))
            for t in range(100):
                injector.tick(float(t))
            return [f.t_s for f in topo_recorder.faults
                    if f.kind == "straggler"]

        assert firing_ticks(7) == firing_ticks(7)
        assert firing_ticks(7) != firing_ticks(8)

    def test_adding_a_rule_does_not_perturb_earlier_rules(
        self, small_topology
    ):
        def first_rule_ticks(extra_rule):
            recorder = RunRecorder()
            injector = ChaosInjector(
                np.random.default_rng(7), recorder=recorder
            )
            injector.with_probability(
                0.2, Straggler("edge-x", slowdown=2.0, duration_s=1.0),
                end_s=100.0,
            )
            if extra_rule:
                injector.with_probability(
                    0.5, Straggler("dc-1", slowdown=2.0, duration_s=1.0),
                    end_s=100.0,
                )
            injector.attach(ChaosTarget(topology=small_topology))
            for t in range(100):
                injector.tick(float(t))
            return [
                f.t_s for f in recorder.faults
                if f.kind == "straggler" and "edge-x" in f.detail
            ]

        assert first_rule_ticks(False) == first_rule_ticks(True)

    def test_invalid_probability_rejected(self, small_topology):
        injector, _ = make_injector(small_topology)
        with pytest.raises(ChaosError):
            injector.with_probability(1.5, SiteCrash("dc-2"))


class TestDurationsAndReassert:
    def test_duration_bound_fault_reverts(self, small_topology):
        injector, target = make_injector(small_topology)
        injector.at(5.0, SiteCrash("dc-2", duration_s=10.0))
        injector.attach(target)
        injector.tick(5.0)
        assert small_topology.site("dc-2").failed
        injector.tick(14.0)
        assert small_topology.site("dc-2").failed
        injector.tick(15.0)
        assert not small_topology.site("dc-2").failed

    def test_continuous_fault_beats_external_writes(self, small_topology):
        injector, target = make_injector(small_topology)
        injector.at(
            0.0,
            BandwidthCollapse("dc-1", "dc-2", factor=0.0, duration_s=20.0),
        )
        injector.attach(target)
        injector.tick(0.0)
        # Scripted dynamics overwrite the factor between ticks...
        small_topology.set_bandwidth_factor("dc-1", "dc-2", 1.0)
        injector.tick(1.0)
        # ...but the injector reasserts its grip every tick.
        assert small_topology.bandwidth_mbps("dc-1", "dc-2") == 0.0
        injector.tick(20.0)
        assert small_topology.bandwidth_mbps("dc-1", "dc-2") == 100.0


class TestAttachValidation:
    def test_typoed_site_fails_at_attach_not_mid_run(self, small_topology):
        injector, target = make_injector(small_topology)
        injector.at(10.0, SiteCrash("dc-9000"))
        with pytest.raises(ChaosError):
            injector.attach(target)

    def test_point_rule_requires_a_manager(self, small_topology):
        injector, target = make_injector(small_topology)
        injector.at_point(
            AdaptationPoint.MIGRATION_IN_FLIGHT, SiteCrash("dc-2")
        )
        with pytest.raises(ChaosError):
            injector.attach(target)

    def test_rule_added_after_attach_is_validated(self, small_topology):
        injector, target = make_injector(small_topology)
        injector.attach(target)
        with pytest.raises(ChaosError):
            injector.at(10.0, SiteCrash("dc-9000"))
        with pytest.raises(ChaosError):
            injector.at_point(
                AdaptationPoint.MIGRATION_IN_FLIGHT, SiteCrash("dc-2")
            )
        injector.at(10.0, SiteCrash("dc-2"))
        injector.tick(10.0)
        assert small_topology.site("dc-2").failed

    def test_tick_before_attach_rejected(self, small_topology):
        injector, _ = make_injector(small_topology)
        with pytest.raises(ChaosError):
            injector.tick(0.0)


class TestRecording:
    def test_fault_timeline_is_recorded(self, small_topology):
        recorder = RunRecorder()
        injector, target = make_injector(small_topology, recorder=recorder)
        injector.at(5.0, SiteCrash("dc-2", duration_s=5.0))
        injector.attach(target)
        for t in range(12):
            injector.tick(float(t))
        kinds = [(f.t_s, f.kind) for f in recorder.faults]
        assert kinds == [(5.0, "site-crash"), (10.0, "site-crash:revert")]
