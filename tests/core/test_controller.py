"""Tests for repro.core.controller - the Reconfiguration Manager."""

import numpy as np
import pytest

from repro.config import WaspConfig
from repro.core.actions import (
    ActionKind,
    ReassignAction,
    ScaleAction,
    ScaleDownAction,
)
from repro.core.controller import (
    RECONFIG_BASE_OVERHEAD_S,
    ReconfigurationManager,
)
from repro.core.migration import MigrationStrategy
from repro.core.replanning import Replanner
from repro.engine.checkpoint import CheckpointCoordinator
from repro.engine.logical import LogicalPlan
from repro.engine.operators import filter_, sink, source, window_aggregate
from repro.engine.physical import PhysicalPlan
from repro.engine.runtime import EngineRuntime, WorkloadModel
from repro.engine.state import StateStore
from repro.network.monitor import WanMonitor
from repro.planner.scheduler import Scheduler
from tests.engine.backlog import input_backlog, net_backlog_for
from tests.slots import fully_deployed


class ConstantWorkload(WorkloadModel):
    def __init__(self, rates):
        self.rates = dict(rates)
        self.base_rate_eps = self.rates.get

    def generation_eps(self, source_stage, t_s):
        return self.rates.get(source_stage, 0.0)


def build_manager(topology, *, rate=1000.0, state_mb=10.0,
                  migration_strategy=MigrationStrategy.WASP,
                  config=None):
    ops = [
        source("src", "edge-x", event_bytes=200),
        filter_("flt", selectivity=0.5, event_bytes=100),
        window_aggregate("agg", window_s=10, selectivity=0.01,
                         state_mb=state_mb),
        sink("out"),
    ]
    logical = LogicalPlan.from_edges(
        "q", ops, [("src", "flt"), ("flt", "agg"), ("agg", "out")]
    )
    physical = PhysicalPlan(logical)
    scheduler = Scheduler(topology)
    scheduler.deploy(
        physical,
        {"src": {"edge-x": 1}, "agg": {"dc-1": 1}, "out": {"dc-1": 1}},
    )
    state_store = StateStore()
    state_store.initialize_stage("agg", state_mb, ["dc-1"])
    config = config or WaspConfig.paper_defaults()
    runtime = EngineRuntime(
        topology, physical, ConstantWorkload({"src": rate})
    )
    monitor = WanMonitor(topology, np.random.default_rng(0))
    monitor.refresh()
    manager = ReconfigurationManager(
        runtime,
        scheduler,
        monitor,
        state_store,
        CheckpointCoordinator(state_store),
        config=config,
        migration_strategy=migration_strategy,
        rng=np.random.default_rng(1),
    )
    return manager


class TestReassignExecution:
    def test_moves_tasks_and_state(self, small_topology):
        manager = build_manager(small_topology)
        for _ in range(5):
            manager.runtime.tick()
        record = manager.execute(
            ReassignAction("agg", "test", {"dc-2": 1}), now_s=5.0
        )
        assert record.kind is ActionKind.REASSIGN
        stage = manager.runtime.plan.stage("agg")
        assert stage.placement() == {"dc-2": 1}
        assert manager.state_store.sites("agg") == ["dc-2"]

    def test_transition_includes_migration_time(self, small_topology):
        manager = build_manager(small_topology, state_mb=100.0)
        record = manager.execute(
            ReassignAction("agg", "test", {"dc-2": 1}), now_s=0.0
        )
        # 100 MB over the 100 Mbps dc-1 -> dc-2 link = 8 s + base overhead.
        assert record.transition_s == pytest.approx(
            RECONFIG_BASE_OVERHEAD_S + 8.0
        )
        assert manager.runtime.is_suspended("agg")

    def test_in_flight_traffic_redirected(self, small_topology):
        manager = build_manager(small_topology, rate=60_000.0)
        for _ in range(10):
            manager.runtime.tick()
        assert net_backlog_for(manager.runtime, "agg")
        manager.execute(
            ReassignAction("agg", "test", {"dc-2": 1}), now_s=10.0
        )
        backlog = net_backlog_for(manager.runtime, "agg")
        assert all(dst == "dc-2" for _, dst in backlog)

    def test_none_strategy_loses_state(self, small_topology):
        manager = build_manager(
            small_topology, state_mb=50.0,
            migration_strategy=MigrationStrategy.NONE,
        )
        record = manager.execute(
            ReassignAction("agg", "test", {"dc-2": 1}), now_s=0.0
        )
        assert manager.state_lost_mb == pytest.approx(50.0)
        assert record.transition_s == pytest.approx(
            RECONFIG_BASE_OVERHEAD_S
        )
        # The state restarts empty at the new site.
        assert manager.state_store.total_mb("agg") == 0.0


class TestScaleExecution:
    def test_scale_out_partitions_state(self, small_topology):
        manager = build_manager(small_topology, state_mb=90.0)
        record = manager.execute(
            ScaleAction("agg", "test", {"dc-1": 1, "dc-2": 1},
                        cross_site=True),
            now_s=0.0,
        )
        assert manager.runtime.plan.stage("agg").parallelism == 2
        assert manager.state_store.mb_at_site("agg", "dc-2") == (
            pytest.approx(45.0)
        )
        # Only the 45 MB slice crossed the WAN: 45 MB / 100 Mbps = 3.6 s.
        assert record.transition_s == pytest.approx(
            RECONFIG_BASE_OVERHEAD_S + 3.6
        )

    def test_scale_up_local_no_migration(self, small_topology):
        manager = build_manager(small_topology, state_mb=90.0)
        record = manager.execute(
            ScaleAction("agg", "test", {"dc-1": 2}, cross_site=False),
            now_s=0.0,
        )
        assert record.transition_s == pytest.approx(
            RECONFIG_BASE_OVERHEAD_S
        )

    def test_scale_that_vacates_site_rehomes_queues(self, small_topology):
        manager = build_manager(small_topology, rate=120_000.0)
        for _ in range(10):
            manager.runtime.tick()
        manager.execute(
            ScaleAction("agg", "test", {"dc-2": 2}, cross_site=True),
            now_s=10.0,
        )
        # Nothing may remain keyed to the vacated site dc-1.
        assert input_backlog(manager.runtime, "agg", "dc-1") == 0.0


class TestScaleDownExecution:
    def test_removes_task_and_merges_state(self, small_topology):
        manager = build_manager(small_topology, state_mb=60.0)
        manager.scheduler.apply_assignment(
            manager.runtime.plan.stage("agg"), {"dc-1": 1, "dc-2": 1}
        )
        manager.state_store.rebalance("agg", ["dc-1", "dc-2"])
        record = manager.execute(
            ScaleDownAction("agg", "test", "dc-2"), now_s=0.0
        )
        assert manager.runtime.plan.stage("agg").placement() == {"dc-1": 1}
        assert manager.state_store.mb_at_site("agg", "dc-1") == (
            pytest.approx(60.0)
        )
        assert record.kind is ActionKind.SCALE_DOWN


class TestReplanExecution:
    @staticmethod
    def variants():
        def variant(name, relay_bytes):
            ops = [
                source("src", "edge-x", event_bytes=200),
                filter_("flt", selectivity=0.5, event_bytes=relay_bytes),
                window_aggregate(
                    "agg", window_s=10, selectivity=0.01, state_mb=10
                ),
                sink("out"),
            ]
            return LogicalPlan.from_edges(
                name, ops,
                [("src", "flt"), ("flt", "agg"), ("agg", "out")],
            )

        return [variant("v0", 100), variant("v1", 40)]

    def build(self, topology):
        variants = self.variants()
        physical = PhysicalPlan(variants[0])
        scheduler = Scheduler(topology)
        scheduler.deploy(
            physical,
            {"src": {"edge-x": 1}, "agg": {"dc-1": 1}, "out": {"dc-1": 1}},
        )
        state_store = StateStore()
        state_store.initialize_stage("agg", 10.0, ["dc-1"])
        config = WaspConfig.paper_defaults()
        runtime = EngineRuntime(
            topology, physical, ConstantWorkload({"src": 1000.0})
        )
        monitor = WanMonitor(topology, np.random.default_rng(0))
        monitor.refresh()
        manager = ReconfigurationManager(
            runtime, scheduler, monitor, state_store,
            CheckpointCoordinator(state_store),
            replanner=Replanner(variants),
            config=config,
        )
        return manager, variants

    def test_replan_swaps_plan_and_keeps_state(self, small_topology):
        from repro.core.actions import ReplanAction
        from repro.planner.cost import estimate_deployment

        manager, variants = self.build(small_topology)
        for _ in range(5):
            manager.runtime.tick()
        slots = dict(small_topology.available_slots())
        for stage in manager.runtime.plan.topological_stages():
            for site, count in stage.placement().items():
                slots[site] = slots.get(site, 0) + count
        estimate = estimate_deployment(
            variants[1], manager.wan_monitor, slots, {"src": 1000.0},
            parallelism={"agg": 1},
        )
        record = manager.execute(
            ReplanAction("agg", "test", estimate), now_s=5.0
        )
        assert record.kind is ActionKind.REPLAN
        assert manager.runtime.plan.logical.name == "v1"
        # Windowed state re-initializes; the stage must still have a
        # partition entry for its new tasks.
        assert manager.state_store.sites("agg")
        assert fully_deployed(manager.runtime.plan)

    def test_replan_suspends_non_source_stages(self, small_topology):
        from repro.core.actions import ReplanAction
        from repro.planner.cost import estimate_deployment

        manager, variants = self.build(small_topology)
        slots = dict(small_topology.available_slots())
        for stage in manager.runtime.plan.topological_stages():
            for site, count in stage.placement().items():
                slots[site] = slots.get(site, 0) + count
        estimate = estimate_deployment(
            variants[1], manager.wan_monitor, slots, {"src": 1000.0}
        )
        manager.execute(ReplanAction("agg", "test", estimate), now_s=0.0)
        assert manager.runtime.is_suspended("agg")
        assert not manager.runtime.is_suspended("src")


class TestAdaptationRound:
    def test_healthy_run_takes_no_action(self, small_topology):
        manager = build_manager(small_topology)
        for _ in range(40):
            manager.observe_tick(manager.runtime.tick())
        executed = manager.adaptation_round(40.0)
        assert executed == []

    def test_bottleneck_triggers_action(self, small_topology):
        # agg capacity 40k at dc-1; 120k arrives after the filter cannot
        # even cross the 10 Mbps link -> network bound.
        manager = build_manager(small_topology, rate=240_000.0)
        for _ in range(40):
            manager.observe_tick(manager.runtime.tick())
        executed = manager.adaptation_round(40.0)
        assert executed
        assert manager.history

    def test_round_builds_window_and_diagnose_events_only_for_a_sink(
        self, small_topology, monkeypatch
    ):
        from repro.core import controller
        from repro.obs.sinks import RingBufferSink

        def unbuilt(self):
            raise AssertionError("built with no sink attached")

        manager = build_manager(small_topology, rate=240_000.0)
        with monkeypatch.context() as patch:
            patch.setattr(controller._RoundReadout, "expand", unbuilt)
            for _ in range(40):
                manager.observe_tick(manager.runtime.tick())
            manager.adaptation_round(40.0)
        sink = manager.obs.attach(RingBufferSink())
        for _ in range(40):
            manager.observe_tick(manager.runtime.tick())
        manager.adaptation_round(80.0)
        kinds = [r["kind"] for r in sink.records]
        stages = len(manager.last_diagnoses)
        window_at = kinds.index("window")
        assert kinds[window_at + 1 : window_at + 1 + stages] == (
            ["diagnose"] * stages
        )

    def test_suspended_stage_not_readapted(self, small_topology):
        manager = build_manager(small_topology, rate=240_000.0)
        for _ in range(40):
            manager.observe_tick(manager.runtime.tick())
        manager.runtime.suspend_stage("agg", until_s=1_000.0)
        executed = manager.adaptation_round(40.0)
        assert all(r.stage != "agg" for r in executed)

    def test_replan_cooldown_enforced(self, small_topology):
        manager = build_manager(small_topology)
        from repro.core.controller import AdaptationRecord
        from repro.core.transaction import AttemptRecord

        manager.attempt_log.append(
            AttemptRecord(
                35.0, "agg", "primary", "committed", "prior",
                AdaptationRecord(
                    t_s=35.0, kind=ActionKind.REPLAN, stage="agg",
                    reason="prior", transition_s=1.0,
                ),
            )
        )
        for _ in range(40):
            manager.observe_tick(manager.runtime.tick())
        executed = manager.adaptation_round(40.0)
        assert all(r.kind is not ActionKind.REPLAN for r in executed)
